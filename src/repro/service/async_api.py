"""Awaitable faces of the advisors: ``await advisor.recommend(problem)``.

These wrappers make the synchronous library advisors first-class citizens
of an event loop.  Each call dispatches the underlying solve to a worker
thread (:func:`asyncio.to_thread`) behind an :class:`asyncio.Semaphore`,
so ``N`` concurrent awaits overlap their RPC-shaped what-if latency — the
same property the solver backends exploit — while at most
``max_concurrency`` solves hold worker threads at once.

Ownership follows the factory-per-worker pattern throughout: the wrapped
advisor is thread-safe and *shared*, but every replay builds its own
replayer (replayers are stateful across periods) and the HTTP tier builds
one advisor per request over the service's shared cache pool.

The wrappers are re-exported from :mod:`repro.api` (lazily, to keep the
library importable without the service tier), so
``from repro.api import AsyncAdvisor`` is the portable entry point.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from ..api import Advisor
from ..api.report import RecommendationReport
from ..core.problem import VirtualizationDesignProblem
from ..exceptions import ConfigurationError
from ..fleet import FleetAdvisor, FleetProblem
from ..fleet.problem import Placement
from ..fleet.report import FleetReport
from ..traces import FleetTraceReplayer, TraceReplayer, WorkloadTrace
from ..traces.replay import ReplayReport
from .engine import AdvisorService

#: Default bound on concurrently executing solves per async wrapper.
DEFAULT_MAX_CONCURRENCY = 8


class _Throttle:
    """A per-event-loop semaphore of fixed width.

    An :class:`asyncio.Semaphore` binds to the loop it is first awaited
    on, while one wrapper object may outlive several loops (each
    :func:`asyncio.run` owns a fresh one) — so the semaphore is re-created
    whenever the running loop changes.  Concurrent use from *two loops at
    once* is not a supported topology (use one wrapper per loop).
    """

    def __init__(self, width: int) -> None:
        if width < 1:
            raise ConfigurationError(
                f"max_concurrency must be >= 1, got {width}"
            )
        self.width = width
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._semaphore: Optional[asyncio.Semaphore] = None

    def slot(self) -> asyncio.Semaphore:
        loop = asyncio.get_running_loop()
        if self._semaphore is None or self._loop is not loop:
            self._loop = loop
            self._semaphore = asyncio.Semaphore(self.width)
        return self._semaphore


class AsyncAdvisor:
    """Awaitable face of :class:`~repro.api.Advisor`.

    Args:
        advisor: the advisor to wrap, or ``None`` to build one from
            ``advisor_options`` (mutually exclusive).
        max_concurrency: bound on concurrently executing solves.
    """

    def __init__(
        self,
        advisor: Optional[Advisor] = None,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        **advisor_options: Any,
    ) -> None:
        if advisor is not None and advisor_options:
            raise ConfigurationError(
                "pass either an Advisor instance or advisor keyword "
                "arguments, not both"
            )
        self.advisor = advisor if advisor is not None else Advisor(**advisor_options)
        self._throttle = _Throttle(max_concurrency)

    async def recommend(
        self, problem: VirtualizationDesignProblem, **options: Any
    ) -> RecommendationReport:
        """Awaitable :meth:`~repro.api.Advisor.recommend`."""
        async with self._throttle.slot():
            return await asyncio.to_thread(
                self.advisor.recommend, problem, **options
            )

    async def recommend_exhaustive(
        self, problem: VirtualizationDesignProblem, **options: Any
    ) -> RecommendationReport:
        """Awaitable :meth:`~repro.api.Advisor.recommend_exhaustive`."""
        async with self._throttle.slot():
            return await asyncio.to_thread(
                self.advisor.recommend_exhaustive, problem, **options
            )

    async def replay(
        self, trace: WorkloadTrace, **replayer_options: Any
    ) -> ReplayReport:
        """Replay a single-machine trace without blocking the loop.

        ``replayer_options`` are forwarded to
        :class:`~repro.traces.TraceReplayer` (``builder``, ``policy``,
        ``backend``, ...); the replayer itself is built fresh per call —
        replayers carry per-run period state and are not shared.
        """
        replayer = TraceReplayer(trace, advisor=self.advisor, **replayer_options)
        async with self._throttle.slot():
            return await asyncio.to_thread(replayer.replay)


class AsyncFleetAdvisor:
    """Awaitable face of :class:`~repro.fleet.FleetAdvisor`."""

    def __init__(
        self,
        fleet_advisor: Optional[FleetAdvisor] = None,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        **fleet_options: Any,
    ) -> None:
        if fleet_advisor is not None and fleet_options:
            raise ConfigurationError(
                "pass either a FleetAdvisor instance or fleet advisor "
                "keyword arguments, not both"
            )
        self.fleet_advisor = (
            fleet_advisor if fleet_advisor is not None else FleetAdvisor(**fleet_options)
        )
        self._throttle = _Throttle(max_concurrency)

    async def recommend(self, problem: FleetProblem, **options: Any) -> FleetReport:
        """Awaitable :meth:`~repro.fleet.FleetAdvisor.recommend`."""
        async with self._throttle.slot():
            return await asyncio.to_thread(
                self.fleet_advisor.recommend, problem, **options
            )

    async def recommend_incremental(
        self,
        problem: FleetProblem,
        previous: Union[FleetReport, Placement, Mapping[str, str]],
        moved: Optional[Iterable[str]] = None,
        **options: Any,
    ) -> FleetReport:
        """Awaitable :meth:`~repro.fleet.FleetAdvisor.recommend_incremental`."""
        async with self._throttle.slot():
            return await asyncio.to_thread(
                self.fleet_advisor.recommend_incremental,
                problem,
                previous,
                moved,
                **options,
            )

    async def replay(
        self, trace: WorkloadTrace, fleet: FleetProblem, **replayer_options: Any
    ) -> ReplayReport:
        """Replay a fleet trace through the wrapped advisor's caches."""
        replayer = FleetTraceReplayer(
            trace, fleet, advisor=self.fleet_advisor, **replayer_options
        )
        async with self._throttle.slot():
            return await asyncio.to_thread(replayer.replay)


class AsyncAdvisorService:
    """Awaitable face of :class:`~repro.service.engine.AdvisorService`.

    For callers inside an event loop: request documents go in, reports
    come out, and the semaphore keeps a burst of awaits from
    oversubscribing the worker threads (the service's own solver backend
    bounds per-solve parallelism below that).  The HTTP tier does not use
    it; it calls the service directly on each connection's thread.
    """

    def __init__(
        self,
        service: Optional[AdvisorService] = None,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        **service_options: Any,
    ) -> None:
        if service is not None and service_options:
            raise ConfigurationError(
                "pass either an AdvisorService instance or service keyword "
                "arguments, not both"
            )
        self.service = service if service is not None else AdvisorService(**service_options)
        self._throttle = _Throttle(max_concurrency)

    async def recommend(self, document: Any) -> RecommendationReport:
        async with self._throttle.slot():
            return await asyncio.to_thread(self.service.recommend, document)

    async def fleet(
        self, document: Any, placement: Optional[str] = None
    ) -> FleetReport:
        """Place one fleet from a request document.

        ``document`` may be a bare fleet problem or the ``{"fleet": ...,
        "placement": ..., "local_search": ...}`` envelope (the wire format
        of ``POST /fleet``); an explicit ``placement`` argument overrides
        either form.
        """
        async with self._throttle.slot():
            if placement is not None:
                return await asyncio.to_thread(
                    self.service.fleet, document, placement
                )
            return await asyncio.to_thread(self.service.fleet_document, document)

    async def replay(self, document: Any) -> ReplayReport:
        async with self._throttle.slot():
            return await asyncio.to_thread(self.service.replay_document, document)

    def stats(self) -> Dict[str, Any]:
        """Pass-through request/cache statistics (non-blocking)."""
        return self.service.stats()
