"""An awaitable face of the serving engine: ``await service.recommend(doc)``.

:class:`AsyncAdvisorService` dispatches each request document to a worker
thread (:func:`asyncio.to_thread`) behind an :class:`asyncio.Semaphore`,
so at most ``max_concurrency`` solves hold worker threads at once.  The
HTTP tier does not use it, and nothing in the library calls it: it stays
because the repository benchmark (``perfbench/``) wraps its methods by
name.  A caller inside an event loop needs no wrapper to await a library
advisor — ``await asyncio.to_thread(advisor.recommend, problem)`` is the
whole pattern.
"""

from __future__ import annotations

import asyncio
from typing import Any, Optional

from ..api.report import RecommendationReport
from ..exceptions import ConfigurationError
from ..fleet.report import FleetReport
from .engine import AdvisorService
from .http import DEFAULT_MAX_CONCURRENCY


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


class AsyncAdvisorService:
    """Awaitable face of :class:`~repro.service.engine.AdvisorService`.

    Request documents go in, reports come out, and the semaphore keeps a
    burst of awaits from oversubscribing the worker threads.
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
