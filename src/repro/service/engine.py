"""The shared serving engine: one cache pool, per-request advisors.

:class:`AdvisorService` is what a long-running advisor deployment keeps
between requests.  Its ownership rules follow the factory-per-worker
pattern (each worker *creates* its mutable state rather than borrowing
another's): a request never receives a shared :class:`~repro.api.Advisor`
— it gets a fresh one from :meth:`AdvisorService.advisor` — while
everything that is safe and *profitable* to share lives on the service:

* ``caches`` — one process-wide pool of
  :class:`~repro.api.cache.CostCache`\\ s (strategy name → cache), injected
  into every per-request advisor via ``Advisor(shared_caches=...)``.
* pooled :class:`~repro.api.ProblemBuilder`\\ s, one per hardware profile
  (machine + calibration overrides).  The builder's by-value
  ``consolidated`` memo is what gives value-equal requests *identical*
  workload objects — the identity the cost cache keys on — so a repeated
  scenario is answered from the cache with zero new evaluations.
* one long-lived, thread-safe :class:`~repro.fleet.FleetAdvisor` whose
  inner advisor rides the same cache pool; fleet solves fan out on the
  service's solver backend (``"serial"`` by default: on the in-process
  cost model it is the fastest backend, while ``"thread"`` overlaps
  RPC-shaped what-if latency — see ``docs/parallel.md``).

The service itself is synchronous and thread-safe.  The HTTP tier
(:mod:`repro.service.http`) calls it directly, on each request's
connection thread.  Fleet requests use the fleet advisor's
``"greedy-cost"`` placement unless they name a strategy or a budget
(:func:`~repro.fleet.resolve_placement`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Mapping, Optional, Union

from ..api import Advisor, ProblemBuilder, Scenario
from ..api.cache import CostCache
from ..api.report import CostCallStats, RecommendationReport
from ..calibration import CalibrationSettings
from ..core.problem import VirtualizationDesignProblem
from ..exceptions import ConfigurationError
from ..fleet import FleetAdvisor, FleetProblem, resolve_placement
from ..fleet.report import FleetReport
from ..parallel import BackendSpec, resolve_backend
from ..telemetry.instruments import IN_FLIGHT, REQUEST_LATENCY, REQUESTS_TOTAL
from ..telemetry.trace import get_tracer
from ..traces import FleetTraceReplayer, TraceReplayer, WorkloadTrace
from ..traces.replay import POLICY_DYNAMIC, ReplayReport
from ..virt.machine import PhysicalMachine

#: How many hardware profiles (machine + calibration overrides) the
#: service keeps calibrated builders for.
_BUILDER_POOL_SIZE = 8

#: Version of the ``/stats`` payload shape.  Bumped whenever a field is
#: added, renamed, or removed, so clients can dispatch without sniffing
#: keys; see ``docs/service.md`` for the per-version shapes.
STATS_SCHEMA_VERSION = 3

#: Keys accepted in a ``/replay`` envelope document.
_REPLAY_KEYS = ("trace", "fleet", "policy")

#: Keys accepted in a ``/fleet`` envelope document.
_FLEET_KEYS = ("fleet", "placement", "local_search", "max_nodes", "max_seconds")


class _SharedCachePool(Dict[str, CostCache]):
    """A ``strategy name -> CostCache`` pool safe to extend concurrently.

    Per-request advisors insert caches via ``dict.setdefault``; locking it
    here makes the check-then-create explicit rather than leaning on the
    GIL's atomicity, and gives the service a consistent snapshot for
    statistics.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def setdefault(self, key: str, default: Optional[CostCache] = None) -> CostCache:
        with self._lock:
            return super().setdefault(key, default)

    def snapshot(self) -> List[CostCache]:
        with self._lock:
            return list(self.values())


ScenarioDocument = Union[Scenario, Mapping[str, Any], str, bytes]
FleetDocument = Union[FleetProblem, Mapping[str, Any], str, bytes]
TraceDocument = Union[WorkloadTrace, Mapping[str, Any], str, bytes]


def _coerce(document: Any, cls: Any, what: str) -> Any:
    """Accept an instance, a mapping, or a JSON document."""
    if isinstance(document, cls):
        return document
    if isinstance(document, (str, bytes)):
        return cls.from_json(document)
    if isinstance(document, Mapping):
        return cls.from_dict(document)
    raise ConfigurationError(
        f"expected a {what} instance, mapping, or JSON document; "
        f"got {type(document).__name__}"
    )


class AdvisorService:
    """The advisor hosted as a long-running, concurrent-safe engine.

    Args:
        backend: solver-execution backend fleet solves and replays fan out
            on — a registered name or an instance.  The default is
            ``"serial"``; ``"thread"`` overlaps RPC-shaped what-if calls.
            Every backend returns the serial answer bit for bit.
        jobs: worker count for a backend given by name.
        advisor_options: defaults for every advisor the service builds
            (per-request and fleet); a scenario's embedded ``advisor``
            options override them per request.
    """

    def __init__(
        self,
        backend: BackendSpec = "serial",
        jobs: Optional[int] = None,
        **advisor_options: Any,
    ) -> None:
        self.caches = _SharedCachePool()
        self.backend = resolve_backend(backend, jobs)
        self._advisor_options = dict(advisor_options)
        #: The one long-lived fleet advisor (thread-safe; its per-hardware
        #: builders are what let concurrent and repeated fleet requests
        #: share cache identity).
        self.fleet_advisor = FleetAdvisor(
            advisor=Advisor(shared_caches=self.caches, **advisor_options),
            backend=self.backend,
        )
        #: Calibrated builders per hardware profile, LRU-bounded.
        self._builders: "OrderedDict[str, ProblemBuilder]" = OrderedDict()
        #: Guards the pools and the request accounting below.
        self._lock = threading.RLock()
        self._in_flight = 0
        self._requests: Dict[str, int] = {}
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Factories (the per-request ownership boundary)
    # ------------------------------------------------------------------
    def advisor(self, **options: Any) -> Advisor:
        """A fresh advisor for one request, over the shared cache pool.

        Requests never share an advisor object — its strategy state
        belongs to the request that created it — but all advisors answer
        from (and feed) the same process-wide caches.
        """
        merged = {**self._advisor_options, **options}
        return Advisor(shared_caches=self.caches, **merged)

    def builder(
        self,
        machine: Optional[Mapping[str, Any]] = None,
        calibration: Optional[Mapping[str, Any]] = None,
    ) -> ProblemBuilder:
        """The pooled calibrated builder for one hardware profile.

        Pooling is what makes served scenarios cacheable at all: the
        builder memoizes tenant materializations *by value*, so value-equal
        tenant specs — across requests, across clients — resolve to the
        same workload objects, which is the identity the shared
        :class:`~repro.api.cache.CostCache` keys on.
        """
        key = self._profile_key(machine, calibration)
        with self._lock:
            pooled = self._builders.get(key)
            if pooled is not None:
                self._builders.move_to_end(key)
                return pooled
            physical = PhysicalMachine(**machine) if machine else None
            settings = CalibrationSettings(**calibration) if calibration else None
            built = ProblemBuilder(machine=physical, calibration_settings=settings)
            self._builders[key] = built
            while len(self._builders) > _BUILDER_POOL_SIZE:
                self._builders.popitem(last=False)
            return built

    @staticmethod
    def _profile_key(
        machine: Optional[Mapping[str, Any]],
        calibration: Optional[Mapping[str, Any]],
    ) -> str:
        return json.dumps(
            {"machine": machine, "calibration": calibration},
            sort_keys=True,
            default=list,
        )

    def _scenario_problem(self, scenario: Scenario) -> VirtualizationDesignProblem:
        """A scenario's design problem, built from the pooled builder.

        Built outside the service lock: calibration can be slow and must
        not serialize unrelated requests.  The builder's by-value memo
        hands out the same workload objects for equal tenant specs, so the
        shared cost cache answers for every rebuild.
        """
        builder = self.builder(scenario.machine, scenario.calibration)
        return VirtualizationDesignProblem(
            tenants=tuple(builder.consolidated(spec) for spec in scenario.tenants),
            resources=scenario.resources,
            fixed_memory_fraction=scenario.fixed_memory_fraction,
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def recommend(self, scenario: ScenarioDocument) -> RecommendationReport:
        """Solve one scenario (the ``/recommend`` endpoint)."""
        parsed = _coerce(scenario, Scenario, "Scenario")
        with self._serving("recommend"):
            problem = self._scenario_problem(parsed)
            return self.advisor(**parsed.advisor).recommend(problem)

    def fleet(
        self,
        problem: FleetDocument,
        placement: Optional[str] = None,
        local_search: Optional[int] = None,
        max_nodes: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> FleetReport:
        """Place and configure one fleet (the ``/fleet`` endpoint).

        ``placement`` selects a registered strategy for this request
        (unknown names are rejected — an HTTP 400 on the wire);
        ``local_search`` is the improvement-round budget, implying
        ``"greedy-cost+ls"`` when no placement is named;
        ``max_nodes`` / ``max_seconds`` budget the exact ``"bnb-fleet"``
        search (implying it when no placement is named) — on exhaustion
        the response degrades to the best incumbent and its
        ``placement_provenance`` records ``proven_optimal: false`` plus
        which budget tripped.
        """
        parsed = _coerce(problem, FleetProblem, "FleetProblem")
        # Resolved before request accounting, so a bad name or budget is a
        # clean 400, never a half-served request.
        spec = resolve_placement(placement, local_search, max_nodes, max_seconds)
        with self._serving("fleet"):
            return self.fleet_advisor.recommend(parsed, placement=spec)

    def fleet_document(self, document: Any) -> FleetReport:
        """Place one fleet from a request document.

        Accepts either a bare :class:`~repro.fleet.FleetProblem` JSON
        document, or an envelope ``{"fleet": ..., "placement": ...,
        "local_search": ..., "max_nodes": ..., "max_seconds": ...}``
        (everything but ``fleet`` optional) — the wire format of
        ``POST /fleet``, mirroring the CLI's ``--placement`` /
        ``--local-search`` / ``--bnb-max-nodes`` / ``--bnb-max-seconds``.
        """
        if isinstance(document, (str, bytes)):
            document = json.loads(document)
        if isinstance(document, Mapping) and "fleet" in document:
            unknown = sorted(set(document) - set(_FLEET_KEYS))
            if unknown:
                raise ConfigurationError(
                    f"unknown fleet option(s) {', '.join(map(repr, unknown))}; "
                    f"expected a subset of {', '.join(_FLEET_KEYS)}"
                )
            return self.fleet(
                document["fleet"],
                placement=document.get("placement"),
                local_search=document.get("local_search"),
                max_nodes=document.get("max_nodes"),
                max_seconds=document.get("max_seconds"),
            )
        return self.fleet(document)

    def replay(
        self,
        trace: TraceDocument,
        fleet: Optional[FleetDocument] = None,
        policy: str = POLICY_DYNAMIC,
    ) -> ReplayReport:
        """Replay one trace (the ``/replay`` endpoint).

        Single-machine when ``fleet`` is omitted (against the service's
        default-profile pooled builder), fleet-scale otherwise (through
        the service's long-lived fleet advisor, so re-placement solves ride
        the shared caches and fan out on the service backend).
        """
        parsed = _coerce(trace, WorkloadTrace, "WorkloadTrace")
        with self._serving("replay"):
            if fleet is None:
                replayer = TraceReplayer(
                    parsed,
                    advisor=self.advisor(),
                    builder=self.builder(),
                    policy=policy,
                    backend=self.backend,
                )
            else:
                fleet_parsed = _coerce(fleet, FleetProblem, "FleetProblem")
                replayer = FleetTraceReplayer(
                    parsed, fleet_parsed, advisor=self.fleet_advisor, policy=policy
                )
            return replayer.replay()

    def replay_document(self, document: Any) -> ReplayReport:
        """Replay from one request document.

        Accepts either a bare :class:`~repro.traces.WorkloadTrace` JSON
        document, or an envelope ``{"trace": ..., "fleet": ...,
        "policy": ...}`` (``fleet`` and ``policy`` optional) — the wire
        format of ``POST /replay``.
        """
        if isinstance(document, (str, bytes)):
            document = json.loads(document)
        if isinstance(document, Mapping) and "trace" in document:
            unknown = sorted(set(document) - set(_REPLAY_KEYS))
            if unknown:
                raise ConfigurationError(
                    f"unknown replay option(s) {', '.join(map(repr, unknown))}; "
                    f"expected a subset of {', '.join(_REPLAY_KEYS)}"
                )
            return self.replay(
                document["trace"],
                fleet=document.get("fleet"),
                policy=document.get("policy", POLICY_DYNAMIC),
            )
        return self.replay(document)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @contextmanager
    def _serving(self, kind: str) -> Iterator[None]:
        with self._lock:
            self._in_flight += 1
            self._requests[kind] = self._requests.get(kind, 0) + 1
        REQUESTS_TOTAL.labels(endpoint=kind).inc()
        IN_FLIGHT.inc()
        started = time.perf_counter()
        try:
            with get_tracer().span(f"service.{kind}", endpoint=kind):
                yield
        finally:
            REQUEST_LATENCY.labels(endpoint=kind).observe(
                time.perf_counter() - started
            )
            IN_FLIGHT.dec()
            with self._lock:
                self._in_flight -= 1

    def cache_stats(self) -> CostCallStats:
        """Aggregate traffic of the process-wide cost-cache pool.

        Per-cache statistics are combined with a plain :func:`sum`
        (``CostCallStats.__radd__`` absorbs the implicit ``0`` start); the
        fleet advisor's solve-memo hits ride along as
        ``placement_solve_hits``, so the ``/stats`` payload reports whole
        skipped searches next to skipped evaluations.
        """
        per_cache = [
            CostCallStats(
                evaluations=cache.misses,
                cache_hits=cache.hits,
                cache_misses=cache.misses,
            )
            for cache in self.caches.snapshot()
        ]
        memo_hits = CostCallStats(
            evaluations=0,
            cache_hits=0,
            cache_misses=0,
            placement_solve_hits=self.fleet_advisor.solve_memo.hits,
        )
        return sum(per_cache, memo_hits)

    def _latency_summary(self) -> Dict[str, Dict[str, Optional[float]]]:
        """Per-endpoint service-latency SLIs from the request histogram.

        Quantiles are estimated from the process-lifetime cumulative
        buckets via :meth:`~repro.telemetry.metrics.Histogram.quantile` —
        the same estimator the load generator applies to its client-side
        histograms, so the two sides of a load report are comparable.
        """
        summary: Dict[str, Dict[str, Optional[float]]] = {}
        for key, child in REQUEST_LATENCY.children():
            endpoint = key[0] if key else ""
            summary[endpoint] = {
                "count": float(child.count),
                "mean_seconds": (
                    child.sum / child.count if child.count else None
                ),
                "p50_seconds": child.quantile(0.50),
                "p95_seconds": child.quantile(0.95),
                "p99_seconds": child.quantile(0.99),
            }
        return summary

    def stats(self) -> Dict[str, Any]:
        """The ``/stats`` document: cache traffic, request accounting."""
        cost = self.cache_stats()
        with self._lock:
            in_flight = self._in_flight
            requests = dict(self._requests)
        tracer = get_tracer()
        return {
            "status": "ok",
            "schema_version": STATS_SCHEMA_VERSION,
            "backend": getattr(self.backend, "name", type(self.backend).__name__),
            "jobs": self.backend.jobs,
            "in_flight": in_flight,
            "requests": requests,
            "cost_cache": {"caches": len(self.caches.snapshot()), **cost.to_dict()},
            "placement_solve_memo": self.fleet_advisor.solve_memo.stats(),
            "latency_summary": self._latency_summary(),
            "telemetry": {
                "tracing_enabled": tracer.enabled,
                "recent_traces": list(tracer.ring.trace_ids()),
            },
            "uptime_seconds": time.monotonic() - self._started,
        }

    def close(self) -> None:
        """Release the solver backend's pooled workers (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "AdvisorService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
