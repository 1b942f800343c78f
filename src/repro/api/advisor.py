"""The advisor service object: pluggable strategies over a shared cache.

:class:`Advisor` is the front door to the paper's pipeline (Figure 3).
It accepts each pipeline stage as an instance *or* a registered strategy
name, and answers repeated what-if questions from one shared
:class:`~repro.api.cache.CostCache`, so the recommend,
exhaustive-verification, and refinement phases (and repeated runs over
re-built problems) never pay for the same optimizer call twice.

    from repro.api import Advisor

    advisor = Advisor()                      # greedy + what-if
    report = advisor.recommend(problem)      # -> RecommendationReport
    report.to_json()

    Advisor(enumerator="exhaustive-dp")      # optimal-baseline search
    Advisor(cost_function="actual")          # ground-truth measurement
    Advisor(refinement="generalized")        # force a refinement procedure

The service is also the per-machine engine of the fleet layer, which
uses :meth:`Advisor.recommend`'s two halves apart:
:class:`repro.fleet.FleetAdvisor` prices a candidate tenant placement
with :meth:`Advisor.search` alone (its gain-weighted cost is all a probe
reads) and assembles a report with :meth:`Advisor.report` only for the
machines a placement commits to.  Both ride the same shared cache, so a
repeated fleet recommendation evaluates nothing new.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple, Union

from ..core.advisor import Recommendation
from ..core.dynamic import DynamicConfigurationManager
from ..core.enumerator import DynamicProgrammingSearch, EnumerationResult
from ..core.problem import ResourceAllocation, VirtualizationDesignProblem
from ..core.refinement import RefinementResult
from ..exceptions import ConfigurationError
from ..monitoring.metrics import improvement_over_default, relative_improvement
from ..telemetry.instruments import SOLVE_LATENCY
from ..telemetry.trace import get_tracer
from .cache import CachedCostFunction, CostCache
from .report import (
    CostCallStats,
    RecommendationReport,
    StrategyProvenance,
    TenantReport,
)
from .strategies import (
    COST_FUNCTIONS,
    ENUMERATORS,
    REFINEMENTS,
    CostFunctionLike,
    EnumerationStrategy,
)

EnumeratorSpec = Union[str, EnumerationStrategy]
CostFunctionSpec = Union[str, CostFunctionLike]


def _strategy_name(spec: Any) -> str:
    """Human-readable provenance name for a strategy spec."""
    if isinstance(spec, str):
        return spec
    return type(spec).__name__


@dataclass(frozen=True)
class Search:
    """One enumerator search over a problem: the first half of a recommendation.

    :meth:`Advisor.search` makes it and :meth:`Advisor.report` assembles
    its report; :meth:`Advisor.recommend` is the two in a row.
    ``cost_stats`` and ``wall_time_seconds`` cover the search alone.
    """

    problem: VirtualizationDesignProblem
    result: EnumerationResult
    provenance: StrategyProvenance
    cost_stats: CostCallStats
    wall_time_seconds: float


def _engines(problem: VirtualizationDesignProblem) -> List[Any]:
    """The distinct engines behind a problem's tenants."""
    return list(
        {id(t.calibration.engine): t.calibration.engine for t in problem.tenants}.values()
    )


def _counters(costs: CachedCostFunction, engines: List[Any]) -> Tuple[int, ...]:
    """The counters a :class:`CostCallStats` is the difference of, in field order."""
    return (
        costs.evaluations,
        costs.cache.hits,
        costs.cache.misses,
        sum(engine.optimizer_call_count() for engine in engines),
        sum(engine.plan_cache_hit_count() for engine in engines),
    )


def _stats_since(
    before: Tuple[int, ...], costs: CachedCostFunction, engines: List[Any]
) -> CostCallStats:
    """The cost-call traffic since ``before`` was taken with :func:`_counters`."""
    after = _counters(costs, engines)
    return CostCallStats(*(now - then for now, then in zip(after, before)))


class Advisor:
    """Recommends virtual machine configurations for consolidated DBMSes.

    Args:
        enumerator: an :class:`EnumerationStrategy` instance or a name
            registered in :data:`~repro.api.strategies.ENUMERATORS`
            (``"greedy"``, ``"exhaustive-dp"``).
        cost_function: a cost-function instance (bound to one problem) or a
            name registered in :data:`~repro.api.strategies.COST_FUNCTIONS`
            (``"what-if"``, ``"actual"``).  Named cost functions are built
            per call over the advisor's one cost cache, shared across
            problems and phases.
        refinement: a name registered in
            :data:`~repro.api.strategies.REFINEMENTS` (``"basic"``,
            ``"generalized"``), or ``None`` to dispatch automatically on the
            number of controlled resources (the paper's rule).
        delta / min_share / max_iterations: enumeration knobs, forwarded to
            named enumerator factories.
        cache: optional externally-owned
            :class:`~repro.api.cache.CostCache`.  Several advisors given the
            *same* cache answer each other's what-if questions — the serving
            tier builds one short-lived advisor per request (the
            factory-per-worker ownership pattern) yet keeps one process-wide
            cache.  Omitted, the advisor owns a private one.  Every named
            cost function rides it: each keeps its values in rows of its own
            ``cache_namespace``.
    """

    def __init__(
        self,
        enumerator: EnumeratorSpec = "greedy",
        cost_function: CostFunctionSpec = "what-if",
        refinement: Optional[str] = None,
        delta: float = 0.05,
        min_share: float = 0.05,
        max_iterations: int = 500,
        cache: Optional[CostCache] = None,
    ) -> None:
        self.delta = delta
        self.min_share = min_share
        self.max_iterations = max_iterations
        self._cost_function_spec = cost_function
        self.enumerator = enumerator  # property: resolves names, tracks provenance
        self._refinement_spec = refinement
        #: The cost cache behind every named cost function (thread-safe).
        self.cache = cache if cache is not None else CostCache()

    # ------------------------------------------------------------------
    # Strategy resolution
    # ------------------------------------------------------------------
    @property
    def enumerator(self) -> EnumerationStrategy:
        """The resolved enumeration strategy.

        Assignable with an instance or a registered name; either way the
        provenance recorded in subsequent reports follows the assignment.
        """
        return self._enumerator

    @enumerator.setter
    def enumerator(self, spec: EnumeratorSpec) -> None:
        self._enumerator_name = _strategy_name(spec)
        self._enumerator = self._resolve_enumerator(spec)
        #: The provenance of every search by this enumerator over the
        #: advisor's cost function, built once (its options are read-only).
        self._provenance = self._provenance_of(
            self._enumerator, self._enumerator_name, self._cost_function_spec
        )

    def _provenance_of(
        self,
        strategy: EnumerationStrategy,
        enumerator_name: str,
        cost_function: CostFunctionSpec,
    ) -> StrategyProvenance:
        return StrategyProvenance(
            enumerator=enumerator_name,
            cost_function=_strategy_name(cost_function),
            refinement=None,
            options={
                "delta": getattr(strategy, "delta", self.delta),
                "min_share": getattr(strategy, "min_share", self.min_share),
                "max_iterations": self.max_iterations,
            },
        )

    def _resolve_enumerator(self, spec: EnumeratorSpec) -> EnumerationStrategy:
        if isinstance(spec, str):
            return ENUMERATORS.create(
                spec,
                delta=self.delta,
                min_share=self.min_share,
                max_iterations=self.max_iterations,
            )
        # Accept any object with an enumerate() method: the Protocol's
        # delta/min_share members are conveniences some strategies expose,
        # not requirements for running a recommendation.
        if not callable(getattr(spec, "enumerate", None)):
            raise ConfigurationError(
                f"enumerator must be a registered name or provide an "
                f"enumerate(problem, cost_function) method; got {type(spec).__name__}"
            )
        return spec

    def cost_function(
        self,
        problem: VirtualizationDesignProblem,
        override: Optional[CostFunctionSpec] = None,
    ) -> CachedCostFunction:
        """A fresh cached cost function for ``problem``.

        Named strategies are built anew on every call over the advisor's
        :attr:`cache`, which keys on the tenants' workload and calibration
        objects, so a repeated ``recommend`` evaluates nothing new.  An
        instance spec is caller-owned and gets a private cache.
        """
        spec = override if override is not None else self._cost_function_spec
        if not isinstance(spec, str):
            # A cost function bound to an *equal* (re-built) problem is
            # fine: equal problems yield identical costs.
            inner_problem = getattr(spec, "problem", None)
            if (
                inner_problem is not None
                and inner_problem is not problem
                and inner_problem != problem
            ):
                raise ConfigurationError(
                    "the supplied cost function is bound to a different problem"
                )
            return CachedCostFunction(problem, spec, CostCache())
        inner = COST_FUNCTIONS.create(spec, problem=problem)
        return CachedCostFunction(problem, inner, self.cache)

    def _grid_enumerator(self) -> EnumerationStrategy:
        """An enumerator with the delta/min_share grid attributes.

        Refinement and dynamic management sample the cost models on the
        enumerator's allocation grid; a custom strategy exposing only
        ``enumerate()`` cannot provide one, so those paths fall back to a
        greedy enumerator built from the advisor's knobs.
        """
        if hasattr(self.enumerator, "delta") and hasattr(self.enumerator, "min_share"):
            return self.enumerator
        return ENUMERATORS.create(
            "greedy",
            delta=self.delta,
            min_share=self.min_share,
            max_iterations=self.max_iterations,
        )

    def clear_caches(self) -> None:
        """Drop every value in the cost cache."""
        self.cache.clear()

    def cache_stats(self) -> CostCallStats:
        """Traffic of the cost cache.

        Every named cost-function strategy routes through :attr:`cache`,
        and each miss is exactly one underlying evaluation, so
        ``evaluations == cache_misses`` here.  Long-running drivers (trace
        replay, fleets) difference two snapshots to report what one run
        actually evaluated.
        """
        hits, misses = self.cache.hits, self.cache.misses
        return CostCallStats(evaluations=misses, cache_hits=hits, cache_misses=misses)

    # ------------------------------------------------------------------
    # Static recommendation (Section 4)
    # ------------------------------------------------------------------
    def recommend(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: Optional[CostFunctionSpec] = None,
        enumerator: Optional[EnumeratorSpec] = None,
    ) -> RecommendationReport:
        """Produce a recommendation report for a problem.

        ``cost_function`` and ``enumerator`` override the advisor-level
        strategies for this call only.  The work is :meth:`search`
        followed by :meth:`report`, over one cost function.
        """
        costs = self.cost_function(problem, cost_function)
        search = self._search(problem, costs, cost_function, enumerator)
        return self._report(search, costs)

    def search(self, problem: VirtualizationDesignProblem) -> Search:
        """Run the enumerator's search over ``problem``, assembling no report.

        The first half of :meth:`recommend`: the allocations, their costs
        and the search's cost-call statistics, from which :meth:`report`
        assembles the report the whole :meth:`recommend` would return.
        """
        return self._search(problem, self.cost_function(problem))

    def report(self, search: Search) -> RecommendationReport:
        """The report of a :meth:`search`: what :meth:`recommend` returns.

        Its ``cost_stats`` add the traffic of assembling it (the default
        allocation's cost and every tenant's degradation) to the search's.
        """
        return self._report(search, self.cost_function(search.problem))

    def _search(
        self,
        problem: VirtualizationDesignProblem,
        costs: CachedCostFunction,
        cost_function: Optional[CostFunctionSpec] = None,
        enumerator: Optional[EnumeratorSpec] = None,
    ) -> Search:
        strategy = self.enumerator if enumerator is None else self._resolve_enumerator(enumerator)
        engines = _engines(problem)
        started = time.perf_counter()
        before = _counters(costs, engines)

        # The search is one leaf span: the enumerator's inner loop is far
        # too hot for per-evaluation spans, so the cache-traffic delta is
        # recorded as attributes instead.
        with get_tracer().span(
            "advisor.search",
            leaf=True,
            tenants=len(problem.tenants),
            enumerator=type(strategy).__name__,
        ) as span:
            result = strategy.enumerate(problem, costs)
            stats = _stats_since(before, costs, engines)
            span.set_attributes(
                evaluations=stats.evaluations,
                cache_hits_delta=stats.cache_hits,
                cache_misses_delta=stats.cache_misses,
            )

        elapsed = time.perf_counter() - started
        SOLVE_LATENCY.observe(elapsed)
        if enumerator is None and cost_function is None:
            provenance = self._provenance
        else:
            provenance = self._provenance_of(
                strategy,
                self._enumerator_name
                if enumerator is None
                else _strategy_name(enumerator),
                self._cost_function_spec if cost_function is None else cost_function,
            )
        return Search(
            problem=problem,
            result=result,
            provenance=provenance,
            cost_stats=stats,
            wall_time_seconds=elapsed,
        )

    def _report(self, search: Search, costs: CachedCostFunction) -> RecommendationReport:
        problem = search.problem
        engines = _engines(problem)
        started = time.perf_counter()
        before = _counters(costs, engines)
        with get_tracer().span("advisor.report", leaf=True, tenants=len(problem.tenants)):
            recommendation = self._to_recommendation(problem, costs, search.result)
            tenants = self._tenant_reports(problem, costs, recommendation)
            stats = search.cost_stats + _stats_since(before, costs, engines)
        return RecommendationReport(
            recommendation=recommendation,
            tenants=tenants,
            provenance=search.provenance,
            cost_stats=stats,
            wall_time_seconds=search.wall_time_seconds + time.perf_counter() - started,
        )

    def recommend_exhaustive(
        self, problem: VirtualizationDesignProblem
    ) -> RecommendationReport:
        """Recommend by optimal grid search (the paper's exhaustive baseline).

        The optimum comes from the exact dynamic program
        (:class:`~repro.core.enumerator.DynamicProgrammingSearch`) on the
        advisor's grid, which has no combination budget; the report's
        provenance names it ``"exhaustive-dp"``.
        """
        search = DynamicProgrammingSearch(
            delta=getattr(self.enumerator, "delta", self.delta),
            min_share=getattr(self.enumerator, "min_share", self.min_share),
        )
        report = self.recommend(problem, enumerator=search)
        provenance = StrategyProvenance(
            enumerator="exhaustive-dp",
            cost_function=report.provenance.cost_function,
            refinement=None,
            options=report.provenance.options,
        )
        return RecommendationReport(
            recommendation=report.recommendation,
            tenants=report.tenants,
            provenance=provenance,
            cost_stats=report.cost_stats,
            wall_time_seconds=report.wall_time_seconds,
        )

    def _to_recommendation(
        self,
        problem: VirtualizationDesignProblem,
        costs: CostFunctionLike,
        result: EnumerationResult,
    ) -> Recommendation:
        default_cost = costs.total_cost(problem.default_allocation())
        return Recommendation(
            allocations=result.allocations,
            per_workload_costs=result.per_workload_costs,
            total_cost=result.total_cost,
            default_cost=default_cost,
            estimated_improvement=relative_improvement(default_cost, result.total_cost),
            iterations=result.iterations,
            cost_calls=result.cost_calls,
        )

    def _tenant_reports(
        self,
        problem: VirtualizationDesignProblem,
        costs: CostFunctionLike,
        recommendation: Recommendation,
    ) -> Tuple[TenantReport, ...]:
        reports = []
        for index, allocation in enumerate(recommendation.allocations):
            tenant = problem.tenant(index)
            reports.append(
                TenantReport(
                    name=tenant.name,
                    cpu_share=allocation.cpu_share,
                    memory_fraction=allocation.memory_fraction,
                    estimated_cost=recommendation.per_workload_costs[index],
                    degradation=costs.degradation(index, allocation),
                    degradation_limit=tenant.degradation_limit,
                    gain_factor=tenant.gain_factor,
                )
            )
        return tuple(reports)

    # ------------------------------------------------------------------
    # Online refinement (Section 5)
    # ------------------------------------------------------------------
    def refine(
        self,
        problem: VirtualizationDesignProblem,
        max_iterations: int = 8,
    ) -> RefinementResult:
        """Refine the recommendation using observed workload execution times.

        The estimator is the advisor's (shared-cache) cost function, so
        refinement reuses every estimate the recommend phase already made;
        the observed costs come from the ``"actual"`` strategy.
        """
        estimator_fn = self.cost_function(problem)
        actual_fn = self.cost_function(problem, "actual")
        spec = self._refinement_spec
        if spec is None:
            spec = "basic" if len(problem.resources) == 1 else "generalized"
        strategy = REFINEMENTS.create(
            spec,
            problem=problem,
            estimator=estimator_fn,
            actual_costs=actual_fn,
            enumerator=self._grid_enumerator(),
            max_iterations=max_iterations,
        )
        return strategy.run()

    # ------------------------------------------------------------------
    # Dynamic configuration management (Section 6)
    # ------------------------------------------------------------------
    def dynamic_manager(
        self,
        problem: VirtualizationDesignProblem,
        always_refine: bool = False,
    ) -> DynamicConfigurationManager:
        """Create a dynamic configuration manager for a (CPU-only) problem.

        The manager's what-if estimates and its observed "actual" costs are
        served through the advisor's cost cache, so replaying the same
        sequence of period workloads twice — e.g. a repeated
        :class:`~repro.traces.replay.TraceReplayer` run — performs zero new
        cost-estimator evaluations the second time.
        """
        return DynamicConfigurationManager(
            base_problem=problem,
            enumerator=self._grid_enumerator(),
            always_refine=always_refine,
            actual_cost_factory=lambda period_problem: self.cost_function(
                period_problem, "actual"
            ),
            estimator_factory=lambda period_problem: self.cost_function(
                period_problem, "what-if"
            ),
        )

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def measured_improvement(
        self,
        problem: VirtualizationDesignProblem,
        allocations: Tuple[ResourceAllocation, ...],
    ) -> float:
        """Actual relative improvement of an allocation over the default."""
        actuals = self.cost_function(problem, "actual")
        return improvement_over_default(problem, allocations, actuals)
