"""The fleet advisor: placement on top of the per-machine advisor.

:class:`FleetAdvisor` answers the fleet-scale consolidation question —
*which machine should each tenant live on, and how should every machine
then be divided?* — by composing two existing pieces:

* a pluggable placement strategy (:mod:`repro.fleet.strategies`) chooses
  the tenant → machine assignment, and
* the unchanged :class:`repro.api.Advisor` divides each machine's CPU and
  memory among the tenants placed there (the paper's per-machine problem).

The advisor keeps one calibrated :class:`~repro.api.ProblemBuilder` per
*distinct hardware shape* (two fleet machines with equal capacity share one
calibration, exactly as one physical testbed serves many identical racks),
memoizes whole per-machine solves by value
(:class:`~repro.fleet.solve_memo.SolveMemo`), and runs every per-machine
solve through the inner advisor's shared
:class:`~repro.api.cache.CostCache`.  Consequences:

* the ``"greedy-cost"`` strategy's placement probes price each candidate
  co-location from the same batched cost tables the final solve uses, and
* a repeated :meth:`FleetAdvisor.recommend` over an unchanged problem
  performs **zero** new cost-estimator evaluations — the whole fleet
  answer comes out of the cache.

    from repro.fleet import FleetAdvisor, FleetProblem

    fleet = FleetProblem.from_json(document)
    report = FleetAdvisor().recommend(fleet)      # -> FleetReport
    report.to_json()
"""

from __future__ import annotations

import functools
import math
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.advisor import Advisor
from ..api.builder import ProblemBuilder
from ..api.cache import _Row
from ..api.report import CostCallStats, RecommendationReport
from ..calibration import CalibrationSettings
from ..core.problem import ConsolidatedWorkload, VirtualizationDesignProblem
from ..exceptions import ConfigurationError, OptimizationError, PlacementError
from ..parallel.backends import BackendSpec, SolveTask, SolverBackend, resolve_backend
from ..telemetry.instruments import PLACEMENT_PROBES, PROBE_LATENCY
from ..telemetry.trace import get_tracer
from .problem import FleetProblem, Machine, Placement
from .report import FleetReport, MachineReport
from .solve_memo import DEFAULT_SOLVE_MEMO_SIZE, Infeasible, Solved, SolveMemo
from .strategies import PLACEMENTS, PlacementStrategy, greedy_assign

#: Hardware shape plus calibration overrides: the unit of calibration reuse.
_BuilderKey = Tuple[Tuple[float, float, int], Tuple[Tuple[str, Any], ...]]

PlacementSpec = Union[str, PlacementStrategy]

#: The accounting a memo-served solve contributes: no evaluations, no
#: cache traffic — one whole enumerator search skipped.
_MEMO_HIT_STATS = CostCallStats(
    evaluations=0, cache_hits=0, cache_misses=0, placement_solve_hits=1
)

#: The accounting of a report the memo already holds: nothing at all.
_NO_STATS = CostCallStats(evaluations=0, cache_hits=0, cache_misses=0)


def _placement_name(spec: PlacementSpec) -> str:
    """Human-readable provenance name for a placement spec."""
    if isinstance(spec, str):
        return spec
    return getattr(spec, "name", type(spec).__name__)


def _placement_provenance(strategy: Any) -> Optional[Dict[str, Any]]:
    """The strategy's search accounting for this run, if it keeps one.

    Strategies with a ``last_search`` attribute exposing ``to_dict()``
    (``"bnb-fleet"``'s :class:`~repro.fleet.bnb.BnbSearchStats`) have it
    captured immediately after ``place()`` returns, before the strategy
    can run again, and surfaced as the report's ``placement_provenance``.
    """
    last_search = getattr(strategy, "last_search", None)
    to_dict = getattr(last_search, "to_dict", None)
    if to_dict is None:
        return None
    return to_dict()


class _Shape:
    """One hardware shape of a fleet run, as its solves resolve it.

    ``builder`` is the shape's calibrated builder and ``key`` the part of
    every solve-memo key the shape fixes (:meth:`FleetAdvisor._shape_key`).
    ``tenants[t]`` is fleet tenant ``t`` materialized by the builder and
    ``rows[t]`` that workload's row in the inner advisor's cost cache; both
    stay ``None`` until a solve first needs them.
    """

    __slots__ = ("builder", "key", "tenants", "rows")

    def __init__(
        self, builder: ProblemBuilder, key: Tuple[Any, ...], n_tenants: int
    ) -> None:
        self.builder = builder
        self.key = key
        self.tenants: List[Optional[ConsolidatedWorkload]] = [None] * n_tenants
        self.rows: List[Optional[_Row]] = [None] * n_tenants


class SolveContext:
    """What one fleet run resolves once for :meth:`FleetAdvisor.solve_machine`.

    Within one fleet problem the calibration overrides, resources and
    memory knob are fixed, so a machine's hardware shape fixes its builder
    and the shape part of its solve-memo keys, and a tenant's spec fixes
    its consolidated workload on that shape and the workload's cost-cache
    row.  The context keeps each of them from its first use, so a run's
    fresh per-machine searches only build their design problems.  A
    :class:`_FleetSolver` holds one per run; a call without one gets a
    context of its own.

    Under the thread backend, concurrent solves may fill one slot at once.
    That is safe only because every racer writes the same object: the
    fleet advisor keeps one builder per shape, a builder hands out one
    consolidated workload per spec value, and the cost cache one row per
    workload (across a generational reset the old and the new row both
    answer correctly, and the next store swaps in the new one).
    """

    def __init__(self, fleet_advisor: "FleetAdvisor", problem: FleetProblem) -> None:
        self.fleet_advisor = fleet_advisor
        self.problem = problem
        self.specs = [tenant.spec for tenant in problem.tenants]
        self._by_machine: List[Optional[_Shape]] = [None] * problem.n_machines
        self._by_key: Dict[Tuple[Any, ...], _Shape] = {}

    def shape(self, machine_index: int) -> _Shape:
        """Machine ``machine_index``'s shape, shared with its identical twins."""
        shape = self._by_machine[machine_index]
        if shape is None:
            advisor, problem = self.fleet_advisor, self.problem
            machine = problem.machines[machine_index]
            key = advisor._shape_key(problem, machine)
            shape = self._by_key.get(key)
            if shape is None:
                builder = advisor._builder_for(machine, problem)
                shape = self._by_key[key] = _Shape(builder, key, problem.n_tenants)
            self._by_machine[machine_index] = shape
        return shape

    def design(
        self, shape: _Shape, ordered: Tuple[int, ...]
    ) -> VirtualizationDesignProblem:
        """The per-machine design problem of the sorted tenant set ``ordered``."""
        tenants = shape.tenants
        for index in ordered:
            if tenants[index] is None:
                tenants[index] = shape.builder.consolidated(self.specs[index])
        return VirtualizationDesignProblem(
            tenants=tuple(tenants[index] for index in ordered),
            resources=self.problem.resources,
            fixed_memory_fraction=self.problem.fixed_memory_fraction,
        )


class _FleetSolver:
    """Prices candidate co-locations for one fleet problem.

    This is the :class:`~repro.fleet.strategies.PlacementSolver` handed to
    placement strategies.  It searches per-machine design problems through
    :meth:`FleetAdvisor.solve_machine` (the shared
    :class:`~repro.api.Advisor` behind the solve-memo) and keeps the
    aggregated cost-call statistics of everything the run asked for.  A
    probe reads only the search's gain-weighted cost; a machine the
    placement commits to also gets its report
    (:meth:`FleetAdvisor.machine_report`).

    Independent solves fan out through the run's
    :class:`~repro.parallel.backends.SolverBackend` (:meth:`machine_costs`
    for placement probes, :meth:`solve_many` for committed machines);
    results are always reassembled in submission order, so every backend
    returns the serial answer.

    Placement probes are priced once per run: within one fleet problem the
    calibration, resources and memory knob are fixed, so a machine's
    hardware shape and its sorted tenant set determine the solve-memo key,
    and :attr:`_priced` keeps the cost of every set already asked about;
    :attr:`_fits` likewise keeps every capacity check's answer.  The run's
    :class:`SolveContext` resolves each hardware shape's builder and key
    part, and each tenant's workload and cost-cache row, once, so a fresh
    search costs only the greedy's arithmetic over cached costs.
    """

    def __init__(
        self,
        fleet_advisor: "FleetAdvisor",
        problem: FleetProblem,
        backend: SolverBackend,
    ) -> None:
        self.fleet_advisor = fleet_advisor
        self.problem = problem
        self.backend = backend
        self.stats = CostCallStats(evaluations=0, cache_hits=0, cache_misses=0)
        self._stats_lock = threading.Lock()
        self.context = SolveContext(fleet_advisor, problem)
        self._hardware_keys = [machine.hardware_key for machine in problem.machines]
        #: Gain-weighted cost (``+inf`` if infeasible) by (hardware shape,
        #: sorted tenant set): every probe this run has already priced.
        self._priced: Dict[Tuple[Any, Tuple[int, ...]], float] = {}
        #: :meth:`fits`'s answer by (machine, tenant tuple as asked).
        self._fits: Dict[Tuple[int, Tuple[int, ...]], bool] = {}
        # The bound must come from the enumerator that will actually divide
        # the machine: an instance-supplied enumerator may use a coarser
        # min_share than the advisor-level knob, and grid searches quantize
        # the minimum share upward (``effective_min_share``), capping a
        # machine below the nominal ``1 / min_share``.
        advisor = fleet_advisor.advisor
        enumerator = advisor.enumerator
        min_share = getattr(
            enumerator,
            "effective_min_share",
            getattr(enumerator, "min_share", getattr(advisor, "min_share", 0.05)),
        )
        #: A machine cannot host more tenants than fit the enumerator's
        #: minimum share (every VM must receive at least ``min_share``).
        self.max_tenants: Optional[int] = (
            int(math.floor(1.0 / min_share + 1e-9)) if min_share > 0 else None
        )

    # ------------------------------------------------------------------
    # PlacementSolver surface
    # ------------------------------------------------------------------
    def fits(self, machine_index: int, tenant_indices: Tuple[int, ...]) -> bool:
        """Capacity check, including the minimum-share tenant bound.

        Each (machine, tenant tuple) is checked once per run; the search
        strategies re-ask the same sets at many nodes.
        """
        key = (machine_index, tuple(tenant_indices))
        answer = self._fits.get(key)
        if answer is None:
            answer = self._fits[key] = self.problem.fits(
                machine_index, tenant_indices, self.max_tenants
            )
        return answer

    def machine_costs(
        self, candidates: Sequence[Tuple[int, Tuple[int, ...]]]
    ) -> List[float]:
        """Price several candidate co-locations, each new one once per run.

        ``candidates`` is a sequence of ``(machine_index, tenant_indices)``
        pairs; the returned costs align with it.  Candidates whose
        (hardware shape, tenant set) this run has not priced yet go to the
        backend as one batch of :meth:`_machine_cost` tasks, deduplicated;
        every candidate is then answered from the run's table, with the
        float the solve-memo would have returned, so answers (and
        tie-breaks downstream) are identical across backends.
        """
        PLACEMENT_PROBES.inc(len(candidates))
        keys = [
            (self._hardware_keys[machine_index], tuple(sorted(tenant_indices)))
            for machine_index, tenant_indices in candidates
        ]
        priced = self._priced
        fresh = {
            key: machine_index
            for key, (machine_index, _) in zip(keys, candidates)
            if key not in priced
        }
        if fresh:
            tasks = [
                SolveTask(call=functools.partial(self._machine_cost, machine_index, tenants))
                for (_, tenants), machine_index in fresh.items()
            ]
            priced.update(zip(fresh, self.backend.run(tasks)))
        return [priced[key] for key in keys]

    def _machine_cost(
        self, machine_index: int, tenant_indices: Tuple[int, ...]
    ) -> float:
        """Gain-weighted cost of a machine hosting ``tenant_indices``.

        Only the per-machine search runs: no report is assembled for a
        probe.  A co-location no allocation can make feasible (e.g. the
        combined degradation limits are unsatisfiable on this machine)
        prices as ``+inf`` so cost-aware strategies simply avoid it; only
        a machine the placement actually commits to may raise.
        """
        started = time.perf_counter()
        try:
            with self._span(machine_index, tenant_indices) as span:
                solved, stats = self.fleet_advisor.solve_machine(
                    self.problem, machine_index, tenant_indices, self.context
                )
                span.set_attribute("memo_hit", stats is _MEMO_HIT_STATS)
            self._add_stats(stats)
        except OptimizationError:
            return math.inf
        finally:
            PROBE_LATENCY.observe(time.perf_counter() - started)
        return solved.weighted_cost

    # ------------------------------------------------------------------
    # Per-machine solves
    # ------------------------------------------------------------------
    def solve(
        self, machine_index: int, tenant_indices: Tuple[int, ...]
    ) -> Tuple[RecommendationReport, float]:
        """Divide one machine the placement commits to among its tenants.

        Returns the per-machine report and its gain-weighted total cost.
        The search is served by the fleet advisor's solve-memo when this
        (hardware, tenant set) has been searched before — a probe of this
        run usually did — and the report is assembled from it unless the
        memo already holds one.  The cost-call statistics the call newly
        generated (a memo hit contributes ``placement_solve_hits``, a new
        report the traffic of assembling it) are folded into :attr:`stats`.
        """
        with self._span(machine_index, tenant_indices) as span:
            solved, stats = self.fleet_advisor.solve_machine(
                self.problem, machine_index, tenant_indices, self.context
            )
            report, assembly = self.fleet_advisor.machine_report(solved)
            span.set_attribute("memo_hit", stats is _MEMO_HIT_STATS)
        self._add_stats(stats + assembly)
        return report, solved.weighted_cost

    def solve_many(
        self, targets: Sequence[Tuple[int, Tuple[int, ...]]]
    ) -> List[Tuple[RecommendationReport, float]]:
        """Solve several machines' divisions, fanned out on the backend."""
        tasks = [
            SolveTask(call=functools.partial(self.solve, machine_index, tenant_indices))
            for machine_index, tenant_indices in targets
        ]
        return self.backend.run(tasks)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _span(self, machine_index: int, tenant_indices: Tuple[int, ...]) -> Any:
        """The leaf span one per-machine solve (probe or commit) runs under."""
        return get_tracer().span(
            "solve.machine",
            leaf=True,
            machine=self.problem.machines[machine_index].name,
            tenants=len(tenant_indices),
        )

    def _add_stats(self, stats: CostCallStats) -> None:
        with self._stats_lock:
            self.stats = self.stats + stats


class FleetAdvisor:
    """Places tenants across a fleet and configures every machine's VMs.

    Args:
        placement: a :class:`~repro.fleet.strategies.PlacementStrategy`
            instance or a name registered in
            :data:`~repro.fleet.strategies.PLACEMENTS` (``"greedy-cost"``,
            ``"round-robin"``, ``"first-fit"``).
        advisor: the per-machine :class:`~repro.api.Advisor` to delegate
            division to; built from ``advisor_options`` when omitted
            (e.g. ``FleetAdvisor(enumerator="exhaustive-dp", delta=0.1)``).
        backend: the solver-execution backend independent per-machine
            solves and placement probes fan out on — a name registered in
            :data:`~repro.parallel.backends.BACKENDS` or a
            :class:`~repro.parallel.backends.SolverBackend` instance.
            Every backend returns the serial answer (see
            :meth:`~repro.fleet.report.FleetReport.canonical_dict`).
        jobs: worker count for a backend given by name.
        advisor_options: keyword arguments for the inner advisor when one
            is not supplied.
    """

    def __init__(
        self,
        placement: PlacementSpec = "greedy-cost",
        advisor: Optional[Advisor] = None,
        backend: BackendSpec = "serial",
        jobs: Optional[int] = None,
        **advisor_options: Any,
    ) -> None:
        if advisor is not None and advisor_options:
            raise ConfigurationError(
                "pass either an Advisor instance or advisor keyword "
                "arguments, not both"
            )
        self.advisor = advisor if advisor is not None else Advisor(**advisor_options)
        self.backend = resolve_backend(backend, jobs)
        self.placement = placement  # property: resolves names, tracks provenance
        #: One calibrated builder per distinct hardware shape (+ overrides).
        #: Each builder memoizes its consolidated workloads by tenant-spec
        #: value, so re-materializing a tenant returns the same object.
        self._builders: Dict[_BuilderKey, ProblemBuilder] = {}
        #: Whole per-machine solve results — search + gain-weighted cost,
        #: plus the report once a placement commits to the machine — keyed
        #: by (hardware, tenant-set specs, resource knobs).  Where the cost
        #: cache saves re-*evaluating* allocations, this saves
        #: re-*searching*: a repeated placement probe or committed division
        #: is one dictionary lookup (it has its own lock; see
        #: :mod:`repro.fleet.solve_memo`).
        self.solve_memo = SolveMemo(DEFAULT_SOLVE_MEMO_SIZE)
        #: Guards the builder map.  Concurrent per-machine solves (thread
        #: backend) materialize problems through one fleet advisor; the lock
        #: keeps the check-then-create atomic so one hardware shape never
        #: gets two builders (and two calibrations).
        self._builders_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Strategy resolution
    # ------------------------------------------------------------------
    @property
    def placement(self) -> PlacementStrategy:
        """The resolved placement strategy (assignable by instance or name)."""
        return self._placement

    @placement.setter
    def placement(self, spec: PlacementSpec) -> None:
        self._placement_name = _placement_name(spec)
        self._placement = self._resolve_placement(spec)

    def _resolve_placement(self, spec: PlacementSpec) -> PlacementStrategy:
        if isinstance(spec, str):
            return PLACEMENTS.create(spec)
        if not callable(getattr(spec, "place", None)):
            raise ConfigurationError(
                f"placement must be a registered name or provide a "
                f"place(problem, solver) method; got {type(spec).__name__}"
            )
        return spec

    # ------------------------------------------------------------------
    # Calibrated infrastructure (shared across fleet problems)
    # ------------------------------------------------------------------
    def _builder_key(
        self, machine: Machine, problem: FleetProblem
    ) -> _BuilderKey:
        calibration = tuple(sorted((problem.calibration or {}).items()))
        return (machine.hardware_key, calibration)

    def _builder_for(self, machine: Machine, problem: FleetProblem) -> ProblemBuilder:
        """The calibrated builder for one hardware shape.

        Machines with equal capacity share one builder — and therefore one
        set of engine calibrations and one family of cost-cache keys — no
        matter how many of them the fleet contains.
        """
        key = self._builder_key(machine, problem)
        with self._builders_lock:
            builder = self._builders.get(key)
            if builder is None:
                physical = machine.physical()
                settings = (
                    CalibrationSettings(**problem.calibration)
                    if problem.calibration
                    else None
                )
                builder = ProblemBuilder(machine=physical, calibration_settings=settings)
                self._builders[key] = builder
            return builder

    def machine_problem(
        self,
        problem: FleetProblem,
        machine_index: int,
        tenant_indices: Tuple[int, ...],
    ) -> VirtualizationDesignProblem:
        """The per-machine design problem for a tenant set, tenants sorted.

        Built on every call from the hardware shape's builder, whose
        by-value memo hands out the same consolidated workloads for equal
        tenant specs, so the shared cost cache answers for every rebuild.
        The trace replayer uses this to materialize each period's
        per-machine problems.
        """
        context = SolveContext(self, problem)
        ordered = tuple(sorted(tenant_indices))
        return context.design(context.shape(machine_index), ordered)

    # ------------------------------------------------------------------
    # Memoized per-machine solves (the placement fast path)
    # ------------------------------------------------------------------
    def _shape_key(self, problem: FleetProblem, machine: Machine) -> Tuple[Any, ...]:
        """The part of a solve-memo key that a machine's shape fixes in a fleet.

        Hardware shape (+ calibration overrides) and resource knobs; a
        :class:`SolveContext` computes it once per shape and run.
        """
        return (
            self._builder_key(machine, problem),
            problem.resources,
            problem.fixed_memory_fraction,
        )

    @staticmethod
    def _set_key(
        shape_key: Tuple[Any, ...], specs: List[Any], ordered: Tuple[int, ...]
    ) -> Tuple[Any, ...]:
        """A solve-memo key from its shape part and the sorted tenant set."""
        return (shape_key, tuple([specs[index] for index in ordered]))

    def _solve_key(
        self, problem: FleetProblem, machine: Machine, ordered: Tuple[int, ...]
    ) -> Tuple[Any, ...]:
        """The solve-memo key: everything the machine's answer depends on.

        Hardware shape (+ calibration overrides), tenant-set spec values,
        resource knobs.  The memo belongs to this fleet advisor, whose
        inner advisor is fixed, so the advisor's configuration need not be
        part of the key.  Two machines sharing a ``hardware_key``, or two
        value-equal fleets, therefore share solve results exactly as they
        share cost-cache entries.
        """
        specs = [tenant.spec for tenant in problem.tenants]
        return self._set_key(self._shape_key(problem, machine), specs, ordered)

    def solve_machine(
        self,
        problem: FleetProblem,
        machine_index: int,
        tenant_indices: Tuple[int, ...],
        context: Optional[SolveContext] = None,
    ) -> Tuple[Solved, CostCallStats]:
        """Search one machine's division of a tenant set, via the solve-memo.

        Returns ``(entry, stats)``: the memo's :class:`Solved` entry (the
        inner advisor's :class:`~repro.api.advisor.Search` and its
        gain-weighted cost, plus the report if a placement has committed
        to this division before) and the cost-call accounting this call
        *newly* generated: the search's statistics on a miss, a single
        ``placement_solve_hits`` on a hit.  Infeasible tenant sets are
        memoized too — a repeat ask raises an equivalent
        :class:`~repro.exceptions.OptimizationError` without re-running
        the search.  :meth:`machine_report` turns an entry into a report.

        ``context`` is the run's :class:`SolveContext` for ``problem``; a
        fleet run passes its own, so every probe reuses what earlier ones
        resolved.
        """
        if context is None:
            context = SolveContext(self, problem)
        ordered = tuple(sorted(tenant_indices))
        shape = context.shape(machine_index)
        key = self._set_key(shape.key, context.specs, ordered)
        cached = self.solve_memo.get(key)
        if isinstance(cached, Infeasible):
            raise OptimizationError(cached.message)
        if cached is not None:
            return cached, _MEMO_HIT_STATS
        design = context.design(shape, ordered)
        rows = [shape.rows[index] for index in ordered]
        try:
            search = self.advisor.search(design, rows)
        except OptimizationError as error:
            self.solve_memo.put(key, Infeasible(str(error)))
            raise
        for index, row in zip(ordered, rows):
            shape.rows[index] = row
        weighted = sum(
            tenant.gain_factor * cost
            for tenant, cost in zip(design.tenants, search.result.per_workload_costs)
        )
        solved = Solved(search, weighted)
        self.solve_memo.put(key, solved)
        return solved, search.cost_stats

    def machine_report(self, solved: Solved) -> Tuple[RecommendationReport, CostCallStats]:
        """The per-machine report of a :meth:`solve_machine` entry.

        Assembled from the entry's search on the first ask and kept in the
        entry, so a warm repeat of a committed machine is a pure memo hit.
        Returns ``(report, stats)`` with the cost-call accounting of the
        assembly (nothing when the entry already held the report).
        """
        if solved.report is not None:
            return solved.report, _NO_STATS
        report = self.advisor.report(solved.search)
        solved.report = report
        return report, report.cost_stats - solved.search.cost_stats

    def clear_caches(self) -> None:
        """Drop the calibrated builders, the solve-memo, and the cost caches."""
        with self._builders_lock:
            self._builders.clear()
        self.solve_memo.clear()
        self.advisor.clear_caches()

    # ------------------------------------------------------------------
    # Fleet recommendation
    # ------------------------------------------------------------------
    def recommend(
        self,
        problem: FleetProblem,
        placement: Optional[PlacementSpec] = None,
    ) -> FleetReport:
        """Place every tenant and configure every machine of the fleet.

        ``placement`` overrides the advisor-level strategy for this call
        only (e.g. ``recommend(problem, placement="round-robin")`` for a
        baseline comparison over the same calibrations and caches).  The
        solves fan out on the advisor's backend; whatever the backend, the
        report's *answer* is bit-identical to the serial one
        (``canonical_dict()``); only wall-clock time and cache-traffic
        accounting may differ.
        """
        started = time.perf_counter()
        solver = _FleetSolver(self, problem, self.backend)
        if placement is None:
            strategy, strategy_name = self._placement, self._placement_name
        else:
            strategy = self._resolve_placement(placement)
            strategy_name = _placement_name(placement)
        memo_hits_before = self.solve_memo.hits
        with get_tracer().span(
            "fleet.recommend",
            fleet=problem.name,
            tenants=problem.n_tenants,
            machines=problem.n_machines,
            strategy=strategy_name,
            backend=getattr(self.backend, "name", type(self.backend).__name__),
            jobs=self.backend.jobs,
        ) as root:
            with get_tracer().span("placement.place", strategy=strategy_name):
                assignment = strategy.place(problem, solver)
            placed = Placement(problem, assignment, strategy=strategy_name)
            report = self._finalize(
                problem,
                solver,
                placed,
                strategy_name,
                started,
                provenance=_placement_provenance(strategy),
            )
            root.set_attributes(
                evaluations=solver.stats.evaluations,
                cache_hits_delta=solver.stats.cache_hits,
                memo_hits_delta=self.solve_memo.hits - memo_hits_before,
                total_weighted_cost=report.total_weighted_cost,
            )
        return report

    def recommend_incremental(
        self,
        problem: FleetProblem,
        previous: Union[FleetReport, Placement, Mapping[str, str]],
        moved: Optional[Iterable[str]] = None,
    ) -> FleetReport:
        """Re-place only the changed tenants of an already-placed fleet.

        ``previous`` is the placement in force (a :class:`FleetReport`, a
        :class:`~repro.fleet.problem.Placement`, or a plain tenant-name →
        machine-name mapping).  Tenants named in ``moved`` — plus any
        tenant of ``problem`` the previous placement does not cover — are
        pulled off their machines and greedily re-placed where the marginal
        gain-weighted cost increase is smallest; everybody else stays put.

        Because per-machine solves are memoized by value and every solve
        runs through the shared cost cache, machines whose tenant set and
        workloads did not change are re-priced entirely from the caches:
        only the moved tenants (and the machines they leave or join) cost
        new evaluations, which is what makes trace-driven re-placement
        cheap to run every monitoring period.  The solves fan out on the
        advisor's backend, as in :meth:`recommend`.
        """
        started = time.perf_counter()
        moved = tuple(moved) if moved is not None else None
        solver = _FleetSolver(self, problem, self.backend)
        with get_tracer().span(
            "fleet.recommend_incremental",
            fleet=problem.name,
            tenants=problem.n_tenants,
            machines=problem.n_machines,
            backend=getattr(self.backend, "name", type(self.backend).__name__),
            jobs=self.backend.jobs,
            moved=len(moved) if moved is not None else 0,
        ):
            return self._recommend_incremental(
                problem, previous, moved, solver, started
            )

    def _recommend_incremental(
        self,
        problem: FleetProblem,
        previous: Union[FleetReport, Placement, Mapping[str, str]],
        moved: Optional[Iterable[str]],
        solver: _FleetSolver,
        started: float,
    ) -> FleetReport:
        if isinstance(previous, FleetReport):
            mapping: Mapping[str, str] = previous.placement
        elif isinstance(previous, Placement):
            mapping = previous.as_mapping()
        else:
            mapping = dict(previous)
        machine_index_of = {
            machine.name: index for index, machine in enumerate(problem.machines)
        }
        names = problem.tenant_names()
        moved_set = set(moved) if moved is not None else set()
        unknown = moved_set - set(names)
        if unknown:
            raise ConfigurationError(
                f"moved tenant(s) not in the fleet problem: "
                f"{', '.join(map(repr, sorted(unknown)))}"
            )
        moved_set |= {name for name in names if name not in mapping}

        assignment: List[Optional[int]] = [None] * problem.n_tenants
        loads: List[List[int]] = [[] for _ in problem.machines]
        for tenant_index, name in enumerate(names):
            if name in moved_set:
                continue
            machine_name = mapping[name]
            if machine_name not in machine_index_of:
                raise ConfigurationError(
                    f"previous placement assigns tenant {name!r} to unknown "
                    f"machine {machine_name!r}"
                )
            machine_index = machine_index_of[machine_name]
            assignment[tenant_index] = machine_index
            loads[machine_index].append(tenant_index)
        for machine_index, pinned in enumerate(loads):
            if pinned and not solver.fits(machine_index, tuple(pinned)):
                machine = problem.machines[machine_index]
                kept = [problem.tenants[index].name for index in pinned]
                raise PlacementError(
                    f"machine {machine.name!r} cannot keep hosting "
                    f"{', '.join(map(repr, kept))}: capacity exceeded; "
                    f"add the overflowing tenants to 'moved'"
                )
        occupied = [
            (machine_index, tuple(pinned))
            for machine_index, pinned in enumerate(loads)
            if pinned
        ]
        occupied_costs = dict(
            zip((index for index, _ in occupied), solver.machine_costs(occupied))
        )
        current_cost = [
            occupied_costs.get(machine_index, 0.0)
            for machine_index in range(problem.n_machines)
        ]
        order = sorted(
            (index for index, slot in enumerate(assignment) if slot is None),
            key=lambda index: (-problem.tenants[index].gain_factor, index),
        )
        final = greedy_assign(problem, solver, order, assignment, loads, current_cost)
        placed = Placement(problem, final, strategy="incremental")
        return self._finalize(problem, solver, placed, "incremental", started)

    def _finalize(
        self,
        problem: FleetProblem,
        solver: _FleetSolver,
        placed: Placement,
        strategy_name: str,
        started: float,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> FleetReport:
        """Solve every machine of a committed placement and assemble the report.

        The committed per-machine solves are independent, so they fan out
        on the run's backend; machine reports are reassembled in machine
        order, keeping the report layout identical across backends.
        """
        occupied = [
            (machine_index, placed.tenants_on(machine_index))
            for machine_index in range(problem.n_machines)
            if placed.tenants_on(machine_index)
        ]
        with get_tracer().span("fleet.finalize", machines=len(occupied)):
            solved = dict(
                zip(
                    (index for index, _ in occupied),
                    solver.solve_many(occupied),
                )
            )

        machine_reports: List[MachineReport] = []
        total_cost = 0.0
        total_weighted = 0.0
        for machine_index, machine in enumerate(problem.machines):
            if machine_index not in solved:
                machine_reports.append(
                    MachineReport(
                        machine=machine, tenants=(), report=None, weighted_cost=0.0
                    )
                )
                continue
            report, weighted = solved[machine_index]
            tenant_indices = placed.tenants_on(machine_index)
            names = tuple(problem.tenants[index].name for index in tenant_indices)
            machine_reports.append(
                MachineReport(
                    machine=machine,
                    tenants=names,
                    report=report,
                    weighted_cost=weighted,
                )
            )
            total_cost += report.total_cost
            total_weighted += weighted

        return FleetReport(
            fleet_name=problem.name,
            strategy=strategy_name,
            placement=placed.as_mapping(),
            machines=tuple(machine_reports),
            total_cost=total_cost,
            total_weighted_cost=total_weighted,
            cost_stats=solver.stats,
            wall_time_seconds=time.perf_counter() - started,
            backend=getattr(solver.backend, "name", type(solver.backend).__name__),
            jobs=solver.backend.jobs,
            placement_provenance=provenance,
        )
