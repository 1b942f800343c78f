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

import math
import threading
import time
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..api.advisor import Advisor
from ..api.builder import ProblemBuilder
from ..api.report import CostCallStats, RecommendationReport
from ..calibration import CalibrationSettings
from ..core.problem import VirtualizationDesignProblem
from ..exceptions import ConfigurationError, OptimizationError, PlacementError
from ..parallel.backends import BackendSpec, SolveTask, SolverBackend, resolve_backend
from ..telemetry.instruments import PLACEMENT_PROBES, PROBE_LATENCY
from ..telemetry.trace import get_tracer
from .problem import FleetProblem, Machine, Placement
from .report import FleetReport, MachineReport
from .solve_memo import DEFAULT_SOLVE_MEMO_SIZE, Infeasible, SolveMemo
from .strategies import PLACEMENTS, PlacementStrategy, greedy_assign

#: Hardware shape plus calibration overrides: the unit of calibration reuse.
_BuilderKey = Tuple[Tuple[float, float, int], Tuple[Tuple[str, Any], ...]]

PlacementSpec = Union[str, PlacementStrategy]

#: The accounting a memo-served solve contributes: no evaluations, no
#: cache traffic — one whole enumerator search skipped.
_MEMO_HIT_STATS = CostCallStats(
    evaluations=0, cache_hits=0, cache_misses=0, placement_solve_hits=1
)


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


class _FleetSolver:
    """Prices candidate co-locations for one fleet problem.

    This is the :class:`~repro.fleet.strategies.PlacementSolver` handed to
    placement strategies.  It solves per-machine design problems through
    :meth:`FleetAdvisor.solve_machine` (the shared
    :class:`~repro.api.Advisor` behind the solve-memo) and keeps the
    aggregated cost-call statistics of everything the run asked for.

    Independent solves fan out through the run's
    :class:`~repro.parallel.backends.SolverBackend` (:meth:`machine_costs`
    for placement probes, :meth:`solve_many` for committed machines);
    results are always reassembled in submission order, so every backend
    returns the serial answer.

    Placement probes are priced once per run: within one fleet problem the
    calibration, resources and memory knob are fixed, so a machine's
    hardware shape and its sorted tenant set determine the solve-memo key,
    and :attr:`_priced` keeps the cost of every set already asked about.
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
        self._hardware_keys = [machine.hardware_key for machine in problem.machines]
        #: Gain-weighted cost (``+inf`` if infeasible) by (hardware shape,
        #: sorted tenant set): every probe this run has already priced.
        self._priced: Dict[Tuple[Any, Tuple[int, ...]], float] = {}
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
        """Capacity check, including the minimum-share tenant bound."""
        return self.problem.fits(machine_index, tenant_indices, self.max_tenants)

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
                self._task(machine_index, tenants, probe=True)
                for (_, tenants), machine_index in fresh.items()
            ]
            priced.update(zip(fresh, self.backend.run(tasks)))
        return [priced[key] for key in keys]

    def _machine_cost(
        self, machine_index: int, tenant_indices: Tuple[int, ...]
    ) -> float:
        """Gain-weighted cost of a machine hosting ``tenant_indices``.

        A co-location no allocation can make feasible (e.g. the combined
        degradation limits are unsatisfiable on this machine) prices as
        ``+inf`` so cost-aware strategies simply avoid it; only a machine
        the placement actually commits to may raise.
        """
        started = time.perf_counter()
        try:
            report, weighted = self.solve(machine_index, tenant_indices)
        except OptimizationError:
            return math.inf
        finally:
            PROBE_LATENCY.observe(time.perf_counter() - started)
        return weighted

    # ------------------------------------------------------------------
    # Per-machine solves
    # ------------------------------------------------------------------
    def solve(
        self, machine_index: int, tenant_indices: Tuple[int, ...]
    ) -> Tuple[RecommendationReport, float]:
        """Divide one machine among a tenant set with the inner advisor.

        Returns the per-machine report and its gain-weighted total cost.
        The solve itself is served by the fleet advisor's solve-memo when
        this (hardware, tenant set) has been solved before; the cost-call
        statistics the call newly generated — a memo hit contributes only
        ``placement_solve_hits`` — are folded into :attr:`stats`.
        """
        with get_tracer().span(
            "solve.machine",
            leaf=True,
            machine=self.problem.machines[machine_index].name,
            tenants=len(tenant_indices),
        ) as span:
            report, weighted, stats = self.fleet_advisor.solve_machine(
                self.problem, machine_index, tenant_indices
            )
            span.set_attribute("memo_hit", stats is _MEMO_HIT_STATS)
        self._add_stats(stats)
        return report, weighted

    def solve_many(
        self, targets: Sequence[Tuple[int, Tuple[int, ...]]]
    ) -> List[Tuple[RecommendationReport, float]]:
        """Solve several machines' divisions, fanned out on the backend."""
        tasks = [
            self._task(machine_index, tenant_indices, probe=False)
            for machine_index, tenant_indices in targets
        ]
        return self.backend.run(tasks)

    # ------------------------------------------------------------------
    # Backend plumbing
    # ------------------------------------------------------------------
    def _add_stats(self, stats: CostCallStats) -> None:
        with self._stats_lock:
            self.stats = self.stats + stats

    def _task(
        self, machine_index: int, tenant_indices: Tuple[int, ...], probe: bool
    ) -> SolveTask:
        """One probe (a cost) or committed solve (report and cost) as a task."""
        method = self._machine_cost if probe else self.solve
        return SolveTask(call=lambda: method(machine_index, tenant_indices))


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
        #: Whole per-machine solve results — report + gain-weighted cost —
        #: keyed by (hardware, tenant-set specs, resource knobs).  Where the
        #: cost cache saves re-*evaluating* allocations, this saves
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
        machine = problem.machines[machine_index]
        builder = self._builder_for(machine, problem)
        return VirtualizationDesignProblem(
            tenants=tuple(
                builder.consolidated(problem.tenants[index].spec)
                for index in sorted(tenant_indices)
            ),
            resources=problem.resources,
            fixed_memory_fraction=problem.fixed_memory_fraction,
        )

    # ------------------------------------------------------------------
    # Memoized per-machine solves (the placement fast path)
    # ------------------------------------------------------------------
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
        specs = tuple(problem.tenants[index].spec for index in ordered)
        return (
            self._builder_key(machine, problem),
            specs,
            problem.resources,
            problem.fixed_memory_fraction,
        )

    def solve_machine(
        self,
        problem: FleetProblem,
        machine_index: int,
        tenant_indices: Tuple[int, ...],
    ) -> Tuple[RecommendationReport, float, CostCallStats]:
        """Divide one machine among a tenant set, served from the solve-memo.

        Returns ``(report, gain-weighted cost, stats)`` where ``stats`` is
        the cost-call accounting this call *newly* generated: the full
        solve's statistics on a miss, a single ``placement_solve_hits`` on
        a hit.  Infeasible tenant sets are memoized too — a repeat ask
        raises an equivalent :class:`~repro.exceptions.OptimizationError`
        without re-running the search.
        """
        ordered = tuple(sorted(tenant_indices))
        machine = problem.machines[machine_index]
        key = self._solve_key(problem, machine, ordered)
        cached = self.solve_memo.get(key)
        if isinstance(cached, Infeasible):
            raise OptimizationError(cached.message)
        if cached is not None:
            report, weighted = cached
            return report, weighted, _MEMO_HIT_STATS
        design = self.machine_problem(problem, machine_index, ordered)
        try:
            report = self.advisor.recommend(design)
        except OptimizationError as error:
            self.solve_memo.put(key, Infeasible(str(error)))
            raise
        weighted = sum(
            tenant.gain_factor * cost
            for tenant, cost in zip(design.tenants, report.per_workload_costs)
        )
        self.solve_memo.put(key, (report, weighted))
        return report, weighted, report.cost_stats

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
