"""Pluggable tenant-placement strategies for the fleet advisor.

Placement decides *which machine* hosts each tenant; the per-machine
resource split is always delegated to :class:`repro.api.Advisor`.  The
strategies live behind the same open :class:`~repro.api.strategies.StrategyRegistry`
pattern as the enumerator / cost-function / refinement registries, so
downstream code can register its own placement policy and select it by
name on :class:`~repro.fleet.advisor.FleetAdvisor`:

* ``"round-robin"`` — cycle tenants across machines in order, skipping
  machines that are out of capacity.  ``O(N·M)``; the fairness baseline
  the paper-style evaluation compares against.
* ``"first-fit"`` — classic bin-packing baseline: each tenant goes to the
  first machine (in machine order) with room.  ``O(N·M)``; packs tightly
  but ignores cost.
* ``"greedy-cost"`` — for each tenant, tentatively co-locate it with every
  machine's current tenants, re-solve that machine's division with the
  per-machine advisor, and commit to the machine whose *marginal*
  gain-weighted cost increase is smallest.  ``O(N·M)`` advisor solves —
  but each solve builds its per-tenant cost tables through the batched
  :meth:`~repro.core.cost_estimator.CostFunction.cost_many` path against
  the fleet's shared :class:`~repro.api.cache.CostCache`, so the optimizer
  work for one (tenant, machine-shape) pair is paid once across all
  probes, machines of the same hardware, and repeated recommendations.

A strategy only needs ``place(problem, solver)``; the ``solver`` (a
:class:`PlacementSolver`) answers capacity questions and prices candidate
co-locations, keeping strategies free of calibration and advisor plumbing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Protocol, Sequence, Tuple, Union, runtime_checkable

from ..api.strategies import StrategyRegistry
from ..exceptions import ConfigurationError, PlacementError
from ..telemetry.trace import get_tracer
from .problem import FleetProblem


@runtime_checkable
class PlacementSolver(Protocol):
    """What a placement strategy may ask of the fleet advisor.

    Implemented by the fleet advisor's internal solver; exposed as a
    protocol so placement strategies (including user-registered ones)
    depend only on this narrow surface.
    """

    def fits(self, machine_index: int, tenant_indices: Tuple[int, ...]) -> bool:
        """Whether the machine can host the tenant set (capacity + shares)."""
        ...

    def machine_costs(
        self, candidates: "Sequence[Tuple[int, Tuple[int, ...]]]"
    ) -> List[float]:
        """Gain-weighted cost of each candidate ``(machine, tenant set)``.

        A candidate's cost is its machine's objective after the advisor
        divides it (``+inf`` when no allocation is feasible).  The fleet
        advisor's solver prices each (hardware shape, tenant set) once per
        run: the batch's new sets fan out on the run's solver-execution
        backend, and repeats are answered from the run's cost table.
        Results align with ``candidates``.
        """
        ...


@runtime_checkable
class PlacementStrategy(Protocol):
    """Assigns every tenant of a fleet problem to a machine."""

    def place(self, problem: FleetProblem, solver: PlacementSolver) -> Tuple[int, ...]:
        """Return the machine index chosen for each tenant (tenant order)."""
        ...


#: Registry of placement strategies (``placement=`` on the FleetAdvisor).
PLACEMENTS = StrategyRegistry("placement")


@dataclass(frozen=True)
class PlacementRunStats:
    """Minimal search accounting for the heuristic placement strategies.

    The greedy family's counterpart to the exact solver's
    ``BnbSearchStats``: strategies store one on ``last_search`` after
    every ``place()`` call, and the fleet advisor surfaces its
    ``to_dict()`` as the report's ``placement_provenance`` — so traces
    and reports agree on what ran, whichever strategy placed the fleet.

    ``probes`` counts candidate co-locations the strategy asked the
    solver to price.
    """

    strategy: str
    probes: int
    wall_time_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "probes": self.probes,
            "wall_time_seconds": self.wall_time_seconds,
        }


def _unplaceable(
    problem: FleetProblem, tenant_index: int, qos_blocked: bool = False
) -> PlacementError:
    """A uniform error for a tenant no machine can currently host.

    ``qos_blocked`` distinguishes the two failure modes a cost-aware
    strategy can hit: every machine out of capacity, versus machines with
    room whose co-locations no allocation can make feasible (degradation
    limits) — so the error points the operator at the actual blocker.
    """
    tenant = problem.tenants[tenant_index]
    if qos_blocked:
        return PlacementError(
            f"no machine can feasibly host tenant {tenant.name!r}: machines "
            f"with spare capacity exist, but every candidate co-location "
            f"violates the tenants' degradation limits"
        )
    return PlacementError(
        f"no machine can host tenant {tenant.name!r} "
        f"(cpu_demand={tenant.cpu_demand:g}, "
        f"memory_demand_mb={tenant.memory_demand_mb:g}) "
        f"given the tenants already placed"
    )


def _place_in_machine_order(
    problem: FleetProblem, solver: PlacementSolver, start_of
) -> Tuple[int, ...]:
    """Place each tenant on the first fitting machine from a start index.

    Shared body of the two cost-blind baselines; ``start_of(tenant_index)``
    chooses where the scan begins (always 0 for first-fit, rotating for
    round-robin).
    """
    loads: List[List[int]] = [[] for _ in problem.machines]
    assignment: List[int] = []
    for tenant_index in range(problem.n_tenants):
        start = start_of(tenant_index)
        for offset in range(problem.n_machines):
            machine_index = (start + offset) % problem.n_machines
            candidate = tuple(loads[machine_index] + [tenant_index])
            if solver.fits(machine_index, candidate):
                loads[machine_index].append(tenant_index)
                assignment.append(machine_index)
                break
        else:
            raise _unplaceable(problem, tenant_index)
    return tuple(assignment)


class RoundRobinPlacement:
    """Cycle tenants across machines in order, skipping full machines.

    The fairness baseline: ignores cost entirely and spreads tenants as
    evenly as the capacities allow, the way a naive load balancer would.
    """

    name = "round-robin"

    def place(self, problem: FleetProblem, solver: PlacementSolver) -> Tuple[int, ...]:
        """Assign tenant ``i`` to machine ``i mod M`` (next fit with room)."""
        return _place_in_machine_order(
            problem, solver, lambda tenant_index: tenant_index % problem.n_machines
        )


class FirstFitPlacement:
    """Place each tenant on the first machine (machine order) with room.

    The classic bin-packing baseline: packs machines tightly in order,
    which minimizes machines used but concentrates load (and therefore
    cost) on the low-index machines.
    """

    name = "first-fit"

    def place(self, problem: FleetProblem, solver: PlacementSolver) -> Tuple[int, ...]:
        """Assign each tenant to the lowest-index machine that fits it."""
        return _place_in_machine_order(problem, solver, lambda tenant_index: 0)


def greedy_assign(
    problem: FleetProblem,
    solver: PlacementSolver,
    order: List[int],
    assignment: List[Optional[int]],
    loads: List[List[int]],
    current_cost: List[float],
    run_stats: Optional[Dict[str, Any]] = None,
) -> Tuple[int, ...]:
    """Greedily commit each tenant in ``order`` to its cheapest machine.

    The shared body of :class:`GreedyCostPlacement` and the fleet
    advisor's incremental re-placement: ``assignment`` / ``loads`` /
    ``current_cost`` may already contain committed (pinned) tenants, and
    every tenant in ``order`` is assigned to the machine whose *marginal*
    gain-weighted cost increase is smallest (ties break toward the
    lower-index machine).  All three state arguments are mutated in place;
    the completed assignment is returned.
    """
    probes = 0
    # One leaf span wraps the whole assignment loop: probe rounds are far
    # too hot for per-probe spans, so commits are recorded as events.
    with get_tracer().span("greedy.assign", leaf=True, tenants=len(order)) as span:
        for tenant_index in order:
            # The candidate machines of one tenant are priced as a batch: on
            # a parallel solver backend the probes fan out, and because costs
            # come back aligned with the (ascending-machine-index) candidate
            # list, the selection below — including the 1e-12 tie-break
            # toward the lower-index machine — is identical to the serial
            # loop's.
            fitting: List[Tuple[int, Tuple[int, ...]]] = []
            for machine_index in range(problem.n_machines):
                candidate = tuple(loads[machine_index] + [tenant_index])
                if solver.fits(machine_index, candidate):
                    fitting.append((machine_index, candidate))
            costs = solver.machine_costs(fitting)
            probes += len(fitting)
            best_machine: Optional[int] = None
            best_increase = float("inf")
            best_cost = 0.0
            for (machine_index, _candidate), cost in zip(fitting, costs):
                increase = cost - current_cost[machine_index]
                if increase < best_increase - 1e-12:
                    best_machine = machine_index
                    best_increase = increase
                    best_cost = cost
            if best_machine is None:
                raise _unplaceable(problem, tenant_index, qos_blocked=bool(fitting))
            loads[best_machine].append(tenant_index)
            current_cost[best_machine] = best_cost
            assignment[tenant_index] = best_machine
            span.event("commit", tenant=tenant_index, machine=best_machine)
        span.set_attribute("probes", probes)
    if run_stats is not None:
        run_stats["probes"] = run_stats.get("probes", 0) + probes
    return tuple(assignment)  # type: ignore[arg-type]


class GreedyCostPlacement:
    """Place each tenant where the marginal weighted-cost increase is least.

    For tenant ``t`` and every machine ``m`` with room, the strategy prices
    the co-location by asking the per-machine advisor to re-divide ``m``
    with ``t`` added — ``Δ(m, t) = cost(m, S_m ∪ {t}) − cost(m, S_m)`` where
    costs are the gain-weighted objective ``Σᵢ Gᵢ·Costᵢ`` — and commits
    ``t`` to the machine minimizing ``Δ``.  Ties break toward the
    lower-index machine, so the result is deterministic.

    Tenants are considered in descending gain factor (then problem order):
    heavyweight tenants choose machines while the fleet is still empty,
    which is the standard decreasing-first heuristic from bin packing
    transplanted to a cost objective.
    """

    name = "greedy-cost"

    def __init__(self, sort_by_gain: bool = True) -> None:
        self.sort_by_gain = sort_by_gain
        #: Accounting for the most recent ``place()`` call, surfaced by the
        #: fleet advisor as the report's ``placement_provenance``.
        self.last_search: Optional[PlacementRunStats] = None

    def place(self, problem: FleetProblem, solver: PlacementSolver) -> Tuple[int, ...]:
        """Greedily commit each tenant to its cheapest feasible machine."""
        order = list(range(problem.n_tenants))
        if self.sort_by_gain:
            order.sort(key=lambda index: (-problem.tenants[index].gain_factor, index))
        run_stats: Dict[str, Any] = {}
        started = time.perf_counter()
        try:
            return greedy_assign(
                problem,
                solver,
                order,
                assignment=[None] * problem.n_tenants,
                loads=[[] for _ in problem.machines],
                current_cost=[0.0 for _ in problem.machines],
                run_stats=run_stats,
            )
        finally:
            self.last_search = PlacementRunStats(
                strategy=self.name,
                probes=run_stats.get("probes", 0),
                wall_time_seconds=time.perf_counter() - started,
            )


def improve_assignment(
    problem: FleetProblem,
    solver: PlacementSolver,
    assignment: Sequence[int],
    max_rounds: int = 12,
    run_stats: Optional[Dict[str, Any]] = None,
) -> Tuple[int, ...]:
    """Local search over an assignment: moves and swaps to a fixed point.

    Steepest-descent rounds over the two classic neighborhoods — move one
    tenant to another machine, swap two tenants between machines — applied
    while any candidate strictly lowers the fleet's total gain-weighted
    cost (by more than ``1e-9``, so the result is never costlier than the
    input).  Each round prices every distinct (machine, tenant set) it
    needs in one batch; against the fleet advisor's solve-memo most of
    those are repeat sets from the greedy construction or earlier rounds,
    so iterations are nearly free.  Deterministic: candidates are
    enumerated in a fixed order and a strictly-better delta is required to
    displace the incumbent, so ties keep the earliest candidate.
    """
    # One leaf span for the whole search; per-round progress is recorded
    # as events (rounds re-price mostly-memoized sets, far too hot for
    # per-candidate spans).
    span = get_tracer().span(
        "placement.improve",
        leaf=True,
        tenants=problem.n_tenants,
        max_rounds=max_rounds,
    )
    span.__enter__()
    try:
        return _improve_assignment_body(
            problem, solver, assignment, max_rounds, span, run_stats
        )
    finally:
        span.__exit__(None, None, None)


def _improve_assignment_body(
    problem: FleetProblem,
    solver: PlacementSolver,
    assignment: Sequence[int],
    max_rounds: int,
    span: Any,
    run_stats: Optional[Dict[str, Any]],
) -> Tuple[int, ...]:
    probes = 0
    rounds = 0
    assignment = list(assignment)
    loads: List[List[int]] = [[] for _ in problem.machines]
    for tenant_index, machine_index in enumerate(assignment):
        loads[machine_index].append(tenant_index)
    for load in loads:
        load.sort()

    occupied = [
        (machine_index, tuple(load))
        for machine_index, load in enumerate(loads)
        if load
    ]
    current: Dict[int, float] = dict(
        zip(
            (machine_index for machine_index, _ in occupied),
            solver.machine_costs(occupied),
        )
    )
    probes += len(occupied)

    def machine_cost_now(machine_index: int) -> float:
        return current.get(machine_index, 0.0)

    for _ in range(max_rounds):
        # Enumerate the neighborhood, collecting every distinct tenant set
        # that needs a price.  A candidate is (the two machines it touches,
        # their new tenant sets); removal sets always fit (capacity checks
        # are monotone), additions are checked.
        moves: List[Tuple[Any, ...]] = []
        needed: List[Tuple[int, Tuple[int, ...]]] = []
        seen = set()

        def need(machine_index: int, tenant_set: Tuple[int, ...]) -> None:
            key = (machine_index, tenant_set)
            if tenant_set and key not in seen:
                seen.add(key)
                needed.append(key)

        for tenant_index in range(problem.n_tenants):
            source = assignment[tenant_index]
            rest = tuple(i for i in loads[source] if i != tenant_index)
            for target in range(problem.n_machines):
                if target == source:
                    continue
                joined = tuple(sorted(loads[target] + [tenant_index]))
                if not solver.fits(target, joined):
                    continue
                moves.append(("move", tenant_index, source, target, rest, joined))
                need(source, rest)
                need(target, joined)
        for tenant_index, other_index in itertools.combinations(
            range(problem.n_tenants), 2
        ):
            source = assignment[tenant_index]
            target = assignment[other_index]
            if source == target:
                continue
            new_source = tuple(
                sorted([i for i in loads[source] if i != tenant_index] + [other_index])
            )
            new_target = tuple(
                sorted([i for i in loads[target] if i != other_index] + [tenant_index])
            )
            if not (solver.fits(source, new_source) and solver.fits(target, new_target)):
                continue
            moves.append(
                (
                    "swap",
                    (tenant_index, other_index),
                    source,
                    target,
                    new_source,
                    new_target,
                )
            )
            need(source, new_source)
            need(target, new_target)

        if not moves:
            break
        priced = dict(zip(needed, solver.machine_costs(needed)))
        probes += len(needed)
        rounds += 1
        span.event("round", candidates=len(moves), priced=len(needed))

        def cost_of(machine_index: int, tenant_set: Tuple[int, ...]) -> float:
            return priced[(machine_index, tenant_set)] if tenant_set else 0.0

        best: Optional[Tuple[Any, ...]] = None
        best_delta = -1e-9
        for move in moves:
            _kind, _tenant, source, target, new_source, new_target = move
            delta = (
                cost_of(source, new_source)
                + cost_of(target, new_target)
                - machine_cost_now(source)
                - machine_cost_now(target)
            )
            if delta < best_delta - 1e-12:
                best = move
                best_delta = delta
        if best is None:
            break

        kind, who, source, target, new_source, new_target = best
        loads[source] = list(new_source)
        loads[target] = list(new_target)
        for machine_index, tenant_set in ((source, new_source), (target, new_target)):
            if tenant_set:
                current[machine_index] = priced[(machine_index, tenant_set)]
            else:
                current.pop(machine_index, None)
        if kind == "move":
            assignment[who] = target
        else:  # swap: `who` is the (source-side, target-side) tenant pair
            source_tenant, target_tenant = who
            assignment[source_tenant] = target
            assignment[target_tenant] = source
    span.set_attributes(probes=probes, rounds=rounds)
    if run_stats is not None:
        run_stats["probes"] = run_stats.get("probes", 0) + probes
    return tuple(assignment)


class LocalSearchPlacement:
    """Greedy-cost placement plus a nearly-free local-search improver.

    Runs :class:`GreedyCostPlacement` and then
    :func:`improve_assignment`: single-tenant moves and pairwise swaps,
    iterated to a fixed point or the ``max_rounds`` budget.  Because every
    candidate re-prices only the two machines it touches — and those
    tenant sets are mostly ones the greedy construction (or an earlier
    round) already solved — the improvement rounds run almost entirely
    from the fleet advisor's solve-memo.  The result is never costlier
    than plain greedy-cost (only strictly-improving candidates are
    applied), and it closes a measured share of the greedy-vs-exact gap
    (see ``benchmarks/test_fleet_placement.py``).
    """

    name = "greedy-cost+ls"

    def __init__(
        self,
        max_rounds: int = 12,
        sort_by_gain: bool = True,
        base: Optional[PlacementStrategy] = None,
    ) -> None:
        if max_rounds < 0:
            raise ConfigurationError(
                f"max_rounds must be >= 0, got {max_rounds}"
            )
        self.max_rounds = max_rounds
        self.base = (
            base if base is not None else GreedyCostPlacement(sort_by_gain=sort_by_gain)
        )
        #: Accounting for the most recent ``place()`` call (construction
        #: and improvement probes combined).
        self.last_search: Optional[PlacementRunStats] = None

    def place(self, problem: FleetProblem, solver: PlacementSolver) -> Tuple[int, ...]:
        """Construct greedily, then improve to a fixed point or budget."""
        run_stats: Dict[str, Any] = {}
        started = time.perf_counter()
        try:
            assignment = self.base.place(problem, solver)
            base_search = getattr(self.base, "last_search", None)
            if base_search is not None:
                run_stats["probes"] = base_search.probes
            return improve_assignment(
                problem,
                solver,
                assignment,
                max_rounds=self.max_rounds,
                run_stats=run_stats,
            )
        finally:
            self.last_search = PlacementRunStats(
                strategy=self.name,
                probes=run_stats.get("probes", 0),
                wall_time_seconds=time.perf_counter() - started,
            )


class ExhaustiveFleetPlacement:
    """Brute-force over every assignment — the exact small-fleet baseline.

    The fleet analogue of the per-machine exhaustive grid search:
    enumerate all ``M^T`` tenant→machine assignments, price the feasible
    ones, and return the cheapest (ties break toward the lexicographically
    first assignment, so the result is deterministic).  Guarded by
    ``max_assignments`` because the space is exponential — this exists to
    *measure* the greedy strategies' optimality gap in CI, not to place
    production fleets.  Distinct (machine, tenant set) pairs are priced
    once in one batch; across assignments the fleet solve-memo deduplicates
    the rest.
    """

    name = "exhaustive-fleet"

    def __init__(self, max_assignments: int = 4096) -> None:
        if max_assignments < 1:
            raise ConfigurationError(
                f"max_assignments must be >= 1, got {max_assignments}"
            )
        self.max_assignments = max_assignments

    def place(self, problem: FleetProblem, solver: PlacementSolver) -> Tuple[int, ...]:
        """Return the cheapest feasible assignment of the whole space."""
        total = problem.n_machines ** problem.n_tenants
        if total > self.max_assignments:
            raise ConfigurationError(
                f"exhaustive-fleet would enumerate {total} assignments "
                f"({problem.n_machines} machines ^ {problem.n_tenants} "
                f"tenants), exceeding its max_assignments budget of "
                f"{self.max_assignments} (fleets up to the budget run; "
                f"{total} > {self.max_assignments} does not); it is a "
                f"small-fleet baseline — raise the guard explicitly, or "
                f"use 'bnb-fleet' for the same optimum past enumeration "
                f"scale"
            )
        feasible: List[Tuple[Tuple[int, ...], List[Tuple[int, Tuple[int, ...]]]]] = []
        needed: List[Tuple[int, Tuple[int, ...]]] = []
        seen = set()
        any_fits = False
        for candidate in itertools.product(
            range(problem.n_machines), repeat=problem.n_tenants
        ):
            loads: List[List[int]] = [[] for _ in problem.machines]
            for tenant_index, machine_index in enumerate(candidate):
                loads[machine_index].append(tenant_index)
            keys = [
                (machine_index, tuple(load))
                for machine_index, load in enumerate(loads)
                if load
            ]
            if not all(solver.fits(machine_index, load) for machine_index, load in keys):
                continue
            any_fits = True
            feasible.append((candidate, keys))
            for key in keys:
                if key not in seen:
                    seen.add(key)
                    needed.append(key)
        if not feasible:
            raise PlacementError(
                f"no assignment of the {problem.n_tenants} tenants onto the "
                f"{problem.n_machines} machines satisfies the capacity "
                f"constraints"
            )
        priced = dict(zip(needed, solver.machine_costs(needed)))
        best: Optional[Tuple[int, ...]] = None
        best_cost = float("inf")
        for candidate, keys in feasible:
            cost = sum(priced[key] for key in keys)
            if cost < best_cost - 1e-12:
                best = candidate
                best_cost = cost
        if best is None:  # every feasible assignment priced +inf
            raise PlacementError(
                "machines with capacity exist, but every complete assignment "
                "violates some co-located tenants' degradation limits"
                if any_fits
                else "no feasible assignment"
            )
        return best


PLACEMENTS.register("round-robin", lambda **_ignored: RoundRobinPlacement())
PLACEMENTS.register("first-fit", lambda **_ignored: FirstFitPlacement())
PLACEMENTS.register(
    "greedy-cost",
    lambda sort_by_gain=True, **_ignored: GreedyCostPlacement(sort_by_gain=sort_by_gain),
)
PLACEMENTS.register(
    "greedy-cost+ls",
    lambda max_rounds=12, sort_by_gain=True, **_ignored: LocalSearchPlacement(
        max_rounds=max_rounds, sort_by_gain=sort_by_gain
    ),
)
PLACEMENTS.register(
    "exhaustive-fleet",
    lambda max_assignments=4096, **_ignored: ExhaustiveFleetPlacement(
        max_assignments=max_assignments
    ),
)


def resolve_placement(
    placement: Optional[str] = None,
    local_search: Optional[int] = None,
    max_nodes: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> Union[None, str, PlacementStrategy]:
    """Resolve a placement request — a strategy name plus optional budgets.

    The one rule set behind ``python -m repro fleet`` and ``POST /fleet``:
    ``local_search`` is an improvement-round budget that implies
    ``"greedy-cost+ls"``; ``max_nodes`` / ``max_seconds`` budget the exact
    search and imply ``"bnb-fleet"``; a request may not use both families,
    and every name and budget is validated here, so a bad request is
    rejected before any solve starts.  Returns ``None`` when nothing was
    asked for (the fleet advisor's own strategy applies), the name when no
    budget was given, and a configured strategy otherwise.
    """
    if placement is not None and placement not in PLACEMENTS:
        raise ConfigurationError(
            f"unknown placement strategy {placement!r}; registered: "
            f"{', '.join(PLACEMENTS.names())}"
        )
    if max_nodes is not None or max_seconds is not None:
        if local_search is not None:
            raise ConfigurationError(
                "local_search selects greedy-cost+ls but "
                "max_nodes/max_seconds select bnb-fleet; "
                "pass only one family"
            )
        name = placement if placement is not None else "bnb-fleet"
        if name != "bnb-fleet":
            raise ConfigurationError(
                f"max_nodes/max_seconds only apply to the bnb-fleet "
                f"placement, not {name!r}"
            )
        options: Dict[str, Any] = {}
        if max_nodes is not None:
            if isinstance(max_nodes, bool) or not isinstance(max_nodes, int):
                raise ConfigurationError(
                    f"max_nodes must be an integer node budget; "
                    f"got {max_nodes!r}"
                )
            if max_nodes < 1:
                raise ConfigurationError(
                    f"max_nodes must be >= 1, got {max_nodes}"
                )
            options["max_nodes"] = max_nodes
        if max_seconds is not None:
            if isinstance(max_seconds, bool) or not isinstance(
                max_seconds, (int, float)
            ):
                raise ConfigurationError(
                    f"max_seconds must be a wall-clock budget in "
                    f"seconds; got {max_seconds!r}"
                )
            if max_seconds <= 0:
                raise ConfigurationError(
                    f"max_seconds must be positive, got {max_seconds}"
                )
            options["max_seconds"] = float(max_seconds)
        return PLACEMENTS.create(name, **options)
    if local_search is None:
        return placement
    if isinstance(local_search, bool) or not isinstance(local_search, int):
        raise ConfigurationError(
            f"local_search must be an integer improvement-round budget; "
            f"got {local_search!r}"
        )
    if local_search < 0:
        raise ConfigurationError(
            f"local_search must be >= 0, got {local_search}"
        )
    name = placement if placement is not None else "greedy-cost+ls"
    return PLACEMENTS.create(name, max_rounds=local_search)
