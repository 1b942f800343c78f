"""Exact fleet placement by branch and bound: ``"bnb-fleet"``.

:class:`~repro.fleet.strategies.ExhaustiveFleetPlacement` measures the
greedy strategies' optimality gap, but only on toy fleets — it enumerates
all ``M^T`` assignments, so a paper-sized 12-tenant × 4-machine fleet
(16.7M assignments) is out of reach.  :class:`BranchAndBoundPlacement`
finds the *same* optimum while exploring a tiny fraction of that tree:

* **Branching** assigns one tenant per tree level, in descending gain
  factor (then problem order) — the heavyweight tenants, whose placement
  moves the objective most, are decided near the root where pruning is
  cheapest.  Children of a node (the candidate machines of the next
  tenant) are priced as one batch through the placement solver, so node
  evaluation fans out on the run's solver-execution backend and warm
  paths are answered by the fleet solve-memo.
* **Bounding** prunes a partial assignment when an admissible lower bound
  on its best completion exceeds the incumbent: the committed machines'
  exact costs plus, for every unassigned tenant, the cost of that tenant
  *alone on its best machine* (:func:`best_alone_costs`, precomputed as
  one batch at the root).  Per-machine cost is monotone in the hosted
  tenant set — granting a dropped tenant's resources to the survivors
  never raises their costs — so each tenant's best-alone cost understates
  its share of any completion and the bound never prunes an optimum
  (see :func:`completion_lower_bound`; a property test asserts it).
* **Symmetry breaking** expands at most one child per group of machines
  with equal ``(hardware_key, max_tenants)`` *and* equal current tenant
  set (in practice: the empty machines of one hardware class).  Such
  machines are interchangeable, so the skipped children's subtrees are
  machine-relabelings of the expanded one; the final answer is restored
  to the lexicographically smallest relabeling
  (:func:`canonical_assignment`), which is exactly the representative
  ``exhaustive-fleet``'s lexicographic scan would have kept.
* **Incumbent seeding** runs ``greedy-cost+ls`` first, so the search
  opens with a tight upper bound instead of discovering one leaf by leaf.

The search is exhaustive over the non-pruned tree, so the returned
assignment is *bit-identical* to ``exhaustive-fleet``'s: ties within the
same ``1e-12`` tolerance resolve to the lexicographically smallest
assignment, the incumbent seed competes under the same rule, and node
evaluation order never changes the winner.  Because all pruning decisions
derive from solver costs — pure functions of their (machine, tenant-set)
keys — the explored tree, the node counts, and the answer are identical
on every solver backend (``canonical_dict`` equality is asserted in CI).

Budgets make the solver safe to serve: ``max_nodes`` / ``max_seconds``
cap the search, and on exhaustion the strategy *degrades* to the best
incumbent found so far (at worst the greedy+ls seed) instead of raising.
:attr:`BranchAndBoundPlacement.last_search` records the outcome —
``proven_optimal``, the budget that tripped, node counts — and the fleet
advisor surfaces it as ``placement_provenance`` on the report and over
the ``/fleet`` wire.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, PlacementError
from ..telemetry.instruments import BNB_NODES, BNB_PRUNED
from ..telemetry.trace import get_tracer
from .problem import FleetProblem
from .strategies import (
    PLACEMENTS,
    LocalSearchPlacement,
    PlacementSolver,
    PlacementStrategy,
    _unplaceable,
)

#: Tolerance of every cost comparison, matching ``exhaustive-fleet``'s:
#: a candidate must beat the incumbent by more than this to displace it.
_EPSILON = 1e-12

#: Default node budget.  One "node" is one priced partial assignment;
#: the 12×4 benchmark fleet needs a few hundred, so this bounds runaway
#: searches (adversarial instances, weak bounds) without ever touching a
#: well-behaved one.
DEFAULT_MAX_NODES = 200_000

#: Sentinel distinguishing "default seed" from an explicit ``seed=None``
#: (run unseeded).
_DEFAULT_SEED = object()

#: Nodes between ``progress`` events on the ``bnb.search`` span.  The
#: search prices thousands of nodes per second, so per-node events would
#: dominate the trace; a coarse cadence keeps long searches observable.
_PROGRESS_EVERY = 2000

#: Symmetry class of one machine: machines sharing this key (and their
#: current tenant set) are physically interchangeable for placement.
_ClassKey = Tuple[Tuple[float, float, int], Optional[int]]


def symmetry_classes(problem: FleetProblem) -> List[_ClassKey]:
    """The symmetry class of each machine, in machine order.

    Two machines are interchangeable exactly when they share capacity
    (``hardware_key``) *and* tenant cap (``max_tenants``): the per-machine
    solve depends only on the hardware shape, and feasibility on both.
    """
    return [
        (machine.hardware_key, machine.max_tenants)
        for machine in problem.machines
    ]


def canonical_assignment(
    assignment: Sequence[int], classes: Sequence[_ClassKey]
) -> Tuple[int, ...]:
    """The lexicographically smallest machine-relabeling of an assignment.

    Machines within one symmetry class may be permuted freely without
    changing cost or feasibility; scanning tenants in problem order and
    giving each newly seen machine the smallest unused index of its class
    yields the unique lexicographic minimum of that orbit — the
    representative ``exhaustive-fleet``'s lexicographic scan keeps.
    Machines in singleton classes keep their index.
    """
    members: Dict[_ClassKey, List[int]] = {}
    for index, key in enumerate(classes):
        members.setdefault(key, []).append(index)
    next_label = {key: 0 for key in members}
    relabel: Dict[int, int] = {}
    canonical: List[int] = []
    for machine_index in assignment:
        label = relabel.get(machine_index)
        if label is None:
            key = classes[machine_index]
            label = members[key][next_label[key]]
            next_label[key] += 1
            relabel[machine_index] = label
        canonical.append(label)
    return tuple(canonical)


def best_alone_costs(
    problem: FleetProblem, solver: PlacementSolver
) -> List[float]:
    """Each tenant's cheapest solo placement — the bound's building block.

    All ``T × M`` solo probes are priced as one batch, so they fan out on
    the solver backend, and machines sharing a hardware shape collapse to
    one solve in the fleet solve-memo.  A tenant no machine can host
    (capacity, or degradation limits even with the whole machine to
    itself) is unplaceable outright — co-location only costs more — and
    raises :class:`~repro.exceptions.PlacementError` here, before any
    search is spent.
    """
    candidates: List[Tuple[int, Tuple[int, ...]]] = []
    for tenant_index in range(problem.n_tenants):
        for machine_index in range(problem.n_machines):
            if solver.fits(machine_index, (tenant_index,)):
                candidates.append((machine_index, (tenant_index,)))
    priced = dict(zip(candidates, solver.machine_costs(candidates)))
    best: List[float] = []
    for tenant_index in range(problem.n_tenants):
        fitting = [
            priced[(machine_index, (tenant_index,))]
            for machine_index in range(problem.n_machines)
            if (machine_index, (tenant_index,)) in priced
        ]
        if not fitting:
            raise _unplaceable(problem, tenant_index)
        cheapest = min(fitting)
        if math.isinf(cheapest):
            raise _unplaceable(problem, tenant_index, qos_blocked=True)
        best.append(cheapest)
    return best


def completion_lower_bound(
    committed_cost: float,
    best_alone: Sequence[float],
    unassigned: Sequence[int],
) -> float:
    """An admissible bound on completing a partial assignment.

    ``committed_cost`` is the exact summed cost of the machines as loaded
    so far; every unassigned tenant contributes its best-alone cost.
    Admissibility: per-machine cost is monotone in the tenant set (an
    allocation for ``S ∪ {t}`` restricted to ``S`` — with ``t``'s share
    granted to any survivor — is feasible for ``S`` and no costlier), so
    by induction ``cost(m, F) ≥ cost(m, S) + Σ_{t ∈ F∖S} cost(m, {t})``
    and ``cost(m, {t}) ≥ min_m' cost(m', {t})``.  Hence the bound never
    exceeds the true cost of any completion.
    """
    return committed_cost + sum(best_alone[index] for index in unassigned)


@dataclass(frozen=True)
class BnbSearchStats:
    """Outcome and accounting of one branch-and-bound placement search.

    Attributes:
        nodes_explored: partial assignments priced (tree nodes evaluated).
        nodes_pruned: subtrees cut by the admissible bound.
        leaves_evaluated: complete assignments reached and compared.
        incumbent_updates: how often a better (or lex-smaller tied)
            complete assignment displaced the incumbent.
        full_tree_size: ``M^T``, the assignments exhaustive enumeration
            would price — the denominator of the node-count reduction.
        seeded_cost: the incumbent cost the search opened with (the
            greedy+ls seed), ``None`` when unseeded or the seed failed.
        best_cost: the returned assignment's total gain-weighted cost.
        proven_optimal: whether the search exhausted the non-pruned tree
            (``False`` exactly when a budget tripped).
        budget_exhausted: which budget stopped the search — ``"nodes"``,
            ``"time"``, or ``None``.
        max_nodes: the node budget in force.
        max_seconds: the time budget in force (``None`` = unlimited).
        elapsed_seconds: wall-clock time of the whole placement,
            seed included.
    """

    nodes_explored: int
    nodes_pruned: int
    leaves_evaluated: int
    incumbent_updates: int
    full_tree_size: int
    seeded_cost: Optional[float]
    best_cost: float
    proven_optimal: bool
    budget_exhausted: Optional[str]
    max_nodes: int
    max_seconds: Optional[float]
    elapsed_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe provenance payload (``placement_provenance``)."""
        return {
            "strategy": "bnb-fleet",
            "nodes_explored": self.nodes_explored,
            "nodes_pruned": self.nodes_pruned,
            "leaves_evaluated": self.leaves_evaluated,
            "incumbent_updates": self.incumbent_updates,
            "full_tree_size": self.full_tree_size,
            "seeded_cost": self.seeded_cost,
            "best_cost": self.best_cost,
            "proven_optimal": self.proven_optimal,
            "budget_exhausted": self.budget_exhausted,
            "max_nodes": self.max_nodes,
            "max_seconds": self.max_seconds,
            "elapsed_seconds": self.elapsed_seconds,
        }


class _BudgetExhausted(Exception):
    """Internal unwind signal: a node or time budget tripped mid-search."""

    def __init__(self, which: str) -> None:
        super().__init__(which)
        self.which = which


class BranchAndBoundPlacement:
    """Exact placement far past ``M^T`` enumeration — see the module doc.

    Args:
        max_nodes: node budget; one node is one priced partial assignment.
        max_seconds: wall-clock budget for the whole placement (``None``
            = unlimited); checked between node expansions.
        seed: the strategy whose answer opens the search as the incumbent
            (default ``greedy-cost+ls``); ``None`` starts unseeded.
        symmetry_breaking: expand one representative per interchangeable
            machine group (answers are identical either way; the tree is
            much smaller with it on).

    On budget exhaustion the best incumbent is returned — at worst the
    seed's assignment — and :attr:`last_search` records
    ``proven_optimal=False`` plus which budget tripped; the fleet advisor
    surfaces that as the report's ``placement_provenance``.  An exhausted
    *unseeded* search that never reached a leaf has nothing to degrade to
    and raises :class:`~repro.exceptions.PlacementError`.
    """

    name = "bnb-fleet"

    def __init__(
        self,
        max_nodes: int = DEFAULT_MAX_NODES,
        max_seconds: Optional[float] = None,
        seed: Any = _DEFAULT_SEED,
        symmetry_breaking: bool = True,
    ) -> None:
        if max_nodes < 1:
            raise ConfigurationError(f"max_nodes must be >= 1, got {max_nodes}")
        if max_seconds is not None and max_seconds <= 0:
            raise ConfigurationError(
                f"max_seconds must be positive, got {max_seconds}"
            )
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.seed: Optional[PlacementStrategy] = (
            LocalSearchPlacement() if seed is _DEFAULT_SEED else seed
        )
        self.symmetry_breaking = symmetry_breaking
        #: Accounting of the most recent :meth:`place` call.  Written once
        #: at the end of each run; a strategy instance shared across
        #: concurrent runs keeps only the last writer's record, so treat
        #: it as provenance, not as part of the answer.
        self.last_search: Optional[BnbSearchStats] = None

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def place(
        self, problem: FleetProblem, solver: PlacementSolver
    ) -> Tuple[int, ...]:
        """Return the exact optimum (or the best incumbent on budget)."""
        started = time.perf_counter()
        n_tenants, n_machines = problem.n_tenants, problem.n_machines
        classes = symmetry_classes(problem)

        # Heavy tenants branch first: their placement moves the objective
        # most, so bad subtrees are cut near the root.
        order = sorted(
            range(n_tenants),
            key=lambda index: (-problem.tenants[index].gain_factor, index),
        )

        # --- Incumbent seed -------------------------------------------
        seeded_cost: Optional[float] = None
        incumbent: Optional[Tuple[int, ...]] = None
        incumbent_cost = math.inf
        if self.seed is not None:
            with get_tracer().span(
                "bnb.seed", strategy=getattr(self.seed, "name", type(self.seed).__name__)
            ) as seed_span:
                try:
                    seed_assignment = self.seed.place(problem, solver)
                except PlacementError:
                    # Greedy construction is incomplete — its failure does
                    # not prove infeasibility, so the exact search proceeds
                    # alone.
                    seed_assignment = None
                if seed_assignment is not None:
                    seeded_cost = self._assignment_cost(
                        problem, solver, seed_assignment
                    )
                    incumbent = canonical_assignment(seed_assignment, classes)
                    incumbent_cost = seeded_cost
                    seed_span.set_attribute("seeded_cost", seeded_cost)

        # --- Admissible bound ingredients (one batch at the root) -----
        # One leaf span: the T×M solo probes fan out through the solver
        # backend, far too many for per-probe spans.
        with get_tracer().span(
            "bnb.bound", leaf=True, tenants=n_tenants, machines=n_machines
        ):
            best_alone = best_alone_costs(problem, solver)
        suffix_bound = [0.0] * (n_tenants + 1)
        for depth in range(n_tenants - 1, -1, -1):
            suffix_bound[depth] = (
                suffix_bound[depth + 1] + best_alone[order[depth]]
            )

        # --- Depth-first search with backtracking ---------------------
        state = {
            "loads": [() for _ in range(n_machines)],
            "committed": [0.0] * n_machines,
            "assignment": [-1] * n_tenants,
            "nodes": 0,
            "pruned": 0,
            "leaves": 0,
            "updates": 0,
            "incumbent": incumbent,
            "incumbent_cost": incumbent_cost,
        }
        deadline = (
            started + self.max_seconds if self.max_seconds is not None else None
        )
        budget_exhausted: Optional[str] = None
        # One leaf span covers the whole tree walk; coarse ``progress``
        # events (every ``_PROGRESS_EVERY`` nodes) keep it observable.
        search_span = get_tracer().span(
            "bnb.search", leaf=True, max_nodes=self.max_nodes
        )
        search_span.__enter__()
        state["span"] = search_span
        state["next_report"] = _PROGRESS_EVERY
        try:
            try:
                self._search(problem, solver, order, classes, suffix_bound,
                             state, depth=0, deadline=deadline)
            except _BudgetExhausted as exhausted:
                budget_exhausted = exhausted.which
            search_span.set_attributes(
                nodes=state["nodes"],
                pruned=state["pruned"],
                leaves=state["leaves"],
                incumbent_updates=state["updates"],
                budget_exhausted=budget_exhausted,
            )
        finally:
            search_span.__exit__(None, None, None)
        BNB_NODES.inc(state["nodes"])
        BNB_PRUNED.inc(state["pruned"])

        best = state["incumbent"]
        best_cost = state["incumbent_cost"]
        if best is None:
            if budget_exhausted is not None:
                raise PlacementError(
                    f"bnb-fleet exhausted its {budget_exhausted} budget "
                    f"(max_nodes={self.max_nodes}, "
                    f"max_seconds={self.max_seconds}) before finding any "
                    f"feasible assignment; raise the budget or seed the "
                    f"search"
                )
            raise PlacementError(
                f"no assignment of the {n_tenants} tenants onto the "
                f"{n_machines} machines satisfies the capacity and "
                f"degradation constraints"
            )
        self.last_search = BnbSearchStats(
            nodes_explored=state["nodes"],
            nodes_pruned=state["pruned"],
            leaves_evaluated=state["leaves"],
            incumbent_updates=state["updates"],
            full_tree_size=n_machines ** n_tenants,
            seeded_cost=seeded_cost,
            best_cost=best_cost,
            proven_optimal=budget_exhausted is None,
            budget_exhausted=budget_exhausted,
            max_nodes=self.max_nodes,
            max_seconds=self.max_seconds,
            elapsed_seconds=time.perf_counter() - started,
        )
        return best

    def _search(
        self,
        problem: FleetProblem,
        solver: PlacementSolver,
        order: Sequence[int],
        classes: Sequence[_ClassKey],
        suffix_bound: Sequence[float],
        state: Dict[str, Any],
        depth: int,
        deadline: Optional[float],
    ) -> None:
        """Expand one node: price the children, bound, recurse best-first."""
        if depth == problem.n_tenants:
            self._complete(problem, classes, state)
            return
        if deadline is not None and time.perf_counter() > deadline:
            raise _BudgetExhausted("time")

        tenant_index = order[depth]
        loads: List[Tuple[int, ...]] = state["loads"]
        committed: List[float] = state["committed"]

        # Candidate machines, one representative per (class, current
        # load) group when symmetry breaking is on.
        children: List[Tuple[int, Tuple[int, ...]]] = []
        expanded = set()
        for machine_index in range(problem.n_machines):
            if self.symmetry_breaking:
                group = (classes[machine_index], loads[machine_index])
                if group in expanded:
                    continue
                expanded.add(group)
            candidate = tuple(
                sorted(loads[machine_index] + (tenant_index,))
            )
            if solver.fits(machine_index, candidate):
                children.append((machine_index, candidate))
        if not children:
            return

        if state["nodes"] + len(children) > self.max_nodes:
            raise _BudgetExhausted("nodes")
        state["nodes"] += len(children)
        if state["nodes"] >= state["next_report"]:
            state["next_report"] = state["nodes"] + _PROGRESS_EVERY
            incumbent_cost = state["incumbent_cost"]
            state["span"].event(
                "progress",
                nodes=state["nodes"],
                pruned=state["pruned"],
                incumbent_cost=(
                    None if math.isinf(incumbent_cost) else incumbent_cost
                ),
            )
        costs = solver.machine_costs(children)

        # Bound each child; order survivors best-bound-first so tight
        # incumbents appear early and prune the rest.  The order affects
        # only how fast the tree shrinks, never the final answer.
        total = sum(committed)
        ranked: List[Tuple[float, int, Tuple[int, ...], float]] = []
        for (machine_index, candidate), cost in zip(children, costs):
            if math.isinf(cost):
                continue  # co-location no allocation can make feasible
            bound = (
                total - committed[machine_index] + cost
                + suffix_bound[depth + 1]
            )
            if bound > state["incumbent_cost"] + _EPSILON:
                state["pruned"] += 1
                continue
            ranked.append((bound, machine_index, candidate, cost))
        ranked.sort(key=lambda entry: (entry[0], entry[1]))

        assignment: List[int] = state["assignment"]
        for bound, machine_index, candidate, cost in ranked:
            # The incumbent may have tightened since this child was
            # bounded; re-check before paying for the subtree.
            if bound > state["incumbent_cost"] + _EPSILON:
                state["pruned"] += 1
                continue
            previous_load = loads[machine_index]
            previous_cost = committed[machine_index]
            loads[machine_index] = candidate
            committed[machine_index] = cost
            assignment[tenant_index] = machine_index
            try:
                self._search(problem, solver, order, classes, suffix_bound,
                             state, depth + 1, deadline)
            finally:
                loads[machine_index] = previous_load
                committed[machine_index] = previous_cost
                assignment[tenant_index] = -1

    def _complete(
        self,
        problem: FleetProblem,
        classes: Sequence[_ClassKey],
        state: Dict[str, Any],
    ) -> None:
        """Compare a complete assignment against the incumbent.

        Cost is re-summed over occupied machines in machine order —
        exactly how ``exhaustive-fleet`` prices an assignment — so the
        two strategies compare identical floats.  Ties within the
        tolerance resolve to the lexicographically smaller canonical
        assignment, which is the representative the exhaustive scan's
        first-wins rule keeps.
        """
        state["leaves"] += 1
        committed: List[float] = state["committed"]
        loads: List[Tuple[int, ...]] = state["loads"]
        cost = sum(
            committed[machine_index]
            for machine_index in range(problem.n_machines)
            if loads[machine_index]
        )
        if cost > state["incumbent_cost"] + _EPSILON:
            return
        candidate = canonical_assignment(tuple(state["assignment"]), classes)
        if (
            cost < state["incumbent_cost"] - _EPSILON
            or state["incumbent"] is None
            or candidate < state["incumbent"]
        ):
            state["incumbent"] = candidate
            state["incumbent_cost"] = cost
            state["updates"] += 1

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _assignment_cost(
        problem: FleetProblem,
        solver: PlacementSolver,
        assignment: Sequence[int],
    ) -> float:
        """Total cost of a complete assignment, summed in machine order."""
        per_machine: List[List[int]] = [[] for _ in problem.machines]
        for tenant_index, machine_index in enumerate(assignment):
            per_machine[machine_index].append(tenant_index)
        occupied = [
            (machine_index, tuple(load))
            for machine_index, load in enumerate(per_machine)
            if load
        ]
        return sum(solver.machine_costs(occupied))


def count_assignments(problem: FleetProblem) -> int:
    """``M^T`` — the full tree exhaustive enumeration would price."""
    return problem.n_machines ** problem.n_tenants


def enumerate_completions(
    problem: FleetProblem,
    solver: PlacementSolver,
    partial: Dict[int, int],
) -> List[Tuple[Tuple[int, ...], float]]:
    """Every feasible completion of a partial assignment, with its cost.

    Test scaffolding for the bound's admissibility property: the bound on
    ``partial`` must never exceed the cheapest completion's true cost.
    ``partial`` maps tenant index → machine index; unmentioned tenants
    range over every machine.
    """
    free = [
        index for index in range(problem.n_tenants) if index not in partial
    ]
    completions: List[Tuple[Tuple[int, ...], float]] = []
    for choice in itertools.product(range(problem.n_machines), repeat=len(free)):
        assignment = list(range(problem.n_tenants))
        for tenant_index, machine_index in partial.items():
            assignment[tenant_index] = machine_index
        for tenant_index, machine_index in zip(free, choice):
            assignment[tenant_index] = machine_index
        per_machine: List[List[int]] = [[] for _ in problem.machines]
        for tenant_index, machine_index in enumerate(assignment):
            per_machine[machine_index].append(tenant_index)
        keys = [
            (machine_index, tuple(load))
            for machine_index, load in enumerate(per_machine)
            if load
        ]
        if not all(solver.fits(machine_index, load) for machine_index, load in keys):
            continue
        cost = sum(solver.machine_costs(keys))
        if not math.isinf(cost):
            completions.append((tuple(assignment), cost))
    return completions


PLACEMENTS.register(
    "bnb-fleet",
    lambda max_nodes=DEFAULT_MAX_NODES, max_seconds=None,
    symmetry_breaking=True, **_ignored: BranchAndBoundPlacement(
        max_nodes=max_nodes,
        max_seconds=max_seconds,
        symmetry_breaking=symmetry_breaking,
    ),
)
