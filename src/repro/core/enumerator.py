"""Configuration enumeration.

:class:`GreedyConfigurationEnumerator` implements the greedy algorithm of
Figure 11: start from the default ``1/N`` allocation and repeatedly shift a
share ``delta`` of some resource from the workload that suffers least to the
workload that benefits most, honouring degradation limits and weighting
costs by the benefit gain factors, until no beneficial shift remains.

Two *optimal* searches over the ``delta`` grid are provided.  The paper uses
the optimal allocation (on actual measurements) to establish the baseline
the advisor is compared against, and (on estimates) to verify that greedy
search stays within a few percent of optimal:

* :class:`ExhaustiveSearch` enumerates the cartesian product of all feasible
  grid allocations — ``O(units^(2N))`` combinations — and is kept as the
  brute-force cross-check.
* :class:`DynamicProgrammingSearch` computes the *same* optimum with an
  exact dynamic program over tenants.  The objective
  ``Σᵢ Gᵢ·Costᵢ(cpuᵢ, memᵢ)`` is separable per tenant, and tenants are
  coupled only through the sum-to-one constraint of each resource, so the
  optimum is found in ``O(N · units²_cpu · units²_mem)`` time with state =
  (cpu units assigned, memory units assigned).  Degradation-limit
  feasibility folds into per-tenant level pruning: level pairs violating a
  tenant's limit are priced at ``+inf`` and can never enter the optimum.

Both searches precompute per-tenant cost tables as dense arrays indexed by
grid level (one batched :meth:`~repro.core.cost_estimator.CostFunction.cost_many`
call per tenant), so the cost of a search is one table build plus cheap
arithmetic — not one cost-function walk per grid point.  When the cost
function is a :class:`~repro.api.cache.CachedCostFunction`, those tables
are also shared *across* searches: the fleet layer's ``greedy-cost``
placement re-solves the same machine with varying tenant sets, and each
re-solve prices only the allocations no earlier probe asked about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import OptimizationError
from .cost_estimator import CostFunction
from .problem import (
    CPU,
    ResourceAllocation,
    UNLIMITED_DEGRADATION,
    VirtualizationDesignProblem,
)

_EPSILON = 1e-9

#: A ``(cpu_share, memory_fraction)`` pair: how the greedy probes a move.
_Shares = Tuple[float, float]

#: One greedy move pair of one tenant and resource: ``(gain, increased,
#: raw cost up, loss, reduced, raw cost down)``, the two moves as share
#: pairs.  A step up past the full machine has gain ``-inf``; a step down
#: below ``min_share`` or past the tenant's degradation limit has loss
#: ``+inf``.
_Moves = Tuple[
    float,
    Optional[_Shares],
    float,
    float,
    Optional[_Shares],
    float,
]


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of a configuration search.

    Attributes:
        allocations: recommended allocation per tenant (problem order).
        per_workload_costs: estimated cost (seconds, unweighted) per tenant
            at the recommended allocation.
        total_cost: sum of the per-workload costs.
        weighted_cost: gain-weighted total the search minimized.
        iterations: number of greedy iterations, grid points examined, or
            dynamic-program transitions relaxed.
        cost_calls: number of cost-function invocations the search made.
    """

    allocations: Tuple[ResourceAllocation, ...]
    per_workload_costs: Tuple[float, ...]
    total_cost: float
    weighted_cost: float
    iterations: int
    cost_calls: int

    def allocation_of(self, tenant_index: int) -> ResourceAllocation:
        """Allocation recommended for one tenant."""
        return self.allocations[tenant_index]


def _evaluate_costs(
    cost_function, tenant_index: int, allocations: Sequence[ResourceAllocation]
) -> List[float]:
    """Batch-evaluate costs, falling back to a loop for cost functions that
    do not implement the :meth:`CostFunction.cost_many` batch interface."""
    batch = getattr(cost_function, "cost_many", None)
    if callable(batch):
        return list(batch(tenant_index, allocations))
    return [cost_function.cost(tenant_index, allocation) for allocation in allocations]


# ----------------------------------------------------------------------
# Shared grid helpers (exhaustive and DP search)
# ----------------------------------------------------------------------
def _grid_bounds(delta: float, min_share: float, n_workloads: int) -> Tuple[int, int, int]:
    """``(units, min_units, max_units)`` of the per-tenant level grid.

    ``min_units`` rounds the minimum share *up* to the grid (never below
    one unit for a positive ``min_share``): a level-0 tenant would hold a
    zero share, which can never execute work — with ``min_share=0.05`` on
    a ``delta=0.1`` grid the effective minimum is one 0.1-unit, not zero.
    """
    units = round(1.0 / delta)
    if min_share > 0.0:
        min_units = max(1, math.ceil(min_share / delta - _EPSILON))
    else:
        min_units = 0
    if min_units * n_workloads > units:
        raise OptimizationError("min_share is too large for the number of workloads")
    max_units = units - min_units * (n_workloads - 1)
    return units, min_units, max_units


def effective_min_share(delta: float, min_share: float) -> float:
    """The smallest share a grid search can actually assign one tenant.

    The grid quantizes ``min_share`` upward (see :func:`_grid_bounds`), so
    the effective minimum — which bounds how many tenants can share one
    machine — may exceed the nominal ``min_share``.  The fleet layer uses
    this to avoid over-packing a machine its enumerator cannot divide.
    """
    units, min_units, _ = _grid_bounds(delta, min_share, 1)
    return min_units / units if min_units else 0.0


def _unit_compositions(units: int, min_units: int, n_workloads: int) -> List[Tuple[int, ...]]:
    """All ways of splitting ``units`` grid units among ``n_workloads``."""
    combos: List[Tuple[int, ...]] = []

    def compose(remaining: int, parts_left: int, prefix: List[int]) -> None:
        if parts_left == 1:
            if remaining >= min_units:
                combos.append(tuple(prefix + [remaining]))
            return
        for value in range(min_units, remaining - min_units * (parts_left - 1) + 1):
            compose(remaining - value, parts_left - 1, prefix + [value])

    compose(units, n_workloads, [])
    return combos


@dataclass
class _GridCostTables:
    """Dense per-tenant cost tables over the grid's (cpu, memory) levels.

    ``raw[i][ci][mi]`` is tenant ``i``'s unweighted cost at cpu level index
    ``ci`` and memory level index ``mi``; ``weighted[i]`` is the
    gain-weighted table with degradation-violating level pairs priced at
    ``+inf`` (per-tenant feasibility pruning).
    """

    units: int
    cpu_level_units: List[int]
    mem_level_units: List[int]
    cpu_shares: List[float]
    mem_shares: List[float]
    mem_units_total: int
    raw: List[List[List[float]]]
    weighted: List[np.ndarray]

    def allocation(self, cpu_index: int, mem_index: int) -> ResourceAllocation:
        """The allocation at one (cpu level, memory level) table cell."""
        return ResourceAllocation(
            cpu_share=self.cpu_shares[cpu_index],
            memory_fraction=self.mem_shares[mem_index],
        )


def _bounds_from_full_costs(
    problem: VirtualizationDesignProblem, full_costs: Dict[int, float]
) -> Dict[int, float]:
    """Max admissible raw cost per limited tenant, from full-machine costs.

    The single source of the feasibility rule shared by greedy, exhaustive,
    and DP search: ``cost <= limit * full_cost + epsilon``, with tenants
    whose full-machine cost is non-positive treated as unconstrained.
    """
    return {
        index: problem.tenant(index).degradation_limit * base + _EPSILON
        for index, base in full_costs.items()
        if base > 0
    }


def _degradation_bounds(
    problem: VirtualizationDesignProblem, cost_function
) -> Dict[int, float]:
    """Max admissible raw cost per degradation-limited tenant."""
    full = problem.full_allocation()
    full_costs = {
        index: cost_function.cost(index, full)
        for index in range(problem.n_workloads)
        if problem.tenant(index).degradation_limit != UNLIMITED_DEGRADATION
    }
    return _bounds_from_full_costs(problem, full_costs)


def _build_cost_tables(
    problem: VirtualizationDesignProblem,
    cost_function,
    delta: float,
    min_share: float,
) -> _GridCostTables:
    """Build the dense per-tenant cost tables for a grid search.

    One batched ``cost_many`` call per tenant computes the whole table;
    the gain factors and degradation-limit pruning are applied on top.
    """
    n = problem.n_workloads
    units, min_units, max_units = _grid_bounds(delta, min_share, n)
    cpu_level_units = list(range(min_units, max_units + 1))
    cpu_shares = [level * delta for level in cpu_level_units]
    if problem.controls_memory:
        mem_level_units = list(cpu_level_units)
        mem_shares = [level * delta for level in mem_level_units]
        mem_units_total = units
    else:
        mem_level_units = [0]
        mem_shares = [problem.fixed_memory_fraction]
        mem_units_total = 0

    bounds = _degradation_bounds(problem, cost_function)

    raw: List[List[List[float]]] = []
    weighted: List[np.ndarray] = []
    for index in range(n):
        allocations = [
            ResourceAllocation(cpu_share=cpu, memory_fraction=memory)
            for cpu in cpu_shares
            for memory in mem_shares
        ]
        values = _evaluate_costs(cost_function, index, allocations)
        table = np.asarray(values, dtype=float).reshape(
            len(cpu_shares), len(mem_shares)
        )
        raw.append(table.tolist())
        gain_weighted = table * problem.tenant(index).gain_factor
        bound = bounds.get(index)
        if bound is not None:
            gain_weighted = np.where(table > bound, np.inf, gain_weighted)
        weighted.append(gain_weighted)
    return _GridCostTables(
        units=units,
        cpu_level_units=cpu_level_units,
        mem_level_units=mem_level_units,
        cpu_shares=cpu_shares,
        mem_shares=mem_shares,
        mem_units_total=mem_units_total,
        raw=raw,
        weighted=weighted,
    )


def _result_from_tables(
    tables: _GridCostTables,
    level_indices: Sequence[Tuple[int, int]],
    weighted_cost: float,
    iterations: int,
    cost_calls: int,
) -> EnumerationResult:
    """Assemble an :class:`EnumerationResult` from chosen table cells."""
    allocations = tuple(
        tables.allocation(cpu_index, mem_index)
        for cpu_index, mem_index in level_indices
    )
    per_costs = tuple(
        tables.raw[i][cpu_index][mem_index]
        for i, (cpu_index, mem_index) in enumerate(level_indices)
    )
    return EnumerationResult(
        allocations=allocations,
        per_workload_costs=per_costs,
        total_cost=sum(per_costs),
        weighted_cost=weighted_cost,
        iterations=iterations,
        cost_calls=cost_calls,
    )


def _stepped(
    allocation: ResourceAllocation, resource: str, step: float
) -> ResourceAllocation:
    """``allocation`` with one resource's share moved by ``step``, kept in [0, 1].

    The clamp only touches a share that ``±delta`` float noise carried a
    hair past either end, which no allocation could hold.
    """
    share = allocation.get(resource) + step
    return allocation.with_resource(resource, min(1.0, max(0.0, share)))


class GreedyConfigurationEnumerator:
    """The greedy configuration enumeration algorithm of Figure 11."""

    def __init__(
        self,
        delta: float = 0.05,
        min_share: float = 0.05,
        max_iterations: int = 500,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise OptimizationError(f"delta must be in (0, 1), got {delta}")
        if not 0.0 <= min_share < 1.0:
            raise OptimizationError(f"min_share must be in [0, 1), got {min_share}")
        if max_iterations <= 0:
            raise OptimizationError("max_iterations must be positive")
        self.delta = delta
        self.min_share = min_share
        self.max_iterations = max_iterations

    def enumerate(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
    ) -> EnumerationResult:
        """Run the greedy search and return the recommended allocations."""
        n = problem.n_workloads
        calls_before = cost_function.call_count
        allocations: List[ResourceAllocation] = list(problem.default_allocation())
        full_costs = {
            i: cost_function.cost(i, problem.full_allocation())
            for i in range(n)
            if problem.tenant(i).degradation_limit != UNLIMITED_DEGRADATION
        }
        # Satisfy the degradation limits first: the default 1/N allocation
        # may already violate a tight limit, in which case resources are
        # shifted toward the constrained workloads even if doing so
        # increases the total cost (the QoS constraint takes precedence,
        # as in the paper's Figure 19 experiment).
        if full_costs:
            self._repair_degradation(problem, cost_function, full_costs, allocations)
        gains = [problem.tenant(i).gain_factor for i in range(n)]
        bounds = _bounds_from_full_costs(problem, full_costs)
        # Each tenant's raw cost at its current allocation: a move's probe
        # priced it, so the result needs no lookup of its own.
        raw = [cost_function.cost(i, allocations[i]) for i in range(n)]
        weighted = [gains[i] * raw[i] for i in range(n)]
        delta, ceiling, floor = self.delta, 1.0 + _EPSILON, self.min_share - _EPSILON
        on_cpu = [resource == CPU for resource in problem.resources]

        def probe(i: int) -> List[_Moves]:
            """Tenant ``i``'s one-step moves of every resource, in one batch.

            Who benefits most from an increase?  A share within delta of
            the full machine absorbs a clamped step.  Who suffers least
            from a reduction?  Only a reduction that keeps the tenant within
            its degradation limit may be chosen; a step within delta of
            zero is clamped to zero, so every probed share lies in [0, 1].
            Moves are priced as share pairs, and the pair a winning move
            applies is the one probed, so probe and apply can never diverge
            (and ``weighted[i]`` stays consistent).
            """
            cpu, memory = allocations[i].cpu_share, allocations[i].memory_fraction
            steps = []
            batch: List[_Shares] = []
            for is_cpu in on_cpu:
                share = cpu if is_cpu else memory
                increased = reduced = None
                if share + delta <= ceiling:
                    up = min(1.0, share + delta)
                    increased = (up, memory) if is_cpu else (cpu, up)
                    batch.append(increased)
                if share - delta >= floor:
                    down = max(0.0, share - delta)
                    reduced = (down, memory) if is_cpu else (cpu, down)
                    batch.append(reduced)
                steps.append((increased, reduced))
            costs = iter(cost_function.cost_shares(i, batch) if batch else ())
            gain_factor, bound, current = gains[i], bounds.get(i), weighted[i]
            tenant_moves: List[_Moves] = []
            for increased, reduced in steps:
                gain, raw_up = -math.inf, 0.0
                if increased is not None:
                    raw_up = next(costs)
                    gain = current - gain_factor * raw_up
                loss, raw_down = math.inf, 0.0
                if reduced is not None:
                    raw_down = next(costs)
                    if bound is None or raw_down <= bound:
                        loss = gain_factor * raw_down - current
                tenant_moves.append((gain, increased, raw_up, loss, reduced, raw_down))
            return tenant_moves

        # moves[i][r]: tenant i's moves of resource r from its current
        # allocation.  A move changes only the two tenants it touches, so
        # every other tenant's moves are reused, not probed again.
        moves: List[Optional[List[_Moves]]] = [None] * n
        iterations = 0
        while iterations < self.max_iterations:
            iterations += 1
            for i in range(n):
                if moves[i] is None:
                    moves[i] = probe(i)
            best_move: Optional[Tuple[int, int, int]] = None
            max_diff = 0.0
            for r in range(len(problem.resources)):
                max_gain, i_gain = 0.0, None
                min_loss, i_lose = math.inf, None
                for i, tenant_moves in enumerate(moves):
                    gain, _, _, loss, _, _ = tenant_moves[r]
                    if gain > max_gain:
                        max_gain, i_gain = gain, i
                    if loss < min_loss:
                        min_loss, i_lose = loss, i
                if (
                    i_gain is not None
                    and i_lose is not None
                    and i_gain != i_lose
                    and max_gain - min_loss > max_diff
                ):
                    max_diff = max_gain - min_loss
                    best_move = (r, i_gain, i_lose)

            if best_move is None:
                break
            r, i_gain, i_lose = best_move
            _, increased, raw[i_gain], _, _, _ = moves[i_gain][r]
            _, _, _, _, reduced, raw[i_lose] = moves[i_lose][r]
            allocations[i_gain] = ResourceAllocation(*increased)
            allocations[i_lose] = ResourceAllocation(*reduced)
            weighted[i_gain] = gains[i_gain] * raw[i_gain]
            weighted[i_lose] = gains[i_lose] * raw[i_lose]
            moves[i_gain] = moves[i_lose] = None

        per_costs = tuple(raw)
        return EnumerationResult(
            allocations=tuple(allocations),
            per_workload_costs=per_costs,
            total_cost=sum(per_costs),
            weighted_cost=sum(gains[i] * per_costs[i] for i in range(n)),
            iterations=iterations,
            cost_calls=cost_function.call_count - calls_before,
        )

    def _within_degradation_limit(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
        full_costs: dict,
        tenant_index: int,
        allocation: ResourceAllocation,
    ) -> bool:
        limit = problem.tenant(tenant_index).degradation_limit
        if limit == UNLIMITED_DEGRADATION:
            return True
        base = full_costs[tenant_index]
        if base <= 0:
            return True
        cost = cost_function.cost(tenant_index, allocation)
        return cost <= limit * base + _EPSILON

    def _repair_degradation(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
        full_costs: dict,
        allocations: List[ResourceAllocation],
    ) -> None:
        """Shift resources toward workloads whose degradation limit is violated.

        Each repair step moves ``delta`` of one resource from the donor that
        suffers the smallest (gain-weighted) cost increase — and whose own
        limit remains satisfied — to a violating workload.  The loop stops
        when every limit is met or no legal donor remains (the limit is then
        reported as unmet, as in the paper's L = 1.5 case).
        """
        n = problem.n_workloads
        for _ in range(self.max_iterations):
            violator = None
            for index in range(n):
                if index in full_costs and not self._within_degradation_limit(
                    problem, cost_function, full_costs, index, allocations[index]
                ):
                    violator = index
                    break
            if violator is None:
                return
            best_move = None
            best_loss = math.inf
            for resource in problem.resources:
                if allocations[violator].get(resource) + self.delta > 1.0 + _EPSILON:
                    continue
                for donor in range(n):
                    if donor == violator:
                        continue
                    share = allocations[donor].get(resource)
                    if share - self.delta < self.min_share - _EPSILON:
                        continue
                    reduced = _stepped(allocations[donor], resource, -self.delta)
                    if not self._within_degradation_limit(
                        problem, cost_function, full_costs, donor, reduced
                    ):
                        continue
                    loss = (
                        cost_function.weighted_cost(donor, reduced)
                        - cost_function.weighted_cost(donor, allocations[donor])
                    )
                    if loss < best_loss:
                        best_loss = loss
                        best_move = (resource, donor)
            if best_move is None:
                return
            resource, donor = best_move
            allocations[violator] = _stepped(
                allocations[violator], resource, self.delta
            )
            allocations[donor] = _stepped(allocations[donor], resource, -self.delta)


class ExhaustiveSearch:
    """Brute-force grid enumeration of every feasible allocation.

    Kept as the tests' reference for :class:`DynamicProgrammingSearch`,
    which finds the same optimum without walking the ``O(units^(2N))``
    cartesian product; it is not a registered enumerator.
    """

    def __init__(
        self,
        delta: float = 0.05,
        min_share: float = 0.05,
        max_combinations: int = 2_000_000,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise OptimizationError(f"delta must be in (0, 1), got {delta}")
        self.delta = delta
        self.min_share = min_share
        self.max_combinations = max_combinations

    @property
    def effective_min_share(self) -> float:
        """Smallest per-tenant share on this grid (``min_share`` rounded up)."""
        return effective_min_share(self.delta, self.min_share)

    # ------------------------------------------------------------------
    # Grid enumeration helpers
    # ------------------------------------------------------------------
    def _share_grid(self, n_workloads: int) -> List[Tuple[float, ...]]:
        """All ways of splitting one resource among ``n_workloads`` tenants."""
        units, min_units, _ = _grid_bounds(self.delta, self.min_share, n_workloads)
        return [
            tuple(level * self.delta for level in combo)
            for combo in _unit_compositions(units, min_units, n_workloads)
        ]

    def search(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
    ) -> EnumerationResult:
        """Evaluate every grid allocation and return the cheapest feasible one.

        A tenant's cost depends only on its own ``(cpu, memory)`` level, so
        the per-tenant costs over the distinct grid levels are batch-computed
        once up front into dense level-indexed tables; the combination loop
        then reduces to table lookups and float arithmetic instead of
        re-walking the cost-function machinery for every one of the
        (potentially millions of) grid points.
        """
        n = problem.n_workloads
        calls_before = cost_function.call_count
        units, min_units, _ = _grid_bounds(self.delta, self.min_share, n)
        cpu_combos = _unit_compositions(units, min_units, n)
        if problem.controls_memory:
            mem_combos: List[Optional[Tuple[int, ...]]] = list(cpu_combos)
        else:
            mem_combos = [None]
        total_combinations = len(cpu_combos) * len(mem_combos)
        if total_combinations > self.max_combinations:
            raise OptimizationError(
                f"exhaustive search would evaluate {total_combinations} allocations; "
                f"raise max_combinations or coarsen delta"
            )

        tables = _build_cost_tables(problem, cost_function, self.delta, self.min_share)
        # Infeasible level pairs are +inf in the weighted tables, so a combo
        # violating any tenant's degradation limit can never become the best.
        weighted_tables = [table.tolist() for table in tables.weighted]

        best_combo: Optional[Tuple[Tuple[int, ...], Optional[Tuple[int, ...]]]] = None
        best_weighted = math.inf
        examined = 0
        offset = min_units
        indices = range(n)
        for cpu_combo in cpu_combos:
            for mem_combo in mem_combos:
                examined += 1
                weighted = 0.0
                if mem_combo is None:
                    for i in indices:
                        weighted += weighted_tables[i][cpu_combo[i] - offset][0]
                else:
                    for i in indices:
                        weighted += weighted_tables[i][cpu_combo[i] - offset][
                            mem_combo[i] - offset
                        ]
                if weighted < best_weighted:
                    best_weighted = weighted
                    best_combo = (cpu_combo, mem_combo)

        if best_combo is None:
            raise OptimizationError(
                "exhaustive search found no allocation satisfying the degradation limits"
            )
        cpu_combo, mem_combo = best_combo
        level_indices = [
            (
                cpu_combo[i] - offset,
                (mem_combo[i] - offset) if mem_combo is not None else 0,
            )
            for i in indices
        ]
        return _result_from_tables(
            tables,
            level_indices,
            weighted_cost=best_weighted,
            iterations=examined,
            cost_calls=cost_function.call_count - calls_before,
        )

    def enumerate(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
    ) -> EnumerationResult:
        """Alias for :meth:`search` so exhaustive and greedy enumeration share
        the :class:`repro.api.strategies.EnumerationStrategy` interface."""
        return self.search(problem, cost_function)


class DynamicProgrammingSearch:
    """Exact dynamic program over tenants: the optimum without the blow-up.

    Finds the same optimal grid allocation as :class:`ExhaustiveSearch` —
    the objective ``Σᵢ Gᵢ·Costᵢ`` is separable per tenant with one
    sum-to-one constraint per resource — by relaxing tenants one at a time
    over the state (cpu units assigned, memory units assigned).  Runtime is
    ``O(N · units²_cpu · units²_mem)`` instead of ``O(units^(2N))``, which
    opens problems the brute force cannot touch: 6–10 tenants at
    ``delta = 0.05`` with both resources controlled, or ``delta = 0.01``
    CPU-only grids, all in seconds.

    Degradation limits are enforced by per-tenant level pruning (violating
    level pairs cost ``+inf``); if no assignment satisfies every limit the
    search raises :class:`~repro.exceptions.OptimizationError`, exactly as
    the brute force does.
    """

    def __init__(
        self,
        delta: float = 0.05,
        min_share: float = 0.05,
    ) -> None:
        if not 0.0 < delta < 1.0:
            raise OptimizationError(f"delta must be in (0, 1), got {delta}")
        if not 0.0 <= min_share < 1.0:
            raise OptimizationError(f"min_share must be in [0, 1), got {min_share}")
        self.delta = delta
        self.min_share = min_share

    @property
    def effective_min_share(self) -> float:
        """Smallest per-tenant share on this grid (``min_share`` rounded up)."""
        return effective_min_share(self.delta, self.min_share)

    def search(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
    ) -> EnumerationResult:
        """Compute the optimal grid allocation by dynamic programming."""
        n = problem.n_workloads
        calls_before = cost_function.call_count
        tables = _build_cost_tables(problem, cost_function, self.delta, self.min_share)
        units = tables.units
        mem_total = tables.mem_units_total
        cpu_consumption = tables.cpu_level_units
        mem_consumption = tables.mem_level_units

        # dp[cu, mu] = cheapest gain-weighted cost of the tenants relaxed so
        # far, given that they consume exactly cu cpu and mu memory units.
        dp = np.full((units + 1, mem_total + 1), np.inf)
        dp[0, 0] = 0.0
        choices: List[Tuple[np.ndarray, np.ndarray]] = []
        examined = 0
        for index in range(n):
            weighted = tables.weighted[index]
            ndp = np.full_like(dp, np.inf)
            chosen_cpu = np.zeros(dp.shape, dtype=np.int32)
            chosen_mem = np.zeros(dp.shape, dtype=np.int32)
            for ci, cpu_units in enumerate(cpu_consumption):
                for mi, mem_units in enumerate(mem_consumption):
                    level_cost = weighted[ci, mi]
                    if not np.isfinite(level_cost):
                        continue  # pruned: violates the tenant's limit
                    source = dp[: units + 1 - cpu_units, : mem_total + 1 - mem_units]
                    target = ndp[cpu_units:, mem_units:]
                    candidate = source + level_cost
                    better = candidate < target
                    if better.any():
                        target[better] = candidate[better]
                        chosen_cpu[cpu_units:, mem_units:][better] = ci
                        chosen_mem[cpu_units:, mem_units:][better] = mi
                    examined += source.size
            dp = ndp
            choices.append((chosen_cpu, chosen_mem))

        best = dp[units, mem_total]
        if not np.isfinite(best):
            raise OptimizationError(
                "dynamic-programming search found no allocation satisfying "
                "the degradation limits"
            )

        # Backtrack the argmin path from the full-machine state.
        cpu_left, mem_left = units, mem_total
        level_indices: List[Optional[Tuple[int, int]]] = [None] * n
        for index in range(n - 1, -1, -1):
            chosen_cpu, chosen_mem = choices[index]
            ci = int(chosen_cpu[cpu_left, mem_left])
            mi = int(chosen_mem[cpu_left, mem_left])
            level_indices[index] = (ci, mi)
            cpu_left -= cpu_consumption[ci]
            mem_left -= mem_consumption[mi]

        return _result_from_tables(
            tables,
            level_indices,
            weighted_cost=float(best),
            iterations=examined,
            cost_calls=cost_function.call_count - calls_before,
        )

    def enumerate(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
    ) -> EnumerationResult:
        """Alias for :meth:`search` (the shared enumeration interface)."""
        return self.search(problem, cost_function)
