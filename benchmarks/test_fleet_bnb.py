"""Branch-and-bound exact placement benchmark — paper-sized fleet.

One gate: ``bnb-fleet`` must solve the 12-tenant × 4-machine benchmark
fleet *exactly* — ``proven_optimal`` provenance, no budget trip — within
the CI wall-clock ceiling, while exploring at most 1% of the
``4^12 = 16.7M``-assignment tree that ``exhaustive-fleet`` would have to
enumerate (its guard refuses this fleet outright).  The measured run
explores 153,281 nodes (~0.91% of the tree) in ~0.7–1.8 s on a 2-vCPU
VM.

The greedy-vs-exact gap is reported against the proven optimum — the
number the toy-fleet CI check could never produce at this scale.  On this
instance ``greedy-cost+ls`` lands exactly on the optimum, so the asserted
bound (the heuristic never *beats* the exact answer) doubles as a
regression check on both strategies.

Wired into the CI benchmark-smoke job with a wall-clock ceiling like the
other benchmarks; measured numbers are quoted in ``docs/performance.md``.
"""

import time

from conftest import run_once

from repro.experiments.fleet import build_fleet_problem
from repro.fleet import FleetAdvisor, FleetProblem

N_TENANTS = 12
N_MACHINES = 4

#: The search must visit at most this fraction of the full tree.
MAX_TREE_FRACTION = 0.01


def _fleet_problem() -> FleetProblem:
    base = build_fleet_problem(n_tenants=N_TENANTS, n_machines=N_MACHINES)
    data = base.to_dict()
    # Coarse calibration grid, as in the other fleet benchmarks: the
    # one-time calibration stays cheap.
    data["calibration"] = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}
    return FleetProblem.from_dict(data)


def _greedy_then_exact():
    advisor = FleetAdvisor(delta=0.25)
    problem = _fleet_problem()
    greedy = advisor.recommend(problem, placement="greedy-cost+ls")
    started = time.perf_counter()
    exact = advisor.recommend(problem, placement="bnb-fleet")
    elapsed = time.perf_counter() - started
    return greedy, exact, elapsed


def test_fleet_bnb_exact_solve_within_budget(benchmark):
    greedy, exact, elapsed = run_once(benchmark, _greedy_then_exact)

    provenance = exact.placement_provenance
    explored = provenance["nodes_explored"]
    tree = provenance["full_tree_size"]
    gap = greedy.total_weighted_cost - exact.total_weighted_cost
    print(
        f"\nBranch and bound — {N_TENANTS} tenants × {N_MACHINES} machines "
        f"({tree} assignments):\n"
        f"  exact optimum  {exact.total_weighted_cost:.4f} in {elapsed:.3f} s, "
        f"proven={provenance['proven_optimal']}\n"
        f"  tree explored  {explored} nodes ({explored / tree:.4%}; "
        f"{provenance['nodes_pruned']} subtrees pruned, "
        f"{provenance['leaves_evaluated']} leaves) — "
        f"{tree / explored:.0f}x fewer than enumeration\n"
        f"  greedy+ls gap  {gap:.4f} "
        f"({gap / exact.total_weighted_cost:.4%} above the optimum)"
    )

    # The answer is the *proven* optimum, not a budget-degraded incumbent.
    assert provenance["proven_optimal"] is True
    assert provenance["budget_exhausted"] is None
    assert exact.strategy == "bnb-fleet"
    # Bounding and symmetry do the work: at most 1% of the full tree.
    assert explored <= tree * MAX_TREE_FRACTION
    # The gap is measured against a true optimum, so it cannot be negative.
    assert gap >= -1e-9
    assert exact.total_weighted_cost <= greedy.total_weighted_cost + 1e-9
