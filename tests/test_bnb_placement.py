"""Tests for the branch-and-bound exact placement (``"bnb-fleet"``).

Covers the search building blocks as units (symmetry classes, canonical
relabeling, best-alone costs, the admissible completion bound — including
a hypothesis admissibility property against fully enumerated completions,
and the property that symmetry breaking never excludes all optima on
fleets with duplicated hardware), the budget/degradation contract
(node and time budgets, best-incumbent answers, ``proven_optimal`` /
``budget_exhausted`` provenance, unseeded exhaustion), the provenance
surfacing through :class:`~repro.fleet.FleetReport` (present in
``to_dict``/``from_dict``, *excluded* from ``canonical_dict``), and the
cross-backend determinism contract: one ``bnb-fleet`` answer,
``canonical_dict``-identical across serial/thread/process/asyncio.
"""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, PlacementError
from repro.fleet import (
    PLACEMENTS,
    BranchAndBoundPlacement,
    FleetAdvisor,
    FleetProblem,
    FleetReport,
)
from repro.fleet.advisor import _FleetSolver
from repro.fleet.bnb import (
    best_alone_costs,
    canonical_assignment,
    completion_lower_bound,
    count_assignments,
    enumerate_completions,
    symmetry_classes,
)
from repro.parallel.backends import SerialBackend


def small_fleet(n_tenants=4, n_machines=2, **overrides):
    """The same small, fast fleet instance as ``test_fleet.small_fleet``."""
    machines = [{"name": f"m{i + 1}"} for i in range(n_machines)]
    tenants = [
        {
            "name": f"t{i + 1}",
            "engine": "postgresql" if i % 2 == 0 else "db2",
            "statements": [["q17" if i % 2 == 0 else "q18", 1.0 + i]],
            "gain_factor": 1.0 + i % 3,
        }
        for i in range(n_tenants)
    ]
    spec = {"tenants": tenants, "machines": machines, "name": "bnb-fleet-test"}
    spec.update(overrides)
    return FleetProblem.from_dict(spec)


def twin_machine_fleet(n_tenants=3, n_machines=3):
    """A fleet whose machines all share one hardware shape (full symmetry)."""
    return small_fleet(
        n_tenants=n_tenants,
        n_machines=n_machines,
        machines=[
            {"name": f"m{i + 1}", "memory_mb": 8192.0} for i in range(n_machines)
        ],
    )


@pytest.fixture(scope="module")
def shared_advisor():
    """One calibrated advisor shared by the read-only strategy tests."""
    return FleetAdvisor(delta=0.25)


# ----------------------------------------------------------------------
# Building blocks as units
# ----------------------------------------------------------------------
class TestSymmetry:
    def test_identical_machines_share_a_class(self):
        problem = twin_machine_fleet()
        classes = symmetry_classes(problem)
        assert len(set(classes)) == 1

    def test_max_tenants_splits_otherwise_identical_machines(self):
        problem = small_fleet(
            n_machines=2,
            machines=[
                {"name": "m1", "memory_mb": 8192.0},
                {"name": "m2", "memory_mb": 8192.0, "max_tenants": 1},
            ],
        )
        classes = symmetry_classes(problem)
        assert classes[0] != classes[1]

    def test_canonical_assignment_is_lex_min_within_classes(self):
        problem = twin_machine_fleet(n_tenants=3, n_machines=3)
        classes = symmetry_classes(problem)
        # All machines interchangeable: first-seen machine gets label 0.
        assert canonical_assignment((2, 2, 1), classes) == (0, 0, 1)
        assert canonical_assignment((1, 0, 2), classes) == (0, 1, 2)

    def test_canonical_assignment_is_identity_across_distinct_classes(self):
        problem = small_fleet(
            n_machines=2,
            machines=[
                {"name": "m1", "memory_mb": 4096.0},
                {"name": "m2", "memory_mb": 8192.0},
            ],
        )
        classes = symmetry_classes(problem)
        assert canonical_assignment((1, 0, 1, 0), classes) == (1, 0, 1, 0)

    def test_canonical_assignment_is_idempotent(self):
        problem = twin_machine_fleet()
        classes = symmetry_classes(problem)
        once = canonical_assignment((2, 0, 2), classes)
        assert canonical_assignment(once, classes) == once


class TestLowerBound:
    def test_best_alone_costs_are_finite_and_positive(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        best = best_alone_costs(problem, solver)
        assert len(best) == problem.n_tenants
        assert all(cost > 0 and not math.isinf(cost) for cost in best)

    def test_unplaceable_tenant_raises_before_any_search(self, shared_advisor):
        problem = small_fleet(
            n_tenants=2,
            n_machines=1,
            machines=[{"name": "m1", "memory_mb": 128.0}],
        )
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        with pytest.raises(PlacementError):
            best_alone_costs(problem, solver)

    def test_empty_partial_bound_never_exceeds_the_optimum(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        best = best_alone_costs(problem, solver)
        bound = completion_lower_bound(0.0, best, range(problem.n_tenants))
        exact = shared_advisor.recommend(problem, placement="exhaustive-fleet")
        assert bound <= exact.total_weighted_cost + 1e-9


#: One shared advisor so hypothesis examples reuse calibrations and caches.
_PROPERTY_ADVISOR = FleetAdvisor(delta=0.25)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_bound_is_admissible_for_random_partial_assignments(seed):
    """bound(partial) ≤ true cost of *every* feasible completion.

    Replay a failure with this test's printed ``seed`` — the instance and
    the partial assignment are both derived from it deterministically.
    """
    rng = random.Random(seed)
    n_machines = rng.randint(1, 3)
    n_tenants = rng.randint(1, 3)
    problem = small_fleet(n_tenants=n_tenants, n_machines=n_machines)
    solver = _FleetSolver(_PROPERTY_ADVISOR, problem, SerialBackend())
    partial = {
        tenant_index: rng.randrange(n_machines)
        for tenant_index in range(n_tenants)
        if rng.random() < 0.5
    }
    loads = [[] for _ in range(n_machines)]
    for tenant_index, machine_index in partial.items():
        loads[machine_index].append(tenant_index)
    keys = [
        (machine_index, tuple(load))
        for machine_index, load in enumerate(loads)
        if load
    ]
    if not all(solver.fits(machine_index, load) for machine_index, load in keys):
        return  # infeasible partials carry no bound obligation
    committed = sum(solver.machine_costs(keys)) if keys else 0.0
    if math.isinf(committed):
        return
    best = best_alone_costs(problem, solver)
    unassigned = [
        tenant_index
        for tenant_index in range(n_tenants)
        if tenant_index not in partial
    ]
    bound = completion_lower_bound(committed, best, unassigned)
    completions = enumerate_completions(problem, solver, partial)
    for assignment, cost in completions:
        assert bound <= cost + 1e-9, (
            f"seed={seed}: bound {bound} exceeds completion "
            f"{assignment} with true cost {cost}"
        )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_symmetry_breaking_never_excludes_all_optima(seed):
    """On all-twin fleets, pruning orbits must keep an optimal representative.

    With and without symmetry breaking, ``bnb-fleet`` must return the
    *same* assignment at the *same* cost — if breaking ever excluded every
    optimal assignment, the symmetric search would come back cheaper.
    Replay with this test's printed ``seed``.
    """
    rng = random.Random(seed)
    n_machines = rng.randint(2, 3)
    n_tenants = rng.randint(1, 3)
    problem = twin_machine_fleet(n_tenants=n_tenants, n_machines=n_machines)
    solver = _FleetSolver(_PROPERTY_ADVISOR, problem, SerialBackend())
    broken = BranchAndBoundPlacement(symmetry_breaking=True)
    symmetric = BranchAndBoundPlacement(symmetry_breaking=False)
    assignment = broken.place(problem, solver)
    assert assignment == symmetric.place(problem, solver), f"seed={seed}"
    assert broken.last_search.best_cost == pytest.approx(
        symmetric.last_search.best_cost, abs=1e-12
    ), f"seed={seed}"
    # Breaking explores no more of the tree than the symmetric search.
    assert (
        broken.last_search.nodes_explored
        <= symmetric.last_search.nodes_explored
    ), f"seed={seed}"


# ----------------------------------------------------------------------
# The strategy: exactness, budgets, degradation
# ----------------------------------------------------------------------
class TestBranchAndBound:
    def test_registered_and_constructible_with_options(self):
        assert "bnb-fleet" in PLACEMENTS
        strategy = PLACEMENTS.create(
            "bnb-fleet", max_nodes=123, max_seconds=4.5, symmetry_breaking=False
        )
        assert isinstance(strategy, BranchAndBoundPlacement)
        assert strategy.max_nodes == 123
        assert strategy.max_seconds == 4.5
        assert strategy.symmetry_breaking is False

    def test_rejects_bad_budgets(self):
        with pytest.raises(ConfigurationError):
            BranchAndBoundPlacement(max_nodes=0)
        with pytest.raises(ConfigurationError):
            BranchAndBoundPlacement(max_seconds=0.0)

    def test_matches_exhaustive_on_the_small_fleet(self, shared_advisor):
        problem = small_fleet()
        exact = shared_advisor.recommend(problem, placement="exhaustive-fleet")
        bnb = shared_advisor.recommend(problem, placement="bnb-fleet")
        assert bnb.placement == exact.placement
        assert bnb.total_weighted_cost == exact.total_weighted_cost
        assert bnb.placement_provenance["proven_optimal"] is True
        assert bnb.placement_provenance["budget_exhausted"] is None

    def test_explores_less_than_the_full_tree(self, shared_advisor):
        problem = small_fleet(n_tenants=5, n_machines=3)
        report = shared_advisor.recommend(problem, placement="bnb-fleet")
        provenance = report.placement_provenance
        assert provenance["full_tree_size"] == count_assignments(problem)
        assert provenance["nodes_explored"] < provenance["full_tree_size"]
        assert provenance["proven_optimal"] is True

    def test_infeasible_fleet_raises_placement_error(self, shared_advisor):
        problem = small_fleet(
            n_tenants=2,
            n_machines=1,
            machines=[{"name": "m1", "memory_mb": 128.0}],
        )
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        with pytest.raises(PlacementError):
            BranchAndBoundPlacement().place(problem, solver)

    def test_node_budget_degrades_to_the_seed_incumbent(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        strategy = BranchAndBoundPlacement(max_nodes=1)
        assignment = strategy.place(problem, solver)
        search = strategy.last_search
        assert search.proven_optimal is False
        assert search.budget_exhausted == "nodes"
        assert search.seeded_cost is not None
        assert search.best_cost == search.seeded_cost
        # The degraded answer is the canonicalized greedy+ls seed.
        classes = symmetry_classes(problem)
        seed = BranchAndBoundPlacement().seed.place(problem, solver)
        assert assignment == canonical_assignment(seed, classes)

    def test_time_budget_degrades_with_time_provenance(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        strategy = BranchAndBoundPlacement(max_seconds=1e-9)
        strategy.place(problem, solver)
        search = strategy.last_search
        assert search.proven_optimal is False
        assert search.budget_exhausted == "time"

    def test_unseeded_budget_exhaustion_raises(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        strategy = BranchAndBoundPlacement(max_nodes=1, seed=None)
        with pytest.raises(PlacementError, match="nodes budget"):
            strategy.place(problem, solver)

    def test_unseeded_search_still_finds_the_optimum(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        seeded = BranchAndBoundPlacement().place(problem, solver)
        unseeded = BranchAndBoundPlacement(seed=None).place(problem, solver)
        assert seeded == unseeded

    def test_generous_budgets_leave_the_answer_proven(self, shared_advisor):
        problem = small_fleet()
        report = shared_advisor.recommend(
            problem,
            placement=BranchAndBoundPlacement(max_nodes=10_000, max_seconds=60.0),
        )
        assert report.placement_provenance["proven_optimal"] is True

    def test_stats_payload_is_json_safe(self, shared_advisor):
        import json

        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        strategy = BranchAndBoundPlacement()
        strategy.place(problem, solver)
        payload = strategy.last_search.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["strategy"] == "bnb-fleet"


# ----------------------------------------------------------------------
# Provenance through the report
# ----------------------------------------------------------------------
class TestProvenance:
    def test_round_trips_but_stays_out_of_the_canonical_answer(
        self, shared_advisor
    ):
        problem = small_fleet()
        report = shared_advisor.recommend(problem, placement="bnb-fleet")
        assert report.placement_provenance is not None
        rebuilt = FleetReport.from_json(report.to_json())
        assert rebuilt.placement_provenance == report.placement_provenance
        assert "placement_provenance" not in report.canonical_dict()

    def test_greedy_strategies_report_minimal_provenance(self, shared_advisor):
        problem = small_fleet()
        report = shared_advisor.recommend(problem, placement="greedy-cost")
        provenance = report.placement_provenance
        assert provenance is not None
        assert provenance["strategy"] == "greedy-cost"
        assert provenance["probes"] > 0
        assert provenance["wall_time_seconds"] >= 0.0
        rebuilt = FleetReport.from_json(report.to_json())
        assert rebuilt.placement_provenance == provenance

    def test_strategies_without_search_accounting_report_none(
        self, shared_advisor
    ):
        problem = small_fleet()
        report = shared_advisor.recommend(problem, placement="round-robin")
        assert report.placement_provenance is None
        assert FleetReport.from_json(report.to_json()).placement_provenance is None


# ----------------------------------------------------------------------
# Cross-backend determinism (the canonical_dict contract)
# ----------------------------------------------------------------------
class TestBackendDeterminism:
    @pytest.mark.parametrize("backend,jobs", [
        ("thread", 4), ("asyncio", 4),
    ])
    def test_canonical_dict_identical_to_serial(self, backend, jobs):
        problem = small_fleet()
        serial = FleetAdvisor(delta=0.25)
        expected = serial.recommend(
            problem, placement="bnb-fleet"
        ).canonical_dict()
        advisor = FleetAdvisor(delta=0.25, backend=backend, jobs=jobs)
        try:
            report = advisor.recommend(problem, placement="bnb-fleet")
            assert report.canonical_dict() == expected
            assert report.placement_provenance["proven_optimal"] is True
        finally:
            advisor.backend.close()
