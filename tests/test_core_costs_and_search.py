"""Tests for the cost functions and the configuration enumerators."""

import pytest

from repro.api.cache import CachedCostFunction, CostCache
from repro.core.cost_estimator import (
    ActualCostFunction,
    ModelCostFunction,
    WhatIfCostEstimator,
)
from repro.core.enumerator import ExhaustiveSearch, GreedyConfigurationEnumerator
from repro.core.models import LinearCostModel
from repro.core.problem import (
    CPU,
    ConsolidatedWorkload,
    ResourceAllocation,
    VirtualizationDesignProblem,
)
from repro.exceptions import EstimationError, OptimizationError
from repro.workloads.units import mixed_cpu_workload
from repro.workloads.workload import Workload, WorkloadStatement


@pytest.fixture()
def cpu_problem(tpch_sf1_queries, db2_calibration):
    """Two DB2 workloads with different CPU appetites, CPU-only allocation."""
    cpu_heavy = mixed_cpu_workload("heavy", tpch_sf1_queries, "db2", 8, 2)
    io_heavy = mixed_cpu_workload("light", tpch_sf1_queries, "db2", 0, 2)
    return VirtualizationDesignProblem(
        tenants=(
            ConsolidatedWorkload(workload=cpu_heavy, calibration=db2_calibration),
            ConsolidatedWorkload(workload=io_heavy, calibration=db2_calibration),
        ),
        resources=(CPU,),
        fixed_memory_fraction=512.0 / 8192.0,
    )


@pytest.fixture()
def multi_problem(tpch_sf1_queries, db2_calibration, pg_calibration):
    db2_workload = Workload("db2-w", (WorkloadStatement(tpch_sf1_queries["q18"], 3.0),))
    pg_workload = Workload("pg-w", (WorkloadStatement(tpch_sf1_queries["q17"], 2.0),))
    return VirtualizationDesignProblem(
        tenants=(
            ConsolidatedWorkload(workload=db2_workload, calibration=db2_calibration),
            ConsolidatedWorkload(workload=pg_workload, calibration=pg_calibration),
        ),
    )


class TestWhatIfCostEstimator:
    def test_costs_are_positive_seconds(self, multi_problem):
        estimator = WhatIfCostEstimator(multi_problem)
        for index in range(multi_problem.n_workloads):
            cost = estimator.cost(index, ResourceAllocation(0.5, 0.5))
            assert 0 < cost < 1e6

    def test_more_cpu_never_hurts(self, cpu_problem):
        estimator = WhatIfCostEstimator(cpu_problem)
        costs = [
            estimator.cost(0, cpu_problem.make_allocation(share))
            for share in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(later <= earlier * 1.0001 for earlier, later in zip(costs, costs[1:]))

    def test_cache_avoids_repeated_work(self, cpu_problem):
        costs = CachedCostFunction(
            cpu_problem, WhatIfCostEstimator(cpu_problem), CostCache()
        )
        allocation = cpu_problem.make_allocation(0.5)
        first = costs.cost(0, allocation)
        calls_after_first = costs.call_count
        assert costs.cost(0, allocation) == first
        assert costs.call_count == calls_after_first == 1

    def test_weighted_cost_applies_gain_factor(self, tpch_sf1_queries, db2_calibration):
        workload = Workload("w", (WorkloadStatement(tpch_sf1_queries["q18"], 1.0),))
        problem = VirtualizationDesignProblem(
            tenants=(
                ConsolidatedWorkload(workload=workload, calibration=db2_calibration,
                                     gain_factor=4.0),
            ),
        )
        estimator = WhatIfCostEstimator(problem)
        allocation = ResourceAllocation(0.5, 0.5)
        assert estimator.weighted_cost(0, allocation) == pytest.approx(
            4.0 * estimator.cost(0, allocation)
        )

    def test_degradation_is_one_at_full_allocation(self, multi_problem):
        estimator = WhatIfCostEstimator(multi_problem)
        assert estimator.degradation(0, multi_problem.full_allocation()) == pytest.approx(1.0)
        assert estimator.degradation(0, ResourceAllocation(0.2, 0.2)) >= 1.0

    def test_invalid_tenant_index_rejected(self, multi_problem):
        estimator = WhatIfCostEstimator(multi_problem)
        with pytest.raises(EstimationError):
            estimator.cost(5, ResourceAllocation(0.5, 0.5))


class TestActualCostFunction:
    def test_actuals_differ_from_estimates(self, multi_problem):
        estimator = WhatIfCostEstimator(multi_problem)
        actuals = ActualCostFunction(multi_problem)
        allocation = ResourceAllocation(0.5, 0.5)
        estimated = estimator.cost(0, allocation)
        actual = actuals.cost(0, allocation)
        assert actual > 0
        assert actual != pytest.approx(estimated, rel=1e-6)

    def test_environment_applies_contention(self, multi_problem):
        noisy = ActualCostFunction(multi_problem, io_contention_intensity=1.0)
        quiet = ActualCostFunction(multi_problem, io_contention_intensity=0.0)
        allocation = ResourceAllocation(0.5, 0.0625)
        assert noisy.cost(1, allocation) > quiet.cost(1, allocation)

    def test_full_memory_allocation_is_feasible(self, multi_problem):
        actuals = ActualCostFunction(multi_problem)
        cost = actuals.cost(0, ResourceAllocation(1.0, 1.0))
        assert cost > 0


class TestModelCostFunction:
    def test_uses_model_when_available(self, cpu_problem):
        model = LinearCostModel(alpha=10.0, beta=5.0, resource=CPU)
        costs = ModelCostFunction(cpu_problem, {0: model},
                                  fallback=WhatIfCostEstimator(cpu_problem))
        allocation = cpu_problem.make_allocation(0.5)
        assert costs.cost(0, allocation) == pytest.approx(25.0)
        # Tenant 1 has no model and falls back to the estimator.
        assert costs.cost(1, allocation) > 0

    def test_no_model_and_no_fallback_raises(self, cpu_problem):
        costs = ModelCostFunction(cpu_problem, {})
        with pytest.raises(EstimationError):
            costs.cost(0, cpu_problem.make_allocation(0.5))

    def test_negative_model_costs_clamped(self, cpu_problem):
        model = LinearCostModel(alpha=1.0, beta=-100.0, resource=CPU)
        costs = ModelCostFunction(cpu_problem, {0: model, 1: model})
        assert costs.cost(0, cpu_problem.make_allocation(0.9)) == 0.0


class TestGreedyEnumerator:
    def test_allocations_are_feasible(self, cpu_problem):
        enumerator = GreedyConfigurationEnumerator()
        result = enumerator.enumerate(cpu_problem, WhatIfCostEstimator(cpu_problem))
        cpu_problem.validate_allocations(result.allocations)
        assert result.total_cost > 0
        assert result.iterations >= 1

    def test_cpu_heavy_workload_receives_more_cpu(self, cpu_problem):
        enumerator = GreedyConfigurationEnumerator()
        result = enumerator.enumerate(cpu_problem, WhatIfCostEstimator(cpu_problem))
        assert result.allocations[0].cpu_share > result.allocations[1].cpu_share

    def test_never_worse_than_default(self, cpu_problem):
        estimator = WhatIfCostEstimator(cpu_problem)
        enumerator = GreedyConfigurationEnumerator()
        result = enumerator.enumerate(cpu_problem, estimator)
        default_cost = estimator.total_weighted_cost(cpu_problem.default_allocation())
        assert result.weighted_cost <= default_cost + 1e-9

    def test_respects_min_share(self, cpu_problem):
        enumerator = GreedyConfigurationEnumerator(min_share=0.2)
        result = enumerator.enumerate(cpu_problem, WhatIfCostEstimator(cpu_problem))
        assert all(a.cpu_share >= 0.2 - 1e-9 for a in result.allocations)

    def test_degradation_limit_blocks_reductions(self, tpch_sf1_queries,
                                                 db2_calibration):
        heavy = mixed_cpu_workload("heavy", tpch_sf1_queries, "db2", 8, 2)
        light = mixed_cpu_workload("light", tpch_sf1_queries, "db2", 0, 2)
        constrained = VirtualizationDesignProblem(
            tenants=(
                ConsolidatedWorkload(workload=heavy, calibration=db2_calibration),
                ConsolidatedWorkload(workload=light, calibration=db2_calibration,
                                     degradation_limit=1.0),
            ),
            resources=(CPU,),
            fixed_memory_fraction=512.0 / 8192.0,
        )
        estimator = WhatIfCostEstimator(constrained)
        result = GreedyConfigurationEnumerator().enumerate(constrained, estimator)
        # With L=1 (no degradation allowed), the constrained workload keeps
        # its default share.
        assert result.allocations[1].cpu_share >= 0.5 - 1e-9

    def test_gain_factor_attracts_resources(self, tpch_sf1_queries, db2_calibration):
        def problem(gain):
            workloads = [
                mixed_cpu_workload(f"w{i}", tpch_sf1_queries, "db2", 1, 0)
                for i in range(3)
            ]
            tenants = tuple(
                ConsolidatedWorkload(
                    workload=w, calibration=db2_calibration,
                    gain_factor=gain if i == 0 else 1.0,
                )
                for i, w in enumerate(workloads)
            )
            return VirtualizationDesignProblem(
                tenants=tenants, resources=(CPU,), fixed_memory_fraction=0.0625
            )

        plain = GreedyConfigurationEnumerator().enumerate(
            problem(1.0), WhatIfCostEstimator(problem(1.0))
        )
        boosted_problem = problem(8.0)
        boosted = GreedyConfigurationEnumerator().enumerate(
            boosted_problem, WhatIfCostEstimator(boosted_problem)
        )
        assert boosted.allocations[0].cpu_share >= plain.allocations[0].cpu_share

    def test_invalid_configuration_rejected(self):
        with pytest.raises(OptimizationError):
            GreedyConfigurationEnumerator(delta=0.0)
        with pytest.raises(OptimizationError):
            GreedyConfigurationEnumerator(max_iterations=0)


class TestExhaustiveSearch:
    def test_matches_or_beats_greedy(self, cpu_problem):
        estimator = WhatIfCostEstimator(cpu_problem)
        greedy = GreedyConfigurationEnumerator(delta=0.1, min_share=0.1)
        exhaustive = ExhaustiveSearch(delta=0.1, min_share=0.1)
        greedy_result = greedy.enumerate(cpu_problem, estimator)
        exhaustive_result = exhaustive.search(cpu_problem, estimator)
        assert exhaustive_result.weighted_cost <= greedy_result.weighted_cost + 1e-9
        # The paper reports greedy stays within 5% of optimal.
        assert greedy_result.weighted_cost <= exhaustive_result.weighted_cost * 1.05

    def test_combination_guard(self, cpu_problem):
        search = ExhaustiveSearch(delta=0.05, max_combinations=3)
        with pytest.raises(OptimizationError):
            search.search(cpu_problem, WhatIfCostEstimator(cpu_problem))

    def test_grid_generation_respects_minimum(self):
        search = ExhaustiveSearch(delta=0.25, min_share=0.25)
        grid = search._share_grid(2)
        assert all(sum(combo) == pytest.approx(1.0) for combo in grid)
        assert all(min(combo) >= 0.25 for combo in grid)

    def test_min_share_too_large_rejected(self):
        search = ExhaustiveSearch(delta=0.25, min_share=0.5)
        with pytest.raises(OptimizationError):
            search._share_grid(3)
