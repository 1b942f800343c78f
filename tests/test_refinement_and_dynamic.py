"""Tests for online refinement, dynamic management, and the advisor facade."""

import pytest

from repro.api import Advisor
from repro.core.cost_estimator import ActualCostFunction, WhatIfCostEstimator
from repro.core.dynamic import ACTION_DISCARD, ACTION_KEEP, DynamicConfigurationManager
from repro.core.enumerator import GreedyConfigurationEnumerator
from repro.core.problem import (
    CPU,
    ConsolidatedWorkload,
    MEMORY,
    VirtualizationDesignProblem,
)
from repro.core.refinement import BasicOnlineRefinement, GeneralizedOnlineRefinement
from repro.exceptions import ConfigurationError, RefinementError
from repro.monitoring.metrics import improvement_over_default
from repro.workloads.generator import tpcc_workload
from repro.workloads.units import mixed_cpu_workload
from repro.workloads.workload import Workload, WorkloadStatement

FIXED_MEMORY = 512.0 / 8192.0


@pytest.fixture(scope="module")
def tpcc_calibration(machine, tpcc_w10, fast_calibration):
    from repro.calibration import calibrate_engine
    from repro.dbms.db2 import DB2Engine

    return calibrate_engine(DB2Engine(tpcc_w10), machine, fast_calibration)


@pytest.fixture()
def oltp_dss_problem(tpch_sf1_queries, tpcc_w10_transactions, db2_calibration,
                     tpcc_calibration):
    """One OLTP and one DSS workload; the optimizer underestimates the OLTP CPU."""
    oltp = tpcc_workload(tpcc_w10_transactions, "oltp", warehouses_accessed=6,
                         clients_per_warehouse=8)
    dss = mixed_cpu_workload("dss", tpch_sf1_queries, "db2", 6, 4)
    return VirtualizationDesignProblem(
        tenants=(
            ConsolidatedWorkload(workload=oltp, calibration=tpcc_calibration),
            ConsolidatedWorkload(workload=dss, calibration=db2_calibration),
        ),
        resources=(CPU,),
        fixed_memory_fraction=FIXED_MEMORY,
    )


class TestBasicOnlineRefinement:
    def test_rejects_multi_resource_problems(self, tpch_sf1_queries, db2_calibration):
        workload = Workload("w", (WorkloadStatement(tpch_sf1_queries["q18"], 1.0),))
        problem = VirtualizationDesignProblem(
            tenants=(ConsolidatedWorkload(workload=workload,
                                          calibration=db2_calibration),),
            resources=(CPU, MEMORY),
        )
        estimator = WhatIfCostEstimator(problem)
        with pytest.raises(RefinementError):
            BasicOnlineRefinement(problem, estimator, ActualCostFunction(problem))

    def test_refinement_improves_oltp_dss_consolidation(self, oltp_dss_problem):
        estimator = WhatIfCostEstimator(oltp_dss_problem)
        actuals = ActualCostFunction(oltp_dss_problem)
        enumerator = GreedyConfigurationEnumerator()
        initial = enumerator.enumerate(oltp_dss_problem, estimator)
        refinement = BasicOnlineRefinement(
            oltp_dss_problem, estimator, actuals, enumerator=enumerator,
            max_iterations=5,
        )
        result = refinement.run(initial=initial)
        assert result.iteration_count >= 1
        before = actuals.total_cost(initial.allocations)
        after = actuals.total_cost(result.final_allocations)
        assert after <= before * 1.001
        # The OLTP workload ends up with at least as much CPU as before.
        assert (result.final_allocations[0].cpu_share
                >= initial.allocations[0].cpu_share - 1e-9)

    def test_refinement_converges_when_model_is_already_right(self, tpch_sf1_queries,
                                                              db2_calibration):
        workload_a = mixed_cpu_workload("a", tpch_sf1_queries, "db2", 4, 0)
        workload_b = mixed_cpu_workload("b", tpch_sf1_queries, "db2", 4, 0)
        problem = VirtualizationDesignProblem(
            tenants=(
                ConsolidatedWorkload(workload=workload_a, calibration=db2_calibration),
                ConsolidatedWorkload(workload=workload_b, calibration=db2_calibration),
            ),
            resources=(CPU,),
            fixed_memory_fraction=FIXED_MEMORY,
        )
        estimator = WhatIfCostEstimator(problem)
        refinement = BasicOnlineRefinement(
            problem, estimator, ActualCostFunction(problem), max_iterations=4
        )
        result = refinement.run()
        assert result.converged
        # Identical workloads keep the symmetric allocation.
        shares = [a.cpu_share for a in result.final_allocations]
        assert shares[0] == pytest.approx(shares[1], abs=0.06)

    def test_iterations_record_estimates_and_actuals(self, oltp_dss_problem):
        estimator = WhatIfCostEstimator(oltp_dss_problem)
        refinement = BasicOnlineRefinement(
            oltp_dss_problem, estimator, ActualCostFunction(oltp_dss_problem),
            max_iterations=2,
        )
        result = refinement.run()
        for iteration in result.iterations:
            assert len(iteration.estimated_costs) == oltp_dss_problem.n_workloads
            assert all(cost > 0 for cost in iteration.actual_costs)
            assert all(factor > 0 for factor in iteration.scale_factors)


class TestGeneralizedOnlineRefinement:
    def test_requires_memory_resource(self, oltp_dss_problem):
        estimator = WhatIfCostEstimator(oltp_dss_problem)
        with pytest.raises(RefinementError):
            GeneralizedOnlineRefinement(
                oltp_dss_problem, estimator, ActualCostFunction(oltp_dss_problem)
            )

    def test_runs_on_cpu_and_memory_problem(self, tpch_sf1_queries, db2_calibration):
        first = Workload("m1", (WorkloadStatement(tpch_sf1_queries["q18"], 20.0),
                                WorkloadStatement(tpch_sf1_queries["q4"], 20.0)))
        second = Workload("m2", (WorkloadStatement(tpch_sf1_queries["q16"], 200.0),))
        problem = VirtualizationDesignProblem(
            tenants=(
                ConsolidatedWorkload(workload=first, calibration=db2_calibration),
                ConsolidatedWorkload(workload=second, calibration=db2_calibration),
            ),
        )
        estimator = WhatIfCostEstimator(problem)
        actuals = ActualCostFunction(problem)
        enumerator = GreedyConfigurationEnumerator(delta=0.1, min_share=0.1)
        refinement = GeneralizedOnlineRefinement(
            problem, estimator, actuals, enumerator=enumerator, max_iterations=3
        )
        result = refinement.run()
        problem.validate_allocations(result.final_allocations)
        before = actuals.total_cost(result.initial.allocations)
        after = actuals.total_cost(result.final_allocations)
        assert after <= before * 1.05


class TestDynamicConfigurationManager:
    def test_requires_cpu_only_problem(self, tpch_sf1_queries, db2_calibration):
        workload = Workload("w", (WorkloadStatement(tpch_sf1_queries["q18"], 1.0),))
        problem = VirtualizationDesignProblem(
            tenants=(ConsolidatedWorkload(workload=workload,
                                          calibration=db2_calibration),),
        )
        with pytest.raises(ConfigurationError):
            DynamicConfigurationManager(problem)

    def test_detects_major_change_and_reallocates(self, tpch_sf1_queries,
                                                  tpcc_w10_transactions,
                                                  db2_calibration, tpcc_calibration):
        dss = mixed_cpu_workload("dss", tpch_sf1_queries, "db2", 4, 2)
        oltp = tpcc_workload(tpcc_w10_transactions, "oltp", 6, 8)
        dss_tenant = ConsolidatedWorkload(workload=dss, calibration=db2_calibration)
        oltp_tenant = ConsolidatedWorkload(workload=oltp, calibration=tpcc_calibration)
        problem = VirtualizationDesignProblem(
            tenants=(dss_tenant, oltp_tenant), resources=(CPU,),
            fixed_memory_fraction=FIXED_MEMORY,
        )
        manager = DynamicConfigurationManager(problem)
        manager.initial_recommendation()
        first = manager.process_period((dss_tenant, oltp_tenant))
        assert set(first.change_classes) == {"none"}
        # Swap the workloads between the VMs: a major change for both.
        second = manager.process_period((oltp_tenant, dss_tenant))
        assert set(second.change_classes) == {"major"}
        assert set(second.model_actions) == {ACTION_DISCARD}
        # After the switch the DSS workload now runs on the second VM and
        # should receive the larger CPU share.
        assert second.allocations[1].cpu_share > second.allocations[0].cpu_share

    def test_always_refine_never_discards(self, tpch_sf1_queries, db2_calibration):
        first = mixed_cpu_workload("w1", tpch_sf1_queries, "db2", 5, 5)
        second = mixed_cpu_workload("w2", tpch_sf1_queries, "db2", 2, 8)
        tenants = (
            ConsolidatedWorkload(workload=first, calibration=db2_calibration),
            ConsolidatedWorkload(workload=second, calibration=db2_calibration),
        )
        problem = VirtualizationDesignProblem(
            tenants=tenants, resources=(CPU,), fixed_memory_fraction=FIXED_MEMORY
        )
        manager = DynamicConfigurationManager(problem, always_refine=True)
        manager.initial_recommendation()
        swapped = (tenants[1], tenants[0])
        decision = manager.process_period(swapped)
        assert set(decision.model_actions) == {ACTION_KEEP}

    def test_intensity_growth_is_not_a_major_change(self, tpch_sf1_queries,
                                                    db2_calibration):
        base = mixed_cpu_workload("w1", tpch_sf1_queries, "db2", 3, 3)
        other = mixed_cpu_workload("w2", tpch_sf1_queries, "db2", 1, 5)
        tenants = (
            ConsolidatedWorkload(workload=base, calibration=db2_calibration),
            ConsolidatedWorkload(workload=other, calibration=db2_calibration),
        )
        problem = VirtualizationDesignProblem(
            tenants=tenants, resources=(CPU,), fixed_memory_fraction=FIXED_MEMORY
        )
        manager = DynamicConfigurationManager(problem)
        manager.initial_recommendation()
        manager.process_period(tenants)
        grown = (tenants[0].with_workload(base.scaled(2.0)), tenants[1])
        decision = manager.process_period(grown)
        # Doubling every frequency changes intensity, not per-query cost.
        assert decision.change_classes[0] in ("none", "minor")

    def test_process_period_requires_initialization_order(self, tpch_sf1_queries,
                                                          db2_calibration):
        workload = mixed_cpu_workload("w1", tpch_sf1_queries, "db2", 1, 1)
        tenant = ConsolidatedWorkload(workload=workload, calibration=db2_calibration)
        problem = VirtualizationDesignProblem(
            tenants=(tenant,), resources=(CPU,), fixed_memory_fraction=FIXED_MEMORY
        )
        manager = DynamicConfigurationManager(problem)
        decision = manager.process_period((tenant,))
        assert decision.period == 1
        assert len(manager.current_allocations) == 1


class TestAdvisorFacade:
    def test_recommend_reports_improvement_metrics(self, tpch_sf1_queries,
                                                   db2_calibration):
        heavy = mixed_cpu_workload("heavy", tpch_sf1_queries, "db2", 8, 2)
        light = mixed_cpu_workload("light", tpch_sf1_queries, "db2", 0, 3)
        problem = VirtualizationDesignProblem(
            tenants=(
                ConsolidatedWorkload(workload=heavy, calibration=db2_calibration),
                ConsolidatedWorkload(workload=light, calibration=db2_calibration),
            ),
            resources=(CPU,),
            fixed_memory_fraction=FIXED_MEMORY,
        )
        recommendation = Advisor().recommend(problem).recommendation
        assert recommendation.total_cost <= recommendation.default_cost + 1e-9
        assert 0.0 <= recommendation.estimated_improvement < 1.0
        assert recommendation.allocation_of(0).cpu_share > 0.5

    def test_recommend_exhaustive_matches_greedy_closely(self, tpch_sf1_queries,
                                                         db2_calibration):
        heavy = mixed_cpu_workload("heavy", tpch_sf1_queries, "db2", 8, 2)
        light = mixed_cpu_workload("light", tpch_sf1_queries, "db2", 0, 3)
        problem = VirtualizationDesignProblem(
            tenants=(
                ConsolidatedWorkload(workload=heavy, calibration=db2_calibration),
                ConsolidatedWorkload(workload=light, calibration=db2_calibration),
            ),
            resources=(CPU,),
            fixed_memory_fraction=FIXED_MEMORY,
        )
        advisor = Advisor(delta=0.1, min_share=0.1)
        greedy = advisor.recommend(problem)
        optimal = advisor.recommend_exhaustive(problem)
        assert greedy.total_cost <= optimal.total_cost * 1.05

    def test_refine_online_dispatches_by_resource_count(self, oltp_dss_problem):
        result = Advisor().refine(oltp_dss_problem, max_iterations=2)
        assert result.iteration_count >= 1

    def test_measured_improvement_uses_actuals(self, oltp_dss_problem):
        report = Advisor().recommend(oltp_dss_problem)
        improvement = improvement_over_default(
            oltp_dss_problem, report.allocations, ActualCostFunction(oltp_dss_problem)
        )
        assert -2.0 < improvement < 1.0
