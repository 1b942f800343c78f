"""Tests for the DP-exact search engine and the batched cost API.

The dynamic program must return the same optimum as brute-force
:class:`~repro.core.enumerator.ExhaustiveSearch` on every problem both can
solve (checked property-based over random small problems, with and without
degradation limits), ``cost_many`` must agree with repeated ``cost``
calls — including the ``call_count`` / cache-statistics accounting — and
the greedy enumerator, which reuses unchanged tenants' probes, must give
the answers of a loop that probes every tenant on every iteration.
"""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Advisor, CachedCostFunction, CostCache, ENUMERATORS
from repro.core.cost_estimator import (
    ActualCostFunction,
    CostFunction,
    WhatIfCostEstimator,
)
from repro.core.enumerator import (
    DynamicProgrammingSearch,
    EnumerationResult,
    ExhaustiveSearch,
    GreedyConfigurationEnumerator,
)
from repro.core.problem import (
    CPU,
    MEMORY,
    ConsolidatedWorkload,
    ResourceAllocation,
    VirtualizationDesignProblem,
)
from repro.exceptions import EstimationError, OptimizationError
from repro.workloads.workload import Workload, WorkloadStatement


class SyntheticCostFunction(CostFunction):
    """Deterministic monotone cost surface for search-equivalence tests.

    ``params[i] = (cpu_weight, mem_weight, base)``; more of either resource
    never hurts, and the weights differentiate the tenants' appetites.
    """

    def __init__(self, problem, params) -> None:
        super().__init__(problem)
        self.params = params

    def _cost(self, tenant_index, allocation):
        cpu_weight, mem_weight, base = self.params[tenant_index]
        return (
            cpu_weight / (allocation.cpu_share + 0.1)
            + mem_weight / (allocation.memory_fraction + 0.1)
            + base
        )


def _problem(tpch_sf1_queries, db2_calibration, gains, limits, resources):
    # One Workload object per tenant: the CostCache keys on workload
    # identity, so tenants sharing one object would share cached costs,
    # while SyntheticCostFunction gives each tenant its own surface.
    statements = (WorkloadStatement(tpch_sf1_queries["q18"], 1.0),)
    tenants = tuple(
        ConsolidatedWorkload(
            workload=Workload(f"w{index}", statements),
            calibration=db2_calibration,
            gain_factor=gain,
            degradation_limit=limit,
        )
        for index, (gain, limit) in enumerate(zip(gains, limits))
    )
    return VirtualizationDesignProblem(
        tenants=tenants, resources=resources, fixed_memory_fraction=0.0625
    )


class TestDynamicProgrammingMatchesBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_optimum_on_random_small_problems(
        self, data, tpch_sf1_queries, db2_calibration
    ):
        n = data.draw(st.integers(min_value=2, max_value=3), label="tenants")
        delta = data.draw(st.sampled_from([0.1, 0.2, 0.25, 0.5]), label="delta")
        if round(1.0 / delta) < n:
            delta = 0.25
        multi = data.draw(st.booleans(), label="multi_resource")
        gains = data.draw(
            st.lists(st.floats(1.0, 8.0), min_size=n, max_size=n), label="gains"
        )
        limits = data.draw(
            st.lists(
                st.sampled_from([math.inf, 1.2, 1.5, 2.5]), min_size=n, max_size=n
            ),
            label="limits",
        )
        params = data.draw(
            st.lists(
                st.tuples(
                    st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.0, 10.0)
                ),
                min_size=n,
                max_size=n,
            ),
            label="params",
        )
        resources = (CPU, MEMORY) if multi else (CPU,)
        problem = _problem(tpch_sf1_queries, db2_calibration, gains, limits, resources)

        brute = ExhaustiveSearch(delta=delta, min_share=delta)
        dp = DynamicProgrammingSearch(delta=delta, min_share=delta)
        try:
            expected = brute.search(
                problem, SyntheticCostFunction(problem, params)
            )
        except OptimizationError:
            # No feasible grid allocation — the DP must agree.
            with pytest.raises(OptimizationError):
                dp.search(problem, SyntheticCostFunction(problem, params))
            return
        actual = dp.search(problem, SyntheticCostFunction(problem, params))

        assert actual.weighted_cost == pytest.approx(
            expected.weighted_cost, rel=1e-12, abs=1e-12
        )
        problem.validate_allocations(actual.allocations)
        # The DP's allocation really achieves its reported weighted cost
        # (tied optima may differ from the brute force's pick).
        check = SyntheticCostFunction(problem, params)
        assert check.total_weighted_cost(actual.allocations) == pytest.approx(
            actual.weighted_cost, rel=1e-12
        )

    def test_same_optimum_with_what_if_estimator(
        self, tpch_sf1_queries, db2_calibration
    ):
        for resources in ((CPU,), (CPU, MEMORY)):
            problem = _problem(
                tpch_sf1_queries, db2_calibration,
                gains=(2.0, 1.0, 1.0), limits=(math.inf, 1.8, math.inf),
                resources=resources,
            )
            estimator = WhatIfCostEstimator(problem)
            expected = ExhaustiveSearch(delta=0.1, min_share=0.1).search(
                problem, estimator
            )
            actual = DynamicProgrammingSearch(delta=0.1, min_share=0.1).search(
                problem, estimator
            )
            assert actual.weighted_cost == pytest.approx(
                expected.weighted_cost, rel=1e-12
            )

    def test_four_tenant_multi_resource_fine_grid(
        self, tpch_sf1_queries, db2_calibration
    ):
        """delta=0.05 with 4 tenants and both resources: beyond the brute
        force's 2M-combination budget, seconds for the DP."""
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 2.0, 1.0, 4.0), limits=(math.inf,) * 4,
            resources=(CPU, MEMORY),
        )
        params = [(5.0, 1.0, 0.1), (1.0, 8.0, 0.2), (3.0, 3.0, 0.0), (0.5, 0.5, 1.0)]
        brute = ExhaustiveSearch(delta=0.05, min_share=0.0)
        with pytest.raises(OptimizationError):
            brute.search(problem, SyntheticCostFunction(problem, params))
        started = time.perf_counter()
        result = DynamicProgrammingSearch(delta=0.05, min_share=0.0).search(
            problem, SyntheticCostFunction(problem, params)
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0
        problem.validate_allocations(result.allocations)
        greedy = GreedyConfigurationEnumerator(delta=0.05, min_share=0.0).enumerate(
            problem, SyntheticCostFunction(problem, params)
        )
        assert result.weighted_cost <= greedy.weighted_cost + 1e-9

    def test_min_share_rounds_up_to_one_grid_unit(
        self, tpch_sf1_queries, db2_calibration
    ):
        # delta=0.1 with the advisor's default min_share=0.05 used to
        # compute min_units=round(0.5)=0 (banker's rounding), putting a
        # zero share on the grid and crashing the first cost evaluation.
        # The minimum now rounds *up*: no tenant may fall below one unit.
        search = DynamicProgrammingSearch(delta=0.1, min_share=0.05)
        assert search.effective_min_share == pytest.approx(0.1)
        assert ExhaustiveSearch(
            delta=0.1, min_share=0.05
        ).effective_min_share == pytest.approx(0.1)
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 2.0), limits=(math.inf, math.inf), resources=(CPU,),
        )
        result = search.search(
            problem, SyntheticCostFunction(problem, ((1.0, 1.0, 0.0),) * 2)
        )
        assert all(a.cpu_share >= 0.1 - 1e-9 for a in result.allocations)
        # The advisor-level pairing from the docs works end to end.
        report = Advisor(enumerator="exhaustive-dp", delta=0.1).recommend(problem)
        assert all(a.cpu_share >= 0.1 - 1e-9 for a in report.allocations)

    def test_registered_as_strategy(self):
        search = ENUMERATORS.create("exhaustive-dp", delta=0.2, min_share=0.2)
        assert isinstance(search, DynamicProgrammingSearch)
        assert search.delta == 0.2


class TestCostMany:
    @pytest.fixture()
    def problem(self, tpch_sf1_queries, db2_calibration):
        return _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 2.0), limits=(math.inf, math.inf),
            resources=(CPU, MEMORY),
        )

    @pytest.fixture()
    def allocations(self):
        shares = [0.2, 0.4, 0.6, 0.8]
        batch = [
            ResourceAllocation(cpu_share=cpu, memory_fraction=memory)
            for cpu in shares
            for memory in shares
        ]
        batch.append(batch[0])  # a duplicate: evaluated once, like cost()
        return batch

    @pytest.mark.parametrize("family", [WhatIfCostEstimator, ActualCostFunction])
    def test_matches_repeated_cost_calls(self, family, problem, allocations):
        sequential = family(problem)
        batched = family(problem)
        expected = [sequential.cost(1, a) for a in allocations]
        actual = batched.cost_many(1, allocations)
        assert actual == expected
        assert batched.call_count == sequential.call_count

    def test_cached_cost_function_accounting(self, problem, allocations):
        sequential = CachedCostFunction(problem, WhatIfCostEstimator(problem), CostCache())
        batched = CachedCostFunction(problem, WhatIfCostEstimator(problem), CostCache())
        expected = [sequential.cost(0, a) for a in allocations]
        actual = batched.cost_many(0, allocations)
        assert actual == expected
        assert batched.evaluations == sequential.evaluations
        assert batched.cache.hits == sequential.cache.hits
        assert batched.cache.misses == sequential.cache.misses
        # A second batch is answered entirely from the shared cache.
        evaluations = batched.evaluations
        assert batched.cost_many(0, allocations) == expected
        assert batched.evaluations == evaluations

        # Pre-warmed: the first five keys are already cached, and the batch
        # repeats one cached key (the fixture's copy of allocations[0]) and
        # one missing key (allocations[9]).
        batch = allocations + [allocations[9]]
        sequential = CachedCostFunction(problem, WhatIfCostEstimator(problem), CostCache())
        batched = CachedCostFunction(problem, WhatIfCostEstimator(problem), CostCache())
        for costs in (sequential, batched):
            for allocation in allocations[:5]:
                costs.cost(0, allocation)
        expected = [sequential.cost(0, a) for a in batch]
        assert batched.cost_many(0, batch) == expected
        assert batched.evaluations == sequential.evaluations
        assert (batched.cache.hits, batched.cache.misses) == (
            sequential.cache.hits,
            sequential.cache.misses,
        )
        assert (sequential.cache.hits, sequential.cache.misses) == (7, 5 + 11)

    def test_cost_many_rejects_bad_tenant_index(self, problem):
        estimator = WhatIfCostEstimator(problem)
        with pytest.raises(EstimationError):
            estimator.cost_many(7, [ResourceAllocation(0.5, 0.5)])


class TestGreedyProbeApplyConsistency:
    def test_share_never_exceeds_one_under_accumulated_drift(
        self, tpch_sf1_queries, db2_calibration
    ):
        """A tenant within delta of a full share gets a clamped step; the
        applied allocation is the probed one, so accumulated 0.05-steps end
        at exactly 1.0 instead of drifting past it."""
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(8.0, 1.0), limits=(math.inf, math.inf), resources=(CPU,),
        )
        # Tenant 0 benefits enormously from CPU; tenant 1 barely needs it.
        costs = SyntheticCostFunction(problem, [(1000.0, 0.0, 0.0), (0.01, 0.0, 0.0)])
        result = GreedyConfigurationEnumerator(
            delta=0.05, min_share=0.0
        ).enumerate(problem, costs)
        assert all(a.cpu_share <= 1.0 for a in result.allocations)
        problem.validate_allocations(result.allocations)
        assert result.allocations[0].cpu_share == pytest.approx(1.0)
        # The reported weighted cost matches the final allocations.
        assert result.weighted_cost == pytest.approx(
            costs.total_weighted_cost(result.allocations)
        )

    def test_reduction_within_float_noise_of_zero_is_probed_at_zero(
        self, tpch_sf1_queries, db2_calibration
    ):
        """Tenant 1's memory falls from 0.5 in 0.02 steps and lands a hair
        above zero; the probe of one more reduction is a legal move (it
        reaches ``min_share = 0``), so it must be priced at share 0 rather
        than fail to build a share of ``-1.7e-16``."""
        problem = _problem(
            tpch_sf1_queries, db2_calibration,
            gains=(1.0, 1.0), limits=(math.inf, math.inf), resources=(CPU, MEMORY),
        )
        params = [(1.0, 50.0, 0.0), (1.0, 0.3, 0.0)]
        costs = SyntheticCostFunction(problem, params)
        result = GreedyConfigurationEnumerator(delta=0.02, min_share=0.0).enumerate(
            problem, costs
        )
        problem.validate_allocations(result.allocations)
        assert all(
            0.0 <= share <= 1.0
            for allocation in result.allocations
            for share in allocation.as_tuple()
        )
        assert result.allocations[1].memory_fraction < 0.02
        report = Advisor(
            delta=0.02, min_share=0.0, cost_function=SyntheticCostFunction(problem, params)
        ).recommend(problem)
        assert report.allocations == result.allocations
        assert report.recommendation.per_workload_costs == result.per_workload_costs


def _reference_greedy(enumerator, problem, cost_function):
    """The greedy loop as it was before probes were reused: every
    iteration probes every tenant and resource again."""
    n = problem.n_workloads
    calls_before = cost_function.call_count
    allocations = list(problem.default_allocation())
    full_costs = {
        i: cost_function.cost(i, problem.full_allocation())
        for i in range(n)
        if problem.tenant(i).degradation_limit != math.inf
    }
    if full_costs:
        enumerator._repair_degradation(problem, cost_function, full_costs, allocations)
    gains = [problem.tenant(i).gain_factor for i in range(n)]
    bounds = {
        i: problem.tenant(i).degradation_limit * base + 1e-9
        for i, base in full_costs.items()
        if base > 0
    }
    weighted = [gains[i] * cost_function.cost(i, allocations[i]) for i in range(n)]
    delta, min_share = enumerator.delta, enumerator.min_share
    iterations = 0
    while iterations < enumerator.max_iterations:
        iterations += 1
        best_move = None
        max_diff = 0.0
        for resource in problem.resources:
            max_gain, min_loss = 0.0, math.inf
            i_gain = i_lose = gain_alloc = lose_alloc = None
            gain_cost = lose_cost = 0.0
            for i in range(n):
                share = allocations[i].get(resource)
                increased = reduced = None
                if share + delta <= 1.0 + 1e-9:
                    increased = allocations[i].with_resource(
                        resource, min(1.0, share + delta)
                    )
                if share - delta >= min_share - 1e-9:
                    reduced = allocations[i].shifted(resource, -delta)
                probes = [a for a in (increased, reduced) if a is not None]
                if not probes:
                    continue
                raw = cost_function.cost_many(i, probes)
                position = 0
                if increased is not None:
                    cost_up = gains[i] * raw[position]
                    position += 1
                    gain = weighted[i] - cost_up
                    if gain > max_gain:
                        max_gain, i_gain = gain, i
                        gain_alloc, gain_cost = increased, cost_up
                if reduced is not None:
                    raw_down = raw[position]
                    cost_down = gains[i] * raw_down
                    loss = cost_down - weighted[i]
                    bound = bounds.get(i)
                    if loss < min_loss and (bound is None or raw_down <= bound):
                        min_loss, i_lose = loss, i
                        lose_alloc, lose_cost = reduced, cost_down
            if (
                i_gain is not None
                and i_lose is not None
                and i_gain != i_lose
                and max_gain - min_loss > max_diff
            ):
                max_diff = max_gain - min_loss
                best_move = (i_gain, i_lose, gain_alloc, lose_alloc, gain_cost, lose_cost)
        if best_move is None or max_diff <= 0.0:
            break
        i_gain, i_lose, gain_alloc, lose_alloc, gain_cost, lose_cost = best_move
        allocations[i_gain], allocations[i_lose] = gain_alloc, lose_alloc
        weighted[i_gain], weighted[i_lose] = gain_cost, lose_cost
    per_costs = tuple(cost_function.cost(i, allocations[i]) for i in range(n))
    return EnumerationResult(
        allocations=tuple(allocations),
        per_workload_costs=per_costs,
        total_cost=sum(per_costs),
        weighted_cost=sum(gains[i] * per_costs[i] for i in range(n)),
        iterations=iterations,
        cost_calls=cost_function.call_count - calls_before,
    )


class TestGreedyMatchesReprobingLoop:
    """Reusing unchanged tenants' probes must not move one float."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_same_answer_and_evaluations(self, data, tpch_sf1_queries, db2_calibration):
        n = data.draw(st.integers(min_value=1, max_value=6), label="tenants")
        delta = data.draw(st.sampled_from([0.05, 0.1, 0.25]), label="delta")
        resources = data.draw(st.sampled_from([(CPU,), (CPU, MEMORY)]), label="resources")
        gains = data.draw(
            st.lists(st.floats(1.0, 8.0), min_size=n, max_size=n), label="gains"
        )
        if data.draw(st.booleans(), label="limited"):
            limits = data.draw(
                st.lists(
                    st.sampled_from([math.inf, 1.2, 1.5, 2.5]), min_size=n, max_size=n
                ),
                label="limits",
            )
        else:
            limits = [math.inf] * n
        params = data.draw(
            st.lists(
                st.tuples(
                    st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.0, 10.0)
                ),
                min_size=n,
                max_size=n,
            ),
            label="params",
        )
        problem = _problem(tpch_sf1_queries, db2_calibration, gains, limits, resources)
        workloads = [tenant.workload for tenant in problem.tenants]
        assert len({id(workload) for workload in workloads}) == n
        enumerator = GreedyConfigurationEnumerator(delta=delta)

        def costs():
            # Through a CostCache, so call_count counts distinct evaluations:
            # the two loops must ask about exactly the same allocations.
            return CachedCostFunction(
                problem, SyntheticCostFunction(problem, params), CostCache()
            )

        reference_costs, actual_costs = costs(), costs()
        expected = _reference_greedy(enumerator, problem, reference_costs)
        actual = enumerator.enumerate(problem, actual_costs)
        assert [a.as_tuple() for a in actual.allocations] == [
            a.as_tuple() for a in expected.allocations
        ]
        assert actual.per_workload_costs == expected.per_workload_costs
        assert actual.weighted_cost == expected.weighted_cost
        assert actual.iterations == expected.iterations
        assert actual_costs.call_count == reference_costs.call_count
        assert actual.cost_calls == expected.cost_calls


class TestGreedyPairProbesMatchReference:
    """Probing moves as share pairs, and keeping each tenant's probed raw
    cost instead of looking the final allocations up, must not move one
    float on any grid, cached or not."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_same_answer_on_every_grid(self, data, tpch_sf1_queries, db2_calibration):
        n = data.draw(st.integers(min_value=1, max_value=6), label="tenants")
        delta = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.25]), label="delta")
        min_share = data.draw(st.sampled_from([0.05, 0.1]), label="min_share")
        resources = data.draw(st.sampled_from([(CPU,), (CPU, MEMORY)]), label="resources")
        gains = data.draw(
            st.lists(st.floats(1.0, 8.0), min_size=n, max_size=n), label="gains"
        )
        if data.draw(st.booleans(), label="limited"):
            limits = data.draw(
                st.lists(
                    st.sampled_from([math.inf, 1.2, 1.5, 2.5]), min_size=n, max_size=n
                ),
                label="limits",
            )
        else:
            limits = [math.inf] * n
        params = data.draw(
            st.lists(
                st.tuples(
                    st.floats(0.1, 100.0), st.floats(0.1, 100.0), st.floats(0.0, 10.0)
                ),
                min_size=n,
                max_size=n,
            ),
            label="params",
        )
        problem = _problem(tpch_sf1_queries, db2_calibration, gains, limits, resources)
        enumerator = GreedyConfigurationEnumerator(delta=delta, min_share=min_share)

        def cached():
            return CachedCostFunction(
                problem, SyntheticCostFunction(problem, params), CostCache()
            )

        def same_answer(actual, expected):
            assert [a.as_tuple() for a in actual.allocations] == [
                a.as_tuple() for a in expected.allocations
            ]
            assert actual.per_workload_costs == expected.per_workload_costs
            assert actual.weighted_cost == expected.weighted_cost
            assert actual.iterations == expected.iterations

        # Through a cache, both loops evaluate exactly the same allocations.
        reference_costs, actual_costs = cached(), cached()
        expected = _reference_greedy(enumerator, problem, reference_costs)
        actual = enumerator.enumerate(problem, actual_costs)
        same_answer(actual, expected)
        assert actual_costs.call_count == reference_costs.call_count
        assert actual.cost_calls == expected.cost_calls

        # A bare cost function counts every evaluation, and the reference
        # re-probes every tenant on every iteration, so only the answers
        # are compared.
        bare = _reference_greedy(
            enumerator, problem, SyntheticCostFunction(problem, params)
        )
        same_answer(
            enumerator.enumerate(problem, SyntheticCostFunction(problem, params)), bare
        )
        same_answer(bare, expected)


class TestPlanCacheStatistics:
    def test_report_carries_optimizer_and_plan_cache_counters(
        self, tpch_sf1_queries, machine, fast_calibration
    ):
        # A fresh engine and calibration: the counters start from zero, so
        # the report's deltas are deterministic for this test.
        from repro.calibration import calibrate_engine
        from repro.dbms.db2 import DB2Engine
        from repro.workloads.tpch import tpch_database, tpch_queries

        database = tpch_database(1.0)
        queries = tpch_queries(database)
        calibration = calibrate_engine(
            DB2Engine(database), machine, fast_calibration
        )
        # Two distinct workloads over the same query: the cost cache cannot
        # serve one tenant's estimates to the other, but the engine's plan
        # cache reuses the per-configuration plans across both.
        tenants = tuple(
            ConsolidatedWorkload(
                workload=Workload(
                    f"w{index}",
                    (WorkloadStatement(queries["q18"], float(index + 1)),),
                ),
                calibration=calibration,
            )
            for index in range(2)
        )
        problem = VirtualizationDesignProblem(tenants=tenants, resources=(CPU,))
        advisor = Advisor(delta=0.1, min_share=0.1)
        report = advisor.recommend_exhaustive(problem)
        assert report.provenance.enumerator == "exhaustive-dp"
        assert report.cost_stats.optimizer_calls > 0
        # The second tenant shares the first one's workload and engine, so
        # its whole cost table is answered from the plan cache.
        assert report.cost_stats.plan_cache_hits > 0
        document = report.to_dict()
        assert document["cost_stats"]["optimizer_calls"] > 0
        assert document["cost_stats"]["plan_cache_hits"] > 0
