"""Tests for the unified advisor API (:mod:`repro.api`).

Covers the builder round-trip, declarative scenarios, the strategy
registries, the shared cost cache, and the serializable recommendation
report — including the acceptance property that a repeated ``recommend``
on an unchanged problem performs zero additional cost-estimator
evaluations.
"""

import copy
import dataclasses
import gc
import json
import math
import weakref

import pytest

from repro.api import (
    Advisor,
    CachedCostFunction,
    CostCache,
    COST_FUNCTIONS,
    ENUMERATORS,
    ProblemBuilder,
    REFINEMENTS,
    RecommendationReport,
    Scenario,
    TenantSpec,
    UnknownStrategyError,
)
from repro.core.cost_estimator import WhatIfCostEstimator
from repro.core.enumerator import (
    DynamicProgrammingSearch,
    GreedyConfigurationEnumerator,
)
from repro.core.problem import (
    CPU,
    ConsolidatedWorkload,
    UNLIMITED_DEGRADATION,
    VirtualizationDesignProblem,
)
from repro.exceptions import ConfigurationError, ReproError
from repro.workloads.workload import Workload, WorkloadStatement

#: A small CPU-only scenario used across the advisor tests: one CPU-hungry
#: and one light DB2 workload, on a coarse grid so searches stay fast.
SCENARIO_DICT = {
    "name": "heavy-vs-light",
    "resources": ["cpu"],
    "fixed_memory_fraction": 0.0625,
    "calibration": {"cpu_shares": [0.25, 0.5, 0.75, 1.0]},
    "tenants": [
        {"name": "heavy", "engine": "db2", "statements": [["q18", 8.0]]},
        {"name": "light", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
    "advisor": {"delta": 0.25, "min_share": 0.25},
}


@pytest.fixture(scope="module")
def scenario() -> Scenario:
    return Scenario.from_dict(SCENARIO_DICT)


@pytest.fixture(scope="module")
def scenario_problem(scenario) -> VirtualizationDesignProblem:
    return scenario.build()


class TestProblemBuilder:
    def test_builder_output_equals_hand_assembled_problem(self):
        builder = ProblemBuilder()
        built = (
            builder
            .cpu_only(fixed_memory_mb=512.0)
            .add_tenant("w", engine="db2", statements=[("q18", 2.0)],
                        gain_factor=2.0)
            .build()
        )
        queries = builder.queries("db2", "tpch", 1.0)
        hand_assembled = VirtualizationDesignProblem(
            tenants=(
                ConsolidatedWorkload(
                    workload=Workload(
                        "w", (WorkloadStatement(queries["q18"], 2.0),)
                    ),
                    calibration=builder.calibration("db2", "tpch", 1.0),
                    gain_factor=2.0,
                ),
            ),
            resources=(CPU,),
            fixed_memory_fraction=512.0 / 8192.0,
        )
        assert built == hand_assembled

    def test_tenants_on_the_same_engine_share_one_calibration(self):
        problem = (
            ProblemBuilder()
            .add_tenant("a", engine="db2", statements=["q18"])
            .add_tenant("b", engine="db2", statements=["q21"])
            .build()
        )
        assert problem.tenants[0].calibration is problem.tenants[1].calibration

    def test_statement_spellings_are_equivalent(self):
        builder = ProblemBuilder()
        first = builder.add_tenant(
            "a", engine="db2", statements=[("q18", 1.0)]
        ).build()
        builder.clear_tenants()
        second = builder.add_tenant(
            "a", engine="db2", statements=["q18"]
        ).build()
        builder.clear_tenants()
        third = builder.add_tenant(
            "a", engine="db2", statements=[{"query": "q18", "frequency": 1.0}]
        ).build()
        assert first == second == third

    def test_unknown_query_is_reported(self):
        with pytest.raises(ConfigurationError, match="unknown query"):
            ProblemBuilder().add_tenant("a", engine="db2", statements=["q99"])

    def test_unknown_engine_is_reported(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            ProblemBuilder().add_tenant("a", engine="oracle", statements=["q18"])

    def test_add_tenant_requires_statements_xor_workload(self):
        with pytest.raises(ConfigurationError):
            ProblemBuilder().add_tenant("a", engine="db2")

    def test_add_tenant_renames_a_prebuilt_workload(self):
        from repro.workloads.workload import Workload, WorkloadStatement

        builder = ProblemBuilder()
        queries = builder.queries("db2", "tpch", 1.0)
        workload = Workload("internal", (WorkloadStatement(queries["q18"], 1.0),))
        problem = builder.add_tenant(
            "public-name", engine="db2", workload=workload
        ).build()
        assert problem.tenant_names() == ["public-name"]

    def test_build_without_tenants_is_rejected(self):
        with pytest.raises(ConfigurationError):
            ProblemBuilder().build()

    def test_with_machine_after_cpu_only_recomputes_fixed_memory(self):
        from repro.virt.machine import PhysicalMachine

        builder = (
            ProblemBuilder()
            .cpu_only(fixed_memory_mb=512.0)
            .with_machine(PhysicalMachine(memory_mb=2048.0))
        )
        # 512 MB keeps meaning 512 MB on the new, smaller machine.
        assert builder._fixed_memory_fraction == pytest.approx(512.0 / 2048.0)
        # ...and an intervening control() choice survives the machine swap.
        from repro.core.problem import MEMORY

        rebuilt = (
            ProblemBuilder()
            .cpu_only(fixed_memory_mb=512.0)
            .control(CPU, MEMORY)
            .with_machine(PhysicalMachine(memory_mb=4096.0))
        )
        assert rebuilt._resources == (CPU, MEMORY)

    def test_invalid_statement_spec_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="statement spec"):
            TenantSpec(name="t", statements=[["q18", 1.0, "extra"]])
        with pytest.raises(ConfigurationError, match="non-numeric frequency"):
            TenantSpec(name="t", statements=[["q18", "fast"]])

    def test_bare_string_statements_are_whole_query_names(self):
        # A 2-character name must not be unpacked character-by-character.
        spec = TenantSpec(name="t", statements=["q1", "q18"])
        assert spec.statements == (("q1", 1.0), ("q18", 1.0))

    def test_unknown_advisor_option_is_rejected_at_parse_time(self):
        with pytest.raises(ConfigurationError, match="advisor option"):
            Scenario.from_dict(
                {"tenants": [{"name": "t", "statements": ["q18"]}],
                 "advisor": {"bogus": 1}}
            )


class TestScenario:
    def test_dict_round_trip(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip(self, scenario):
        assert Scenario.from_json(scenario.to_json(indent=2)) == scenario

    def test_unknown_option_is_rejected(self):
        data = dict(SCENARIO_DICT)
        data["enumerator"] = "greedy"
        with pytest.raises(ConfigurationError, match="unknown scenario option"):
            Scenario.from_dict(data)

    def test_builds_the_declared_problem(self, scenario, scenario_problem):
        assert scenario_problem.tenant_names() == ["heavy", "light"]
        assert scenario_problem.resources == (CPU,)
        assert not scenario_problem.controls_memory
        assert all(
            tenant.degradation_limit == UNLIMITED_DEGRADATION
            for tenant in scenario_problem.tenants
        )

    def test_tenant_spec_normalizes_statements(self):
        spec = TenantSpec(name="t", statements=[["q18", 2]])
        assert spec.statements == (("q18", 2.0),)

    def test_missing_required_keys_raise_configuration_error(self):
        with pytest.raises(ConfigurationError, match="'name'"):
            Scenario.from_dict({"tenants": [{"statements": [["q18", 1.0]]}]})
        with pytest.raises(ConfigurationError, match="'query'"):
            Scenario.from_dict(
                {"tenants": [{"name": "t", "statements": [{"frequency": 1.0}]}]}
            )

    def test_duplicate_tenant_names_are_rejected(self):
        tenants = [dict(tenant, name="a") for tenant in SCENARIO_DICT["tenants"]]
        with pytest.raises(ConfigurationError, match="duplicate tenant name.*'a'"):
            Scenario.from_dict({**SCENARIO_DICT, "tenants": tenants})

    def test_builder_reuse_across_variants_shares_calibration(self, scenario):
        variant = Scenario.from_dict({**SCENARIO_DICT, "name": "variant"})
        builder = scenario.to_builder()
        first = builder.build()
        second = variant.build(builder)
        assert first.tenants[0].calibration is second.tenants[0].calibration

    def test_builder_reuse_rejects_incompatible_specs(self, scenario):
        builder = scenario.to_builder()
        incompatible = Scenario.from_dict(
            {**SCENARIO_DICT, "name": "other",
             "calibration": {"cpu_shares": [0.5, 1.0]}}
        )
        with pytest.raises(ConfigurationError, match="reused builder"):
            incompatible.to_builder(builder)
        mismatched_machine = Scenario.from_dict(
            {**SCENARIO_DICT, "name": "small", "machine": {"memory_mb": 2048}}
        )
        with pytest.raises(ConfigurationError, match="memory_mb"):
            mismatched_machine.to_builder(builder)


#: Non-finite tenant inputs a scenario document can carry (Python's JSON
#: parser accepts ``NaN`` and ``Infinity``): each must be rejected.
NON_FINITE_TENANT_INPUTS = [
    pytest.param({"statements": [["q18", math.nan]]}, id="frequency-nan"),
    pytest.param({"statements": [["q18", math.inf]]}, id="frequency-inf"),
    pytest.param({"gain_factor": math.nan}, id="gain-factor-nan"),
    pytest.param({"gain_factor": math.inf}, id="gain-factor-inf"),
    pytest.param({"degradation_limit": math.nan}, id="degradation-limit-nan"),
]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("overrides", NON_FINITE_TENANT_INPUTS)
    def test_rejected_instead_of_answered(self, overrides):
        document = copy.deepcopy(SCENARIO_DICT)
        document["tenants"][0].update(overrides)
        with pytest.raises(ReproError):
            scenario = Scenario.from_dict(document)
            Advisor(**scenario.advisor).recommend(scenario.build())


class TestStrategyRegistries:
    def test_builtin_enumerators(self):
        greedy = ENUMERATORS.create("greedy", delta=0.2, min_share=0.2)
        assert isinstance(greedy, GreedyConfigurationEnumerator)
        assert greedy.delta == 0.2
        exhaustive = ENUMERATORS.create("exhaustive-dp", delta=0.25)
        assert isinstance(exhaustive, DynamicProgrammingSearch)
        # Brute force is the tests' reference for the DP, not a strategy.
        assert "exhaustive" not in ENUMERATORS

    def test_builtin_cost_functions_and_refinements(self):
        assert {"actual", "what-if"} <= set(COST_FUNCTIONS.names())
        assert {"basic", "generalized"} <= set(REFINEMENTS.names())

    def test_unknown_name_lists_registered_strategies(self, scenario_problem):
        with pytest.raises(UnknownStrategyError, match="greedy"):
            ENUMERATORS.create("simulated-annealing")
        assert issubclass(UnknownStrategyError, ConfigurationError)
        # Cost-function names resolve lazily, on the first recommend.
        with pytest.raises(ConfigurationError, match="unknown cost function"):
            Advisor(cost_function="what-if-typo").recommend(scenario_problem)

    def test_custom_strategy_registration(self, scenario_problem):
        ENUMERATORS.register(
            "coarse-greedy",
            lambda **_: GreedyConfigurationEnumerator(delta=0.25, min_share=0.25),
            overwrite=True,
        )
        report = Advisor(enumerator="coarse-greedy").recommend(scenario_problem)
        assert report.provenance.enumerator == "coarse-greedy"
        scenario_problem.validate_allocations(report.allocations)

    def test_duplicate_registration_requires_overwrite(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            ENUMERATORS.register("greedy", lambda **_: None)


class TestCostCallStats:
    """Arithmetic of the cost-call accounting (service /stats sums these)."""

    def test_add_aggregates_every_field(self):
        from repro.api import CostCallStats

        a = CostCallStats(
            evaluations=3, cache_hits=5, cache_misses=3,
            optimizer_calls=2, plan_cache_hits=1,
        )
        b = CostCallStats(
            evaluations=4, cache_hits=1, cache_misses=4,
            optimizer_calls=0, plan_cache_hits=6,
        )
        total = a + b
        assert total == CostCallStats(
            evaluations=7, cache_hits=6, cache_misses=7,
            optimizer_calls=2, plan_cache_hits=7,
        )

    def test_add_rejects_foreign_types(self):
        from repro.api import CostCallStats

        stats = CostCallStats(evaluations=1, cache_hits=1, cache_misses=1)
        with pytest.raises(TypeError):
            stats + 1  # noqa: B018 — the operator itself is under test

    def test_radd_absorbs_sum_zero_start(self):
        from repro.api import CostCallStats

        stats = CostCallStats(evaluations=2, cache_hits=3, cache_misses=2)
        assert 0 + stats == stats
        with pytest.raises(TypeError):
            1 + stats  # noqa: B018 — only sum()'s zero start is absorbed

    def test_sum_over_a_list_of_stats(self):
        from repro.api import CostCallStats

        parts = [
            CostCallStats(evaluations=i, cache_hits=2 * i, cache_misses=i)
            for i in range(1, 4)
        ]
        total = sum(parts)
        assert total == CostCallStats(evaluations=6, cache_hits=12, cache_misses=6)
        assert total.hit_rate == pytest.approx(12 / 18)


class TestCostCache:
    def test_hit_and_miss_counting(self, scenario_problem):
        cache = CostCache()
        costs = CachedCostFunction(
            scenario_problem, WhatIfCostEstimator(scenario_problem), cache
        )
        allocation = scenario_problem.default_allocation()[0]
        first = costs.cost(0, allocation)
        assert (cache.hits, cache.misses) == (0, 1)
        assert costs.cost(0, allocation) == first
        assert (cache.hits, cache.misses) == (1, 1)
        assert costs.evaluations == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_cache_is_shared_across_cost_function_instances(self, scenario_problem):
        cache = CostCache()
        allocation = scenario_problem.default_allocation()[0]
        first = CachedCostFunction(
            scenario_problem, WhatIfCostEstimator(scenario_problem), cache
        )
        value = first.cost(0, allocation)
        second = CachedCostFunction(
            scenario_problem, WhatIfCostEstimator(scenario_problem), cache
        )
        assert second.cost(0, allocation) == value
        assert second.evaluations == 0  # answered entirely from the shared cache

    def test_generational_reset_bounds_memory(self, scenario_problem):
        cache = CostCache(max_entries=2)
        costs = CachedCostFunction(
            scenario_problem, WhatIfCostEstimator(scenario_problem), cache
        )
        for share in (0.25, 0.5, 0.75):
            costs.cost(0, scenario_problem.make_allocation(share))
        assert cache.size <= 2          # the reset kept the bound
        assert cache.misses == 3        # counters survive the reset
        # Values remain correct after the reset (recomputed, not stale).
        allocation = scenario_problem.make_allocation(0.25)
        assert costs.cost(0, allocation) == WhatIfCostEstimator(
            scenario_problem
        ).cost(0, allocation)

    def test_namespacing_separates_differently_configured_cost_functions(
        self, scenario_problem
    ):
        from repro.core.cost_estimator import ActualCostFunction

        cache = CostCache()
        allocation = scenario_problem.default_allocation()[0]
        noisy = CachedCostFunction(
            scenario_problem, ActualCostFunction(scenario_problem), cache
        )
        quiet = CachedCostFunction(
            scenario_problem,
            ActualCostFunction(scenario_problem, io_contention_intensity=0.0),
            cache,
        )
        with_noise = noisy.cost(0, allocation)
        without_noise = quiet.cost(0, allocation)
        # The contention-free function is evaluated, not served the
        # noisy-neighbour value cached under the other configuration.
        assert quiet.evaluations == 1
        assert without_noise <= with_noise

    def test_cache_keys_on_workload_and_calibration_identity(self, scenario_problem):
        # Rebuilding a problem around the same workload/calibration objects
        # (as the experiment sweeps do) must reuse the cached estimates.
        cache = CostCache()
        allocation = scenario_problem.default_allocation()[0]
        original = CachedCostFunction(
            scenario_problem, WhatIfCostEstimator(scenario_problem), cache
        )
        value = original.cost(0, allocation)
        rebuilt = scenario_problem.with_tenants(list(scenario_problem.tenants))
        fresh = CachedCostFunction(rebuilt, WhatIfCostEstimator(rebuilt), cache)
        assert fresh.cost(0, allocation) == value
        assert fresh.evaluations == 0

    def test_concurrent_access_keeps_counters_and_bound_sound(self):
        # Regression test for thread safety: hammer one small cache (so the
        # generational reset races the stores) from several threads and
        # check no lookup is lost and the size bound holds throughout.
        # This is the prerequisite for parallel per-machine fleet solves.
        import threading
        from types import SimpleNamespace

        cache = CostCache(max_entries=64)
        tenants = [
            SimpleNamespace(workload=object(), calibration=object())
            for _ in range(8)
        ]
        grid = [(0.05 + 0.05 * step, 0.5) for step in range(16)]
        n_threads, rounds = 8, 400
        lookups_per_thread = rounds * 2  # one lookup before, one after each store
        barrier = threading.Barrier(n_threads)
        errors = []

        def lookup(row, shares):
            value = row.get(shares)
            cache.count(int(value is not None), int(value is None))
            return value

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=30)
                for step in range(rounds):
                    tenant = tenants[(seed + step) % len(tenants)]
                    shares = grid[(seed * 7 + step) % len(grid)]
                    row = cache.row("what-if", tenant)
                    lookup(row, shares)
                    row = cache.store("what-if", tenant, row, {shares: float(step)})
                    # A racing generational reset drops the row from the
                    # cache but never empties it: the stored value stays
                    # readable by whoever holds the row.
                    assert isinstance(lookup(row, shares), float)
                    assert cache.size <= cache.max_entries
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        # Every lookup incremented exactly one of the two counters.
        assert cache.hits + cache.misses == n_threads * lookups_per_thread
        assert cache.size <= cache.max_entries

    def test_concurrent_batches_keep_counters_and_bound_sound(self):
        # The batch face of the test above: whole batches looked up in a
        # row, counted once and their misses stored at once, from more
        # threads than cores, with a tiny switch interval so threads
        # interleave mid-batch.  A counter update lost outside the lock
        # breaks the lookup total; a store racing the reset breaks the bound.
        import sys
        import threading
        from types import SimpleNamespace

        cache = CostCache(max_entries=64)
        tenants = [
            SimpleNamespace(workload=object(), calibration=object())
            for _ in range(4)
        ]
        grid = [(0.05 * step, 0.5) for step in range(1, 21)]
        n_threads, rounds, batch = 8, 200, 5
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(seed: int) -> None:
            try:
                barrier.wait(timeout=30)
                for step in range(rounds):
                    tenant = tenants[(seed + step) % len(tenants)]
                    start = (seed * 3 + step) % (len(grid) - batch)
                    chosen = grid[start : start + batch]
                    row = cache.row("what-if", tenant)
                    missing = [shares for shares in chosen if shares not in row]
                    cache.count(batch - len(missing), len(missing))
                    cache.store(
                        "what-if", tenant, row, {shares: float(step) for shares in missing}
                    )
                    assert cache.size <= cache.max_entries
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache.hits + cache.misses == n_threads * rounds * batch
        assert cache.size <= cache.max_entries

    def test_rows_resolved_before_a_reset_stay_correct_and_bounded(self):
        # Cost functions that resolved their rows before a generational
        # reset keep answering from those rows after it; their stores go to
        # re-resolved rows, so no thread grows a dropped row past the
        # bound.  Eight threads, a key space five times the bound, and a
        # tiny switch interval make resets land between every step.
        import sys
        import threading
        from types import SimpleNamespace

        from repro.core.problem import ResourceAllocation

        class Estimator:
            """A deterministic stand-in for the what-if estimator."""

            cache_namespace = "stub"

            def __init__(self):
                self.call_count = 0

            @staticmethod
            def value(index, allocation):
                return 10.0 * index + allocation.cpu_share + allocation.memory_fraction

            def cost(self, index, allocation):
                self.call_count += 1
                return self.value(index, allocation)

            def cost_many(self, index, allocations):
                self.call_count += len(allocations)
                return [self.value(index, allocation) for allocation in allocations]

        tenants = [
            SimpleNamespace(workload=object(), calibration=object())
            for _ in range(4)
        ]
        problem = SimpleNamespace(n_workloads=len(tenants), tenant=tenants.__getitem__)
        allocations = [
            ResourceAllocation(cpu_share=0.05 * step, memory_fraction=0.5)
            for step in range(1, 21)
        ]

        # Deterministically first: a store through a row dropped by a
        # reset lands in the cache's current row, where a view resolved
        # afterwards finds it.
        cache = CostCache(max_entries=2)
        stale = CachedCostFunction(problem, Estimator(), cache)
        stale.cost(0, allocations[0])
        other = CachedCostFunction(problem, Estimator(), cache)
        other.cost(1, allocations[0])
        other.cost(1, allocations[1])  # the third value resets the cache
        assert stale.cost(0, allocations[1]) == Estimator.value(0, allocations[1])
        fresh = CachedCostFunction(problem, Estimator(), cache)
        assert fresh.cost(0, allocations[1]) == Estimator.value(0, allocations[1])
        assert fresh.evaluations == 0
        assert cache.size <= cache.max_entries

        cache = CostCache(max_entries=16)
        n_threads, rounds, batch = 8, 150, 4
        barrier = threading.Barrier(n_threads)
        lookups = [0] * n_threads
        errors = []

        def worker(seed: int) -> None:
            try:
                costs = CachedCostFunction(problem, Estimator(), cache)
                for index in range(len(tenants)):  # resolve every row up front
                    costs.cost(index, allocations[seed])
                lookups[seed] += len(tenants)
                barrier.wait(timeout=30)
                for step in range(rounds):
                    index = (seed + step) % len(tenants)
                    start = (seed * 3 + step) % (len(allocations) - batch)
                    chosen = allocations[start : start + batch]
                    assert costs.cost_many(index, chosen) == [
                        Estimator.value(index, allocation) for allocation in chosen
                    ]
                    assert costs.cost(index, chosen[0]) == Estimator.value(index, chosen[0])
                    lookups[seed] += batch + 1
                    assert cache.size <= cache.max_entries
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,))
                for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert cache.hits + cache.misses == sum(lookups)
        assert cache.size <= cache.max_entries

    def test_concurrent_memos_hand_out_one_object_per_key(self, fast_calibration):
        # Companion regression test to the CostCache one, for what the
        # cache's identity rests on: ProblemBuilder.consolidated's by-value
        # memo hands out the workload objects the cache keys on, and
        # Advisor.cost_function's cache pool the one cache per strategy.  A
        # race that creates two objects for one key silently splits the
        # cache.  Hammer both from many threads and assert each key
        # resolved to one object.
        import threading

        from repro.api.builder import ProblemBuilder
        from repro.api.scenario import TenantSpec

        builder = ProblemBuilder(calibration_settings=fast_calibration)
        specs = [
            TenantSpec(
                name=f"tenant-{index}",
                engine="postgresql",
                statements=(("q17", 1.0 + index),),
            )
            for index in range(4)
        ]
        problem = (
            ProblemBuilder(calibration_settings=fast_calibration)
            .add_tenant("a", engine="postgresql", statements=[("q17", 1.0)])
            .add_tenant("b", engine="postgresql", statements=[("q18", 1.0)])
            .build()
        )
        advisor = Advisor(delta=0.25)

        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results = [None] * n_threads
        errors = []

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                consolidated = tuple(
                    builder.consolidated(specs[(seed + step) % len(specs)])
                    for step in range(12)
                )
                wrapped = advisor.cost_function(problem)
                results[seed] = (consolidated, wrapped)
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Every wrapper, whichever thread built it, shares one CostCache.
        caches = {id(result[1].cache) for result in results}
        assert len(caches) == 1
        # One consolidated workload object per spec value across threads.
        by_name = {}
        for consolidated, _ in results:
            for tenant in consolidated:
                by_name.setdefault(tenant.workload.name, set()).add(id(tenant))
        assert all(len(identities) == 1 for identities in by_name.values())


class TestAdvisor:
    def test_repeated_recommend_performs_zero_new_evaluations(self, scenario, scenario_problem):
        advisor = Advisor(**scenario.advisor)
        first = advisor.recommend(scenario_problem)
        assert first.cost_stats.evaluations > 0
        second = advisor.recommend(scenario_problem)
        assert second.cost_stats.evaluations == 0
        assert second.cost_stats.cache_misses == 0
        assert second.cost_stats.cache_hits > 0
        assert second.recommendation.cost_calls == 0
        assert second.allocations == first.allocations

    def test_recommend_does_not_retain_the_problem(self, scenario, scenario_problem):
        # The shared cache pins workloads and calibrations, never the
        # problem: a rebuilt problem over the same workloads is still
        # answered from the cache once the first one is gone.
        advisor = Advisor(**scenario.advisor)
        problem = dataclasses.replace(scenario_problem)
        advisor.recommend(problem)
        released = weakref.ref(problem)
        del problem
        gc.collect()
        assert released() is None
        repeat = advisor.recommend(dataclasses.replace(scenario_problem))
        assert repeat.cost_stats.evaluations == 0

    def test_greedy_and_exhaustive_both_solve_one_scenario(self, scenario, scenario_problem):
        greedy = Advisor(enumerator="greedy", **scenario.advisor).recommend(
            scenario_problem
        )
        exhaustive = Advisor(enumerator="exhaustive-dp", **scenario.advisor).recommend(
            scenario_problem
        )
        for report in (greedy, exhaustive):
            assert isinstance(report, RecommendationReport)
            scenario_problem.validate_allocations(report.allocations)
            assert report.total_cost > 0
            assert len(report.tenants) == scenario_problem.n_workloads
            json.loads(report.to_json())
        assert greedy.provenance.enumerator == "greedy"
        assert exhaustive.provenance.enumerator == "exhaustive-dp"
        # Exhaustive search is the optimal baseline on the same grid.
        assert exhaustive.total_cost <= greedy.total_cost + 1e-9
        # The CPU-hungry workload receives the larger share in both.
        assert greedy.tenant("heavy").cpu_share > greedy.tenant("light").cpu_share

    def test_reports_share_one_read_only_provenance(self, scenario_problem):
        advisor = Advisor(delta=0.25, min_share=0.25)
        first = advisor.recommend(scenario_problem)
        second = advisor.recommend(scenario_problem)
        assert second.provenance is first.provenance
        with pytest.raises(TypeError):
            first.provenance.options["delta"] = 0.5
        assert second.provenance.to_dict()["options"]["delta"] == 0.25

    def test_report_json_schema(self, scenario, scenario_problem):
        report = Advisor(**scenario.advisor).recommend(scenario_problem)
        document = json.loads(report.to_json(indent=2))
        assert set(document) == {
            "recommendation", "tenants", "provenance", "cost_stats",
            "wall_time_seconds",
        }
        assert set(document["recommendation"]) == {
            "allocations", "per_workload_costs", "total_cost", "default_cost",
            "estimated_improvement", "iterations", "cost_calls",
        }
        for tenant in document["tenants"]:
            assert set(tenant) == {
                "name", "cpu_share", "memory_fraction", "estimated_cost",
                "degradation", "degradation_limit", "gain_factor",
                "meets_degradation_limit",
            }
            assert tenant["degradation_limit"] is None  # unlimited -> null
            assert tenant["degradation"] >= 1.0 - 1e-9
        assert document["provenance"]["enumerator"] == "greedy"
        assert document["provenance"]["cost_function"] == "what-if"
        assert document["cost_stats"]["evaluations"] >= 0
        assert document["wall_time_seconds"] >= 0.0

    def test_cost_function_bound_to_another_problem_is_rejected(self, scenario_problem):
        # A genuinely different problem (tenants reordered) is rejected...
        other = scenario_problem.with_tenants(tuple(reversed(scenario_problem.tenants)))
        estimator = WhatIfCostEstimator(other)
        with pytest.raises(ConfigurationError, match="different problem"):
            Advisor().recommend(scenario_problem, cost_function=estimator)
        # ...but an equal re-built problem is fine: identical costs.
        rebuilt = scenario_problem.with_tenants(tuple(scenario_problem.tenants))
        report = Advisor(delta=0.25, min_share=0.25).recommend(
            scenario_problem, cost_function=WhatIfCostEstimator(rebuilt)
        )
        scenario_problem.validate_allocations(report.allocations)

    def test_enumerate_only_custom_strategy_is_accepted(self, scenario_problem):
        class TrivialEnumerator:
            """A strategy exposing only enumerate(), no delta/min_share."""

            def enumerate(self, problem, cost_function):
                return GreedyConfigurationEnumerator(
                    delta=0.25, min_share=0.25
                ).enumerate(problem, cost_function)

        advisor = Advisor(enumerator=TrivialEnumerator())
        report = advisor.recommend(scenario_problem)
        scenario_problem.validate_allocations(report.allocations)
        assert report.provenance.enumerator == "TrivialEnumerator"
        # Refinement needs a delta grid the custom strategy cannot provide;
        # the advisor falls back to a greedy enumerator instead of crashing.
        result = advisor.refine(scenario_problem, max_iterations=1)
        assert result.iteration_count >= 1

    def test_cached_cost_function_validates_tenant_index(self, scenario_problem):
        from repro.exceptions import EstimationError

        advisor = Advisor(delta=0.25, min_share=0.25)
        costs = advisor.cost_function(scenario_problem)
        allocation = scenario_problem.default_allocation()[0]
        costs.cost(1, allocation)
        with pytest.raises(EstimationError, match="out of range"):
            costs.cost(-1, allocation)  # must not serve tenant 1's cached cost
        with pytest.raises(EstimationError, match="out of range"):
            costs.cost(scenario_problem.n_workloads, allocation)

    def test_refine_dispatches_basic_for_single_resource(self, scenario_problem):
        advisor = Advisor(delta=0.25, min_share=0.25)
        result = advisor.refine(scenario_problem, max_iterations=2)
        assert result.iteration_count >= 1
        scenario_problem.validate_allocations(result.final_allocations)
