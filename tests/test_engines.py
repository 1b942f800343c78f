"""Tests for the PostgreSQL and DB2 engine simulators."""

import pytest

from repro.dbms import interface
from repro.dbms.db2 import DB2CostModel, DB2Engine, DB2Parameters
from repro.dbms.db2.cost_model import TIMERON_MILLISECONDS
from repro.dbms.plans import ResourceUsage
from repro.dbms.postgres import (
    PostgreSQLCostModel,
    PostgreSQLEngine,
    PostgreSQLParameters,
)
from repro.exceptions import ConfigurationError, EstimationError
from repro.virt.hypervisor import Hypervisor


@pytest.fixture()
def environment(machine):
    hypervisor = Hypervisor(machine)
    vm = hypervisor.create_vm("vm", cpu_share=0.5, memory_mb=4096.0)
    return vm.environment()


class TestPostgreSQLParameters:
    def test_defaults_match_stock_postgres(self):
        params = PostgreSQLParameters()
        assert params.random_page_cost == 4.0
        assert params.cpu_tuple_cost == 0.01
        assert params.seq_page_cost == 1.0

    def test_cache_is_max_of_buffers_and_effective_cache(self):
        params = PostgreSQLParameters(shared_buffers_mb=100,
                                      effective_cache_size_mb=400)
        assert params.cache_mb == 400

    def test_with_helpers_return_modified_copies(self):
        params = PostgreSQLParameters()
        updated = params.with_cpu_costs(0.5, 0.25, 0.1).with_io_costs(8.0)
        assert updated.cpu_tuple_cost == 0.5
        assert updated.random_page_cost == 8.0
        assert params.cpu_tuple_cost == 0.01  # original untouched

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PostgreSQLParameters(cpu_tuple_cost=0.0)
        with pytest.raises(ConfigurationError):
            PostgreSQLParameters(shared_buffers_mb=-1.0)


class TestDB2Parameters:
    def test_work_mem_is_sortheap(self):
        params = DB2Parameters(sortheap_mb=77.0)
        assert params.work_mem_mb == 77.0
        assert params.cache_mb == params.bufferpool_mb

    def test_with_helpers(self):
        params = DB2Parameters().with_memory(500.0, 100.0).with_cpuspeed(1e-3)
        assert params.bufferpool_mb == 500.0
        assert params.cpuspeed_ms == 1e-3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DB2Parameters(cpuspeed_ms=0.0)


class TestCostModels:
    def test_postgres_cost_weights_usage(self):
        params = PostgreSQLParameters()
        model = PostgreSQLCostModel(params)
        usage = ResourceUsage(tuples=100, operator_evals=200, seq_pages=10,
                              random_pages=2, rows_returned=50)
        expected = (
            10 * 1.0 + 2 * 4.0 + 100 * 0.01 + 200 * 0.0025
        )
        assert model.plan_cost(usage) == pytest.approx(expected)

    def test_postgres_ignores_returned_rows(self):
        model = PostgreSQLCostModel(PostgreSQLParameters())
        with_rows = ResourceUsage(tuples=10, rows_returned=1_000_000)
        without_rows = ResourceUsage(tuples=10)
        assert model.plan_cost(with_rows) == model.plan_cost(without_rows)

    def test_db2_cost_is_in_timerons(self):
        params = DB2Parameters()
        model = DB2CostModel(params)
        usage = ResourceUsage(tuples=1000, seq_pages=100)
        assert model.plan_cost(usage) == pytest.approx(
            model.resource_milliseconds(usage) / TIMERON_MILLISECONDS
        )

    def test_db2_underweights_sort_spill(self):
        params = DB2Parameters()
        model = DB2CostModel(params)
        spill = ResourceUsage(sort_spill_pages=1000)
        ordinary = ResourceUsage(seq_pages=2000)
        assert model.plan_cost(spill) < model.plan_cost(ordinary)


class TestEngines:
    def test_true_configuration_scales_with_cpu_share(self, pg_engine, machine):
        hypervisor = Hypervisor(machine)
        vm = hypervisor.create_vm("vm", cpu_share=0.5, memory_mb=4096.0)
        half = pg_engine.true_configuration(vm.environment())
        vm.set_cpu_share(0.25)
        quarter = pg_engine.true_configuration(vm.environment())
        assert quarter.cpu_tuple_cost == pytest.approx(2.0 * half.cpu_tuple_cost)
        # I/O parameters do not depend on the CPU share.
        assert quarter.random_page_cost == pytest.approx(half.random_page_cost)

    def test_db2_true_configuration_uses_memory_policy(self, db2_engine, environment):
        config = db2_engine.true_configuration(environment)
        memory = db2_engine.memory_configuration(environment.dbms_memory_mb)
        assert config.bufferpool_mb == pytest.approx(memory.buffer_pool_mb)
        assert config.sortheap_mb == pytest.approx(memory.work_mem_mb)

    def test_estimate_query_returns_plan_and_cost(self, db2_engine, environment,
                                                  tpch_sf1_queries):
        config = db2_engine.true_configuration(environment)
        plan, cost = db2_engine.estimate_query(tpch_sf1_queries["q6"], config)
        assert cost > 0
        assert plan.query.name == "q6"

    def test_estimate_query_caches_plans(self, db2_engine, environment,
                                         tpch_sf1_queries):
        config = db2_engine.true_configuration(environment)
        before = db2_engine.optimizer_call_count()
        db2_engine.estimate_query(tpch_sf1_queries["q6"], config)
        db2_engine.estimate_query(tpch_sf1_queries["q6"], config)
        after = db2_engine.optimizer_call_count()
        assert after <= before + 1

    def test_estimate_rejects_foreign_database(self, db2_engine, environment):
        from repro.workloads.tpch import tpch_database, tpch_queries

        other = tpch_queries(tpch_database(1.0, name="other"))
        config = db2_engine.true_configuration(environment)
        with pytest.raises(EstimationError):
            db2_engine.estimate_query(other["q1"], config)

    def test_estimate_statements_weights_frequencies(self, db2_engine, environment,
                                                     tpch_sf1_queries):
        config = db2_engine.true_configuration(environment)
        single = db2_engine.estimate_statements([(tpch_sf1_queries["q6"], 1.0)], config)
        triple = db2_engine.estimate_statements([(tpch_sf1_queries["q6"], 3.0)], config)
        assert triple == pytest.approx(3.0 * single)

    def test_estimate_statements_rejects_negative_frequency(self, db2_engine,
                                                            environment,
                                                            tpch_sf1_queries):
        config = db2_engine.true_configuration(environment)
        with pytest.raises(EstimationError):
            db2_engine.estimate_statements([(tpch_sf1_queries["q6"], -1.0)], config)

    def test_engines_report_distinct_native_units(self, pg_engine, db2_engine):
        assert pg_engine.native_unit != db2_engine.native_unit

    def test_clear_plan_cache(self, pg_engine, environment, tpch_sf1_queries):
        config = pg_engine.true_configuration(environment)
        pg_engine.estimate_query(tpch_sf1_queries["q6"], config)
        pg_engine.clear_plan_cache()
        assert pg_engine.optimizer_call_count() == 0

    def test_plan_cache_is_bounded_with_a_monotonic_call_count(
        self, db2_calibration, tpch_sf1, tpch_sf1_queries, monkeypatch
    ):
        # A full plan cache is dropped wholesale: answers are unchanged,
        # the cache stays within its bound, and the optimizer-call count
        # (what CostCallStats reports deltas of) never goes down.
        monkeypatch.setattr(interface, "_MAX_CACHED_PLANS", 3)
        engine = DB2Engine(tpch_sf1)
        counts = [engine.optimizer_call_count()]
        for _ in range(2):
            for name in ("q1", "q6", "q18"):
                for cpu in (0.25, 0.5, 1.0):
                    query = tpch_sf1_queries[name]
                    config = db2_calibration.parameters_for_allocation(cpu, 0.5)
                    plan, cost = engine.estimate_query(query, config)
                    fresh_plan, fresh_cost = DB2Engine(tpch_sf1).estimate_query(
                        query, config
                    )
                    assert plan.signature == fresh_plan.signature
                    assert plan.usage == fresh_plan.usage
                    assert cost == fresh_cost
                    assert len(engine._plan_cache) <= 3
                    counts.append(engine.optimizer_call_count())
        assert counts == sorted(counts)
        # The drops forced the second pass to optimize every plan again.
        assert counts[-1] == 18
