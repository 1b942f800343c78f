"""Tests for the TPC-H / TPC-C schemas, templates, and workload abstraction."""

import math

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.tpcc import (
    TPCC_MIX,
    TPCC_TRANSACTION_NAMES,
    tpcc_database,
    tpcc_transaction,
    tpcc_transactions,
)
from repro.workloads.tpch import (
    TPCH_QUERY_NAMES,
    tpch_database,
    tpch_queries,
    tpch_query,
)
from repro.workloads.units import (
    build_unit,
    compose_workload,
    cpu_intensive_unit,
    cpu_nonintensive_unit,
    memory_intensive_unit,
    memory_nonintensive_unit,
    mixed_cpu_workload,
    mixed_memory_workload,
)
from repro.workloads.workload import Workload, WorkloadStatement


class TestTPCHSchema:
    def test_cardinalities_scale_with_scale_factor(self):
        sf1 = tpch_database(1.0)
        sf10 = tpch_database(10.0)
        assert sf10.table("lineitem").row_count == 10 * sf1.table("lineitem").row_count
        # Nation and region are fixed-size tables.
        assert sf10.table("nation").row_count == sf1.table("nation").row_count

    def test_sf1_database_size_is_plausible(self):
        database = tpch_database(1.0)
        assert 700 < database.total_size_mb < 2500

    def test_all_22_templates_build(self, tpch_sf1):
        queries = tpch_queries(tpch_sf1)
        assert sorted(queries) == sorted(TPCH_QUERY_NAMES)
        for query in queries.values():
            assert query.database == tpch_sf1.name

    def test_single_query_lookup(self, tpch_sf1):
        assert tpch_query(tpch_sf1, "q18").name == "q18"
        with pytest.raises(WorkloadError):
            tpch_query(tpch_sf1, "q99")

    def test_q18_is_more_cpu_intensive_than_q21(self, tpch_sf1_queries):
        assert (tpch_sf1_queries["q18"].cpu_work_per_tuple
                > tpch_sf1_queries["q21"].cpu_work_per_tuple)

    def test_invalid_scale_factor_rejected(self):
        with pytest.raises(WorkloadError):
            tpch_database(0.0)


class TestTPCCSchema:
    def test_cardinalities_scale_with_warehouses(self):
        w10 = tpcc_database(10)
        w100 = tpcc_database(100)
        assert w100.table("order_line").row_count == 10 * w10.table("order_line").row_count
        assert w100.table("item").row_count == w10.table("item").row_count

    def test_all_transactions_build(self, tpcc_w10):
        transactions = tpcc_transactions(tpcc_w10)
        assert sorted(transactions) == sorted(TPCC_TRANSACTION_NAMES)

    def test_mix_sums_to_one(self):
        assert sum(TPCC_MIX.values()) == pytest.approx(1.0)

    def test_update_transactions_have_update_profiles(self, tpcc_w10_transactions):
        assert tpcc_w10_transactions["new_order"].is_update
        assert tpcc_w10_transactions["payment"].is_update
        assert not tpcc_w10_transactions["order_status"].is_update

    def test_unknown_transaction_rejected(self, tpcc_w10):
        with pytest.raises(WorkloadError):
            tpcc_transaction(tpcc_w10, "unknown")

    def test_invalid_warehouses_rejected(self):
        with pytest.raises(WorkloadError):
            tpcc_database(0)


class TestWorkload:
    def test_statement_pairs_and_counts(self, tpch_sf1_queries):
        workload = Workload(
            name="w",
            statements=(
                WorkloadStatement(tpch_sf1_queries["q1"], 2.0),
                WorkloadStatement(tpch_sf1_queries["q6"], 3.0),
            ),
        )
        assert workload.statement_count == 5.0
        assert workload.frequency_of("q6") == 3.0
        assert {q.name for q in workload.queries()} == {"q1", "q6"}

    def test_scaling_changes_intensity_not_nature(self, tpch_sf1_queries):
        workload = Workload(
            name="w", statements=(WorkloadStatement(tpch_sf1_queries["q1"], 2.0),)
        )
        scaled = workload.scaled(3.0)
        assert scaled.statement_count == 6.0
        assert scaled.queries()[0].name == "q1"

    @pytest.mark.parametrize("factor", [-1.0, math.inf, math.nan])
    def test_scaling_rejects_negative_and_non_finite_factors(
        self, tpch_sf1_queries, factor
    ):
        statement = WorkloadStatement(tpch_sf1_queries["q1"], 2.0)
        with pytest.raises(WorkloadError):
            statement.scaled(factor)
        with pytest.raises(WorkloadError):
            Workload(name="w", statements=()).scaled(factor)

    @pytest.mark.parametrize("frequency", [-1.0, math.inf, math.nan])
    def test_statement_rejects_negative_and_non_finite_frequencies(
        self, tpch_sf1_queries, frequency
    ):
        with pytest.raises(WorkloadError):
            WorkloadStatement(tpch_sf1_queries["q1"], frequency)

    def test_combination_requires_same_database(self, tpch_sf1_queries):
        other_queries = tpch_queries(tpch_database(1.0, name="elsewhere"))
        first = Workload("a", (WorkloadStatement(tpch_sf1_queries["q1"], 1.0),))
        second = Workload("b", (WorkloadStatement(other_queries["q2"], 1.0),))
        with pytest.raises(WorkloadError):
            first + second

    def test_combination_merges_statements(self, tpch_sf1_queries):
        first = Workload("a", (WorkloadStatement(tpch_sf1_queries["q1"], 1.0),))
        second = Workload("b", (WorkloadStatement(tpch_sf1_queries["q2"], 2.0),))
        combined = first + second
        assert combined.statement_count == 3.0
        assert combined.database == first.database

    def test_mixed_databases_rejected(self, tpch_sf1_queries):
        other_queries = tpch_queries(tpch_database(1.0, name="elsewhere"))
        with pytest.raises(WorkloadError):
            Workload(
                "bad",
                (
                    WorkloadStatement(tpch_sf1_queries["q1"], 1.0),
                    WorkloadStatement(other_queries["q1"], 1.0),
                ),
            )

    def test_from_pairs(self, tpch_sf1_queries):
        workload = Workload.from_pairs("w", [(tpch_sf1_queries["q3"], 4.0)])
        assert workload.statement_count == 4.0

    def test_empty_database_property_raises(self):
        workload = Workload(name="w", statements=())
        with pytest.raises(WorkloadError):
            _ = workload.database


class TestWorkloadUnits:
    def test_cpu_unit_counts_differ_by_engine(self, tpch_sf1_queries):
        db2_unit = cpu_intensive_unit(tpch_sf1_queries, "db2")
        pg_unit = cpu_intensive_unit(tpch_sf1_queries, "postgresql")
        assert db2_unit.statements[0].frequency == 25.0
        assert pg_unit.statements[0].frequency == 20.0

    def test_unknown_engine_rejected(self, tpch_sf1_queries):
        with pytest.raises(WorkloadError):
            cpu_intensive_unit(tpch_sf1_queries, "oracle")

    def test_units_reference_expected_queries(self, tpch_sf1_queries):
        assert cpu_nonintensive_unit(tpch_sf1_queries, "db2").statements[0].query.name == "q21"
        assert memory_intensive_unit(tpch_sf1_queries).statements[0].query.name == "q7"
        assert memory_nonintensive_unit(tpch_sf1_queries).statements[0].query.name == "q16"

    def test_compose_workload_scales_units(self, tpch_sf1_queries):
        unit = build_unit("u", tpch_sf1_queries, {"q1": 2.0})
        workload = compose_workload("w", [(unit, 3.0)])
        assert workload.statement_count == 6.0

    def test_mixed_cpu_workload_shape(self, tpch_sf1_queries):
        workload = mixed_cpu_workload("w", tpch_sf1_queries, "db2",
                                      cpu_units=2, noncpu_units=3)
        assert workload.frequency_of("q18") == 50.0
        assert workload.frequency_of("q21") == 3.0

    def test_mixed_memory_workload_shape(self, tpch_sf1_queries):
        workload = mixed_memory_workload("w", tpch_sf1_queries,
                                         memory_units=1, nonmemory_units=2)
        assert workload.frequency_of("q7") == 1.0
        assert workload.frequency_of("q16") == 300.0

    def test_empty_workload_rejected(self, tpch_sf1_queries):
        with pytest.raises(WorkloadError):
            mixed_cpu_workload("w", tpch_sf1_queries, "db2", 0, 0)

    def test_unknown_query_in_unit_rejected(self, tpch_sf1_queries):
        with pytest.raises(WorkloadError):
            build_unit("u", tpch_sf1_queries, {"q99": 1.0})


class TestGenerators:
    def test_random_cpu_workloads_are_deterministic(self, tpch_sf1_queries):
        from repro.workloads.generator import random_tpch_cpu_workloads

        first = random_tpch_cpu_workloads(tpch_sf1_queries, count=5, seed=3)
        second = random_tpch_cpu_workloads(tpch_sf1_queries, count=5, seed=3)
        assert [w.statement_count for w in first] == [w.statement_count for w in second]

    def test_random_cpu_workloads_respect_unit_bounds(self, tpch_sf1_queries):
        from repro.workloads.generator import random_tpch_cpu_workloads

        workloads = random_tpch_cpu_workloads(
            tpch_sf1_queries, count=8, seed=1, min_units=10, max_units=20
        )
        for workload in workloads:
            units = workload.frequency_of("q17") + workload.frequency_of("q18_mod") / 66.0
            assert 10 <= units <= 20

    def test_modified_q18_touches_less_data(self, tpch_sf1_queries):
        from repro.workloads.generator import modified_q18

        lighter = modified_q18(tpch_sf1_queries)
        assert lighter.driver.selectivity < tpch_sf1_queries["q18"].driver.selectivity
        assert lighter.name == "q18_mod"

    def test_tpcc_workload_uses_standard_mix(self, tpcc_w10_transactions):
        from repro.workloads.generator import tpcc_workload

        workload = tpcc_workload(tpcc_w10_transactions, "w", 4, 5)
        total = workload.statement_count
        assert workload.frequency_of("new_order") == pytest.approx(0.45 * total)

    def test_mixed_workloads_interleave_oltp_and_dss(self, tpch_sf1_queries,
                                                     tpcc_w10_transactions):
        from repro.workloads.generator import random_mixed_workloads

        tpch_sf10 = tpch_queries(tpch_database(10.0, name="sf10"))
        workloads = random_mixed_workloads(
            tpch_sf1_queries, tpch_sf10, tpcc_w10_transactions, seed=5
        )
        assert len(workloads) == 10
        assert workloads[0].name.startswith("tpcc")
        assert workloads[1].name.startswith("tpch")

    def test_sortheap_workloads_reference_sensitive_queries(self):
        from repro.workloads.generator import sortheap_sensitive_workloads

        queries = tpch_queries(tpch_database(10.0, name="sf10b"))
        workloads = sortheap_sensitive_workloads(queries, count=4, seed=2)
        names = set()
        for workload in workloads:
            names.update(q.name for q in workload.queries())
        assert names <= {"q4", "q18", "q8", "q16", "q20"}

    def test_multi_resource_workloads_target_single_database(self, tpch_sf1_queries):
        from repro.workloads.generator import random_multi_resource_workloads

        sf10 = tpch_queries(tpch_database(10.0, name="sf10c"))
        workloads = random_multi_resource_workloads(sf10, tpch_sf1_queries,
                                                    count=6, seed=9)
        for workload in workloads:
            assert len({stmt.query.database for stmt in workload.statements}) == 1
