"""Tests for the cost-based planner."""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dbms import planner as planner_module
from repro.dbms.catalog import Database
from repro.dbms.db2 import DB2Engine
from repro.dbms.plans import PlanBuildContext, PlanNode
from repro.dbms.planner import Planner
from repro.dbms.postgres import PostgreSQLEngine
from repro.dbms.postgres.cost_model import PostgreSQLCostModel
from repro.dbms.postgres.params import PostgreSQLParameters
from repro.dbms.query import AggregateSpec, JoinStep, QuerySpec, TableAccess
from repro.exceptions import OptimizationError
from repro.workloads.tpch import TPCH_QUERY_NAMES


@pytest.fixture()
def database():
    db = Database("planner")
    db.create_table("fact", row_count=2_000_000, row_width_bytes=100)
    db.create_table("dim", row_count=10_000, row_width_bytes=80)
    db.create_index("idx_fact", "fact", key_width_bytes=8)
    return db


def cost_model(work_mem_mb=16.0, cache_mb=64.0):
    params = PostgreSQLParameters(work_mem_mb=work_mem_mb,
                                  shared_buffers_mb=cache_mb,
                                  effective_cache_size_mb=cache_mb)
    return PostgreSQLCostModel(params)


def build_context(database, work_mem_mb=16.0, cache_mb=64.0):
    return PlanBuildContext(database=database, work_mem_mb=work_mem_mb,
                            cache_mb=cache_mb)


class TestAccessChoice:
    def test_selective_predicate_uses_index(self, database):
        planner = Planner(database)
        query = QuerySpec(
            name="point", database="planner",
            driver=TableAccess(table="fact", selectivity=1e-4, index="idx_fact",
                               index_selectivity=1e-4),
        )
        plan = planner.build_plan(query, build_context(database), cost_model())
        assert "IndexScan" in plan.signature

    def test_full_scan_uses_seq_scan(self, database):
        planner = Planner(database)
        query = QuerySpec(
            name="scan", database="planner",
            driver=TableAccess(table="fact", selectivity=0.9, index="idx_fact",
                               index_selectivity=0.9),
        )
        plan = planner.build_plan(query, build_context(database), cost_model())
        assert plan.signature.startswith("Result(SeqScan")

    def test_database_mismatch_rejected(self, database):
        planner = Planner(database)
        query = QuerySpec(name="q", database="other",
                          driver=TableAccess(table="fact"))
        with pytest.raises(OptimizationError):
            planner.build_plan(query, build_context(database), cost_model())


class TestJoinChoice:
    def join_query(self, selectivity=1e-4):
        return QuerySpec(
            name="join", database="planner",
            driver=TableAccess(table="fact", selectivity=0.5),
            joins=(JoinStep(access=TableAccess(table="dim"),
                            selectivity=1.0 / 10_000),),
        )

    def test_join_produces_binary_operator(self, database):
        planner = Planner(database)
        plan = planner.build_plan(self.join_query(), build_context(database),
                                  cost_model())
        assert any(label in plan.signature
                   for label in ("HashJoin", "NestLoop", "MergeJoin"))

    def test_join_alternatives_include_all_methods(self, database):
        planner = Planner(database)
        context = build_context(database)
        model = cost_model()
        outer = planner._best_access(TableAccess(table="fact", selectivity=0.5),
                                     context, model)
        step = JoinStep(access=TableAccess(table="dim"), selectivity=1e-4)
        labels = {type(node).__name__
                  for node in planner.join_alternatives(outer, step, context, model)}
        assert "HashJoinNode" in labels
        assert "SortMergeJoinNode" in labels
        assert "NestedLoopJoinNode" in labels  # dim is small enough

    def test_nested_loop_pruned_for_large_inner(self, database):
        planner = Planner(database)
        context = build_context(database)
        model = cost_model()
        outer = planner._best_access(TableAccess(table="dim"), context, model)
        step = JoinStep(access=TableAccess(table="fact", selectivity=0.9),
                        selectivity=1e-6)
        labels = {type(node).__name__
                  for node in planner.join_alternatives(outer, step, context, model)}
        assert "NestedLoopJoinNode" not in labels


class TestMemoryDependentPlans:
    def aggregate_query(self):
        return QuerySpec(
            name="agg", database="planner",
            driver=TableAccess(table="fact", selectivity=0.5),
            aggregate=AggregateSpec(group_fraction=0.02, aggregates=2.0),
            order_by=True,
        )

    def test_plan_changes_with_work_mem(self, database):
        planner = Planner(database)
        query = self.aggregate_query()
        small = planner.build_plan(
            query, build_context(database, work_mem_mb=1.0), cost_model(work_mem_mb=1.0)
        )
        large = planner.build_plan(
            query, build_context(database, work_mem_mb=4096.0),
            cost_model(work_mem_mb=4096.0),
        )
        assert small.signature != large.signature

    def test_cost_never_increases_with_more_memory(self, database):
        planner = Planner(database)
        query = self.aggregate_query()
        costs = []
        for memory in (1.0, 8.0, 64.0, 512.0, 4096.0):
            model = cost_model(work_mem_mb=memory, cache_mb=memory)
            plan = planner.build_plan(
                query, build_context(database, work_mem_mb=memory, cache_mb=memory),
                model,
            )
            costs.append(model.plan_cost(plan.usage))
        assert all(b <= a * 1.0001 for a, b in zip(costs, costs[1:]))

    def test_update_plan_wraps_root(self, database):
        from repro.dbms.query import UpdateProfile

        planner = Planner(database)
        query = QuerySpec(
            name="upd", database="planner",
            driver=TableAccess(table="dim", selectivity=1e-3),
            update=UpdateProfile(rows_written=5, pages_dirtied=2),
        )
        plan = planner.build_plan(query, build_context(database), cost_model())
        assert plan.signature.startswith("Update(")


class TestOperatorMemo:
    """Operators are built once per memory setting and shared across CPU settings."""

    @pytest.fixture(scope="class")
    def memoizing_engines(self, tpch_sf1):
        # Dedicated engines whose memos persist across hypothesis examples.
        return {"postgresql": PostgreSQLEngine(tpch_sf1), "db2": DB2Engine(tpch_sf1)}

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        steps=st.lists(
            st.tuples(
                st.sampled_from(["postgresql", "db2"]),
                st.sampled_from(TPCH_QUERY_NAMES),
                st.sampled_from([0.1, 0.25, 0.4, 0.5, 0.75, 1.0]),
                st.sampled_from([0.125, 0.25, 0.5, 1.0]),
            ),
            min_size=1,
            max_size=12,
        ),
        drop_before=st.integers(min_value=0, max_value=12),
        bound=st.sampled_from([4, 64, None]),
    )
    def test_memoized_plans_equal_fresh_plans(
        self,
        memoizing_engines,
        pg_calibration,
        db2_calibration,
        tpch_sf1_queries,
        steps,
        drop_before,
        bound,
    ):
        # A long-lived engine answers every (query, configuration) exactly
        # as an engine that has never planned anything: same plan shape,
        # same usage, same cost, bit for bit.  The forced drop before step
        # ``drop_before`` and the drawn memo bound make the long-lived
        # engine rebuild operators mid-sequence.
        calibrations = {"postgresql": pg_calibration, "db2": db2_calibration}
        bound = planner_module._MAX_OPERATOR_ENTRIES if bound is None else bound
        with mock.patch.object(planner_module, "_MAX_OPERATOR_ENTRIES", bound):
            for index, (kind, name, cpu, memory) in enumerate(steps):
                engine = memoizing_engines[kind]
                if index == drop_before:
                    engine.planner._operators.clear()
                    engine.clear_plan_cache()
                query = tpch_sf1_queries[name]
                configuration = calibrations[kind].parameters_for_allocation(cpu, memory)
                plan, cost = engine.estimate_query(query, configuration)
                fresh = type(engine)(engine.database, memory_policy=engine.memory_policy)
                fresh_plan, fresh_cost = fresh.estimate_query(query, configuration)
                assert plan.signature == fresh_plan.signature
                assert plan.usage == fresh_plan.usage
                assert cost == fresh_cost

    def test_one_memory_setting_builds_each_operator_once(
        self, pg_calibration, tpch_sf1, tpch_sf1_queries, monkeypatch
    ):
        # K configurations that differ only in their CPU parameters are K
        # optimizer calls but one set of operators: CPU parameters only
        # reweight the same candidate nodes.
        built = []
        construct = PlanNode.__init__

        def counting_init(node, *args, **kwargs):
            built.append(node)
            construct(node, *args, **kwargs)

        monkeypatch.setattr(PlanNode, "__init__", counting_init)
        engine = PostgreSQLEngine(tpch_sf1)
        query = tpch_sf1_queries["q18"]
        configurations = [
            pg_calibration.parameters_for_allocation(cpu, 0.5)
            for cpu in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert len(set(configurations)) == len(configurations)
        assert len({(c.work_mem_mb, c.cache_mb) for c in configurations}) == 1

        engine.estimate_query(query, configurations[0])
        once = len(built)
        for configuration in configurations[1:]:
            engine.estimate_query(query, configuration)
        assert once > 0
        assert len(built) == once
        assert engine.optimizer_call_count() == len(configurations)
