"""Tests for the placement fast path (solve-memo, local search).

Covers the fleet solve-memo (:mod:`repro.fleet.solve_memo`) as a unit and
wired into :class:`~repro.fleet.FleetAdvisor` (zero new DP searches on a
warm re-solve, ``placement_solve_hits`` accounting, infeasibility caching,
``clear_caches``), the fleet solver's per-run cost table (each hardware
shape and tenant set priced once per run), the ``placement_solve_hits``
round-trip through :class:`~repro.api.report.CostCallStats`, the
submit/handle layer of the solver backends (laziness of the serial
handle), custom solvers offering only the
:class:`~repro.fleet.PlacementSolver` protocol, and the local-search
improver and exhaustive baseline — including the measured greedy-vs-exact
optimality gap that ``greedy-cost+ls`` must close.
"""

import math
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Advisor, CostCache, ProblemBuilder
from repro.api.report import CostCallStats
from repro.exceptions import ConfigurationError, OptimizationError, PlacementError
from repro.fleet import (
    PLACEMENTS,
    ExhaustiveFleetPlacement,
    FleetAdvisor,
    FleetProblem,
    GreedyCostPlacement,
    LocalSearchPlacement,
    PlacementSolver,
    SolveMemo,
    improve_assignment,
)
from repro.fleet.advisor import _FleetSolver
from repro.fleet.solve_memo import Infeasible
from repro.parallel.backends import (
    FutureTaskHandle,
    SerialBackend,
    SolveTask,
    ThreadBackend,
)
from repro.telemetry.instruments import PLACEMENT_PROBES, SOLVE_LATENCY


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
    spec = {"tenants": tenants, "machines": machines, "name": "fastpath-fleet"}
    spec.update(overrides)
    return FleetProblem.from_dict(spec)


@pytest.fixture(scope="module")
def shared_advisor():
    """One calibrated advisor shared by the read-only strategy tests."""
    return FleetAdvisor(delta=0.25)


# ----------------------------------------------------------------------
# SolveMemo as a unit
# ----------------------------------------------------------------------
class TestSolveMemo:
    def test_get_put_and_counters(self):
        memo = SolveMemo(4)
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert len(memo) == 1
        assert memo.hits == 1
        assert memo.misses == 1

    def test_lru_eviction_prefers_recent(self):
        memo = SolveMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # touch "a": now "b" is least recent
        memo.put("c", 3)
        assert len(memo) == 2
        assert memo.get("b") is None  # evicted
        assert memo.get("a") == 1
        assert memo.get("c") == 3

    def test_replacing_a_key_does_not_grow(self):
        memo = SolveMemo(2)
        memo.put("a", 1)
        memo.put("a", 2)
        assert len(memo) == 1
        assert memo.get("a") == 2

    def test_clear_resets_entries_and_counters(self):
        memo = SolveMemo(4)
        memo.put("a", 1)
        memo.get("a")
        memo.get("missing")
        memo.clear()
        assert len(memo) == 0
        assert memo.hits == 0
        assert memo.misses == 0
        assert memo.get("a") is None

    def test_stats_shape(self):
        memo = SolveMemo(8)
        memo.put("a", 1)
        memo.get("a")
        memo.get("b")
        stats = memo.stats()
        assert stats == {
            "entries": 1,
            "max_entries": 8,
            "hits": 1,
            "misses": 1,
            "hit_rate": pytest.approx(0.5),
        }

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            SolveMemo(0)


# ----------------------------------------------------------------------
# SolveMemo eviction under concurrent solvers
# ----------------------------------------------------------------------
class TestSolveMemoConcurrency:
    def test_lru_bound_and_counters_hold_under_a_thread_hammer(self):
        # Many threads race put/get on a tiny memo over a key space wider
        # than the bound, forcing constant eviction.  The LRU bound must
        # hold at every observation point and the counters must add up.
        memo = SolveMemo(8)
        bound_violations = []
        gets_per_worker = [0] * 8

        def worker(worker_index):
            rng = random.Random(worker_index)
            for _ in range(400):
                key = ("k", rng.randrange(32))
                if rng.random() < 0.5:
                    memo.put(key, worker_index)
                else:
                    memo.get(key)
                    gets_per_worker[worker_index] += 1
                if len(memo) > memo.max_entries:
                    bound_violations.append(len(memo))

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not bound_violations
        assert len(memo) <= memo.max_entries
        stats = memo.stats()
        assert stats["hits"] + stats["misses"] == sum(gets_per_worker)
        assert stats["entries"] <= stats["max_entries"]

    def test_concurrent_fleet_solves_respect_a_tiny_memo_bound(self):
        # Concurrent whole-fleet recommends on one advisor (the served
        # tier's shape) against a memo too small to hold a run's distinct
        # tenant sets: eviction races must never break the LRU bound, the
        # stats accounting, or answer equality.
        problem = small_fleet()
        advisor = FleetAdvisor(delta=0.25, backend="thread", jobs=4)
        advisor.solve_memo = SolveMemo(4)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                reports = list(
                    pool.map(
                        lambda _: advisor.recommend(
                            problem, placement="greedy-cost+ls"
                        ),
                        range(3),
                    )
                )
        finally:
            advisor.backend.close()
        assert len(advisor.solve_memo) <= 4
        stats = advisor.solve_memo.stats()
        assert stats["entries"] <= stats["max_entries"]
        # Every memo hit happens inside exactly one run's solver, so the
        # global counter is the sum of the per-report attributions even
        # when the runs race.
        assert stats["hits"] == sum(
            report.cost_stats.placement_solve_hits for report in reports
        )
        first = reports[0].canonical_dict()
        assert all(report.canonical_dict() == first for report in reports[1:])

    def test_warm_resolve_after_concurrent_races_is_all_hits(self):
        # With the default-size memo, racing runs must leave a consistent
        # cache behind: a subsequent warm recommend misses nothing.
        problem = small_fleet()
        advisor = FleetAdvisor(delta=0.25, backend="thread", jobs=4)
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                list(
                    pool.map(
                        lambda _: advisor.recommend(problem), range(3)
                    )
                )
            misses_before = advisor.solve_memo.misses
            warm = advisor.recommend(problem)
        finally:
            advisor.backend.close()
        assert advisor.solve_memo.misses == misses_before
        assert warm.cost_stats.placement_solve_hits > 0


# ----------------------------------------------------------------------
# placement_solve_hits through CostCallStats
# ----------------------------------------------------------------------
class TestPlacementSolveHitsStats:
    def test_round_trip(self):
        stats = CostCallStats(
            evaluations=3, cache_hits=2, cache_misses=1, placement_solve_hits=5
        )
        assert stats.to_dict()["placement_solve_hits"] == 5
        assert CostCallStats.from_dict(stats.to_dict()) == stats

    def test_from_dict_defaults_for_old_documents(self):
        # Reports serialized before the solve-memo existed lack the key.
        stats = CostCallStats.from_dict(
            {"evaluations": 3, "cache_hits": 2, "cache_misses": 1,
             "hit_rate": 2 / 3}
        )
        assert stats.placement_solve_hits == 0

    def test_addition_sums_the_counter(self):
        a = CostCallStats(1, 1, 0, placement_solve_hits=2)
        b = CostCallStats(0, 0, 1, placement_solve_hits=3)
        assert (a + b).placement_solve_hits == 5
        # sum() starts from int 0 — the __radd__ path.
        assert sum([a, b]).placement_solve_hits == 5


# ----------------------------------------------------------------------
# The submit/handle layer of the solver backends
# ----------------------------------------------------------------------
class TestTaskHandles:
    def test_serial_submit_is_lazy_and_caches(self):
        calls = []
        task = SolveTask(call=lambda: calls.append(1) or 42)
        handle = SerialBackend().submit(task)
        assert calls == []  # nothing ran at submit time
        assert handle.result() == 42
        assert handle.result() == 42
        assert calls == [1]  # ... and result() ran it exactly once

    def test_thread_submit_executes_and_delivers(self):
        backend = ThreadBackend(jobs=2)
        try:
            handle = backend.submit(SolveTask(call=lambda: 7))
            assert isinstance(handle, FutureTaskHandle)  # started at submit
            assert handle.result() == 7
            assert handle.result() == 7  # a second collect re-reads the result
        finally:
            backend.close()


# ----------------------------------------------------------------------
# Solve-memo wired into the fleet advisor
# ----------------------------------------------------------------------
class TestAdvisorSolveMemo:
    def test_warm_resolve_runs_zero_new_searches(self):
        advisor = FleetAdvisor(delta=0.25)
        problem = small_fleet()
        first = advisor.recommend(problem)
        assert first.cost_stats.evaluations > 0
        misses_before = advisor.solve_memo.misses
        hits_before = advisor.solve_memo.hits
        second = advisor.recommend(problem)
        # Every (machine, tenant-set) ask of the second pass is a whole-
        # result memo hit: no new DP searches, no new memo misses, not
        # even point cost-cache lookups.
        assert advisor.solve_memo.misses == misses_before
        assert advisor.solve_memo.hits > hits_before
        assert second.cost_stats.evaluations == 0
        assert second.cost_stats.cache_hits == 0
        assert second.cost_stats.cache_misses == 0
        assert second.cost_stats.placement_solve_hits == (
            advisor.solve_memo.hits - hits_before
        )
        assert second.canonical_dict() == first.canonical_dict()

    def test_clear_caches_clears_the_memo(self):
        advisor = FleetAdvisor(delta=0.25)
        advisor.recommend(small_fleet())
        assert len(advisor.solve_memo) > 0
        advisor.clear_caches()
        assert len(advisor.solve_memo) == 0
        assert advisor.solve_memo.stats()["hits"] == 0

    def test_memoized_infeasibility_raises_without_research(self):
        advisor = FleetAdvisor(delta=0.25)
        problem = small_fleet()
        advisor.recommend(problem)
        ordered = tuple(range(problem.n_tenants))
        key = advisor._solve_key(problem, problem.machines[0], ordered)
        advisor.solve_memo.put(key, Infeasible("seeded infeasibility"))
        misses_before = advisor.solve_memo.misses
        searches_before = SOLVE_LATENCY.count
        with pytest.raises(OptimizationError, match="seeded infeasibility"):
            advisor.solve_machine(problem, 0, ordered)
        assert advisor.solve_memo.misses == misses_before
        assert SOLVE_LATENCY.count == searches_before

    def test_memo_hit_report_is_the_same_object_value(self):
        advisor = FleetAdvisor(delta=0.25)
        problem = small_fleet(n_tenants=2, n_machines=1)
        solved_a, stats_a = advisor.solve_machine(problem, 0, (0, 1))
        report_a, assembly_a = advisor.machine_report(solved_a)
        solved_b, stats_b = advisor.solve_machine(problem, 0, (0, 1))
        report_b, assembly_b = advisor.machine_report(solved_b)
        assert stats_a.placement_solve_hits == 0
        assert assembly_a.lookups > 0  # the first ask assembled the report
        assert stats_b.placement_solve_hits == 1
        assert stats_b.evaluations == 0
        # The memo kept the committed report: the repeat assembles nothing.
        assert assembly_b.lookups == 0
        assert solved_b is solved_a
        assert report_b is report_a
        assert solved_b.weighted_cost == solved_a.weighted_cost
        assert report_b.canonical_dict() == report_a.canonical_dict()


# ----------------------------------------------------------------------
# The per-run cost table: each (hardware, tenant set) is priced once
# ----------------------------------------------------------------------
class _RecordingBackend(SerialBackend):
    """A serial backend that records the length of every batch it runs."""

    def __init__(self):
        super().__init__()
        self.batches = []

    def run(self, tasks):
        self.batches.append(len(tasks))
        return super().run(tasks)


class TestPerRunCostTable:
    @pytest.mark.parametrize(
        "placement", ["bnb-fleet", "greedy-cost+ls", "greedy-cost"]
    )
    def test_cold_run_hits_the_memo_only_for_committed_solves(self, placement):
        # Three identical machines: probes re-ask many sets, but a cold
        # run prices each one once, so the only solve-memo hits are the
        # committed per-machine solves of the final placement.
        advisor = FleetAdvisor(delta=0.25)
        report = advisor.recommend(
            small_fleet(n_tenants=6, n_machines=3), placement=placement
        )
        occupied = sum(1 for machine in report.machines if machine.tenants)
        assert occupied > 0
        assert advisor.solve_memo.hits == occupied
        assert report.cost_stats.placement_solve_hits == occupied

    @pytest.mark.parametrize(
        "placement", ["bnb-fleet", "greedy-cost+ls", "greedy-cost"]
    )
    def test_cold_run_assembles_reports_only_for_committed_machines(
        self, placement, monkeypatch
    ):
        # Probes read a search's cost and nothing else: the only reports a
        # cold run assembles are the committed machines'.  The probes'
        # searches still account for the engines' optimizer work.
        assembled = []
        tenant_reports = Advisor._tenant_reports

        def counting(advisor, *args):
            assembled.append(args)
            return tenant_reports(advisor, *args)

        monkeypatch.setattr(Advisor, "_tenant_reports", counting)
        advisor = FleetAdvisor(delta=0.25)
        report = advisor.recommend(
            small_fleet(n_tenants=6, n_machines=3), placement=placement
        )
        occupied = sum(1 for machine in report.machines if machine.tenants)
        assert len(assembled) == occupied
        assert report.cost_stats.optimizer_calls > 0
        assert report.cost_stats.plan_cache_hits > 0

    @pytest.mark.parametrize("placement", ["bnb-fleet", "greedy-cost+ls"])
    def test_cold_run_resolves_each_tenant_once_per_shape(self, placement, monkeypatch):
        # A run materializes each tenant once per hardware shape and
        # resolves its cost-cache row once more per shape; only the
        # committed machines' report assembly resolves rows again.
        calls = {"consolidated": 0, "row": 0}
        consolidated, row = ProblemBuilder.consolidated, CostCache.row

        def counting_consolidated(builder, spec):
            calls["consolidated"] += 1
            return consolidated(builder, spec)

        def counting_row(cache, namespace, tenant):
            calls["row"] += 1
            return row(cache, namespace, tenant)

        priced = []
        machine_cost = _FleetSolver._machine_cost

        def recording_machine_cost(solver, machine_index, tenant_indices):
            priced.append((machine_index, tenant_indices))
            return machine_cost(solver, machine_index, tenant_indices)

        monkeypatch.setattr(ProblemBuilder, "consolidated", counting_consolidated)
        monkeypatch.setattr(CostCache, "row", counting_row)
        monkeypatch.setattr(_FleetSolver, "_machine_cost", recording_machine_cost)
        advisor = FleetAdvisor(delta=0.25)
        problem = small_fleet(n_tenants=6, n_machines=3)
        shapes = len({machine.hardware_key for machine in problem.machines})
        assert shapes == 1
        advisor.recommend(problem, placement=placement)
        assert calls["consolidated"] <= shapes * problem.n_tenants
        assert calls["row"] <= (shapes + 1) * problem.n_tenants
        # Every priced set is in the solve-memo under the key a later run
        # asks for, so a warm repeat stays pure memo hits.
        assert priced
        for machine_index, tenant_indices in priced:
            key = advisor._solve_key(
                problem, problem.machines[machine_index], tuple(sorted(tenant_indices))
            )
            assert advisor.solve_memo.get(key) is not None

    def test_repeat_asks_dispatch_no_task(self, shared_advisor):
        problem = small_fleet(n_tenants=2, n_machines=2)
        assert (
            problem.machines[0].hardware_key == problem.machines[1].hardware_key
        )
        backend = _RecordingBackend()
        solver = _FleetSolver(shared_advisor, problem, backend)
        candidates = [(0, (0, 1)), (1, (1, 0))]

        probes_before = PLACEMENT_PROBES.value
        first = solver.machine_costs(candidates)
        assert backend.batches == [1]
        assert first[0] == first[1]
        assert PLACEMENT_PROBES.value - probes_before == len(candidates)

        probes_before = PLACEMENT_PROBES.value
        assert solver.machine_costs(candidates) == first
        assert backend.batches == [1]
        assert PLACEMENT_PROBES.value - probes_before == len(candidates)


# ----------------------------------------------------------------------
# Custom solvers: the PlacementSolver protocol is all a strategy needs
# ----------------------------------------------------------------------
class _MinimalSolver:
    """A custom PlacementSolver with only the protocol surface."""

    def __init__(self, inner):
        self.inner = inner

    def fits(self, machine_index, tenant_indices):
        return self.inner.fits(machine_index, tenant_indices)

    def machine_costs(self, candidates):
        return self.inner.machine_costs(candidates)


class TestCustomSolver:
    @pytest.mark.parametrize(
        "placement", ["greedy-cost", "greedy-cost+ls", "bnb-fleet", "exhaustive-fleet"]
    )
    def test_matches_fleet_solver(self, shared_advisor, placement):
        problem = small_fleet()
        minimal = _MinimalSolver(
            _FleetSolver(shared_advisor, problem, SerialBackend())
        )
        assert isinstance(minimal, PlacementSolver)
        full = _FleetSolver(shared_advisor, problem, SerialBackend())
        assert PLACEMENTS.create(placement).place(problem, minimal) == (
            PLACEMENTS.create(placement).place(problem, full)
        )


# ----------------------------------------------------------------------
# Local search and the exhaustive baseline
# ----------------------------------------------------------------------
class TestLocalSearch:
    def test_zero_rounds_is_the_identity(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        greedy = GreedyCostPlacement().place(problem, solver)
        assert improve_assignment(problem, solver, greedy, max_rounds=0) == greedy

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigurationError):
            LocalSearchPlacement(max_rounds=-1)

    def test_ls_never_costlier_than_greedy(self, shared_advisor):
        problem = small_fleet()
        greedy = shared_advisor.recommend(problem, placement="greedy-cost")
        improved = shared_advisor.recommend(problem, placement="greedy-cost+ls")
        assert improved.total_weighted_cost <= (
            greedy.total_weighted_cost + 1e-9
        )

    def test_ls_closes_the_measured_optimality_gap(self, shared_advisor):
        # This instance has a real greedy-vs-exact gap; the acceptance bar
        # is that local search closes at least half of it (it closes all
        # of it here — greedy strands the two heavyweight tenants apart).
        problem = small_fleet()
        greedy = shared_advisor.recommend(problem, placement="greedy-cost")
        improved = shared_advisor.recommend(problem, placement="greedy-cost+ls")
        exact = shared_advisor.recommend(problem, placement="exhaustive-fleet")
        assert exact.total_weighted_cost <= improved.total_weighted_cost + 1e-9
        gap = greedy.total_weighted_cost - exact.total_weighted_cost
        assert gap > 1e-6  # the instance genuinely separates the strategies
        closed = greedy.total_weighted_cost - improved.total_weighted_cost
        assert closed >= 0.5 * gap - 1e-9

    def test_exhaustive_guard_refuses_large_fleets(self, shared_advisor):
        problem = small_fleet()
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        with pytest.raises(ConfigurationError, match="max_assignments"):
            ExhaustiveFleetPlacement(max_assignments=8).place(problem, solver)

    def test_exhaustive_guard_message_reports_both_sides(self, shared_advisor):
        # Regression: the guard must name the budget it compared against,
        # not just the assignment count that tripped it.
        problem = small_fleet()  # 2 machines ^ 4 tenants = 16 assignments
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        with pytest.raises(ConfigurationError) as excinfo:
            ExhaustiveFleetPlacement(max_assignments=15).place(problem, solver)
        message = str(excinfo.value)
        assert "16" in message  # what it would enumerate
        assert "15" in message  # the budget it exceeded
        assert "16 > 15" in message  # the comparison, explicitly

    def test_exhaustive_runs_at_exactly_max_assignments(self, shared_advisor):
        # Regression for the boundary: a fleet of *exactly* the budget's
        # size must run (the budget is inclusive), and return the same
        # answer as an unguarded run.
        problem = small_fleet()  # exactly 16 assignments
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        at_budget = ExhaustiveFleetPlacement(max_assignments=16).place(
            problem, solver
        )
        assert at_budget == ExhaustiveFleetPlacement().place(problem, solver)

    def test_exhaustive_infeasible_fleet_raises_placement_error(
        self, shared_advisor
    ):
        # One machine too small for any tenant: no feasible assignment.
        problem = small_fleet(
            n_tenants=2,
            n_machines=1,
            machines=[{"name": "m1", "memory_mb": 128.0}],
        )
        solver = _FleetSolver(shared_advisor, problem, SerialBackend())
        with pytest.raises(PlacementError):
            ExhaustiveFleetPlacement().place(problem, solver)

    def test_registry_names_include_the_fast_path(self):
        names = PLACEMENTS.names()
        for name in ("greedy-cost+ls", "exhaustive-fleet"):
            assert name in names
        assert "greedy-cost-spec" not in names


# ----------------------------------------------------------------------
# Property: local search never loses to greedy (hypothesis)
# ----------------------------------------------------------------------
#: One shared advisor so hypothesis examples reuse calibrations and caches.
_PROPERTY_ADVISOR = FleetAdvisor(delta=0.25)

_QUERIES = ("q17", "q18")


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_local_search_never_costlier_than_greedy(data):
    """greedy-cost+ls is never costlier than greedy-cost on feasible fleets."""
    n_machines = data.draw(st.integers(min_value=1, max_value=3), label="machines")
    n_tenants = data.draw(st.integers(min_value=1, max_value=4), label="tenants")
    machines = [
        {
            "name": f"m{i}",
            "memory_mb": data.draw(
                st.sampled_from((4096.0, 8192.0)), label=f"mem{i}"
            ),
        }
        for i in range(n_machines)
    ]
    tenants = [
        {
            "name": f"t{i}",
            "engine": "postgresql",
            "statements": [[data.draw(st.sampled_from(_QUERIES),
                                      label=f"q{i}"), 1.0]],
            "gain_factor": data.draw(
                st.sampled_from((1.0, 2.0, 3.0)), label=f"gain{i}"
            ),
            "memory_demand_mb": data.draw(
                st.sampled_from((512.0, 1024.0)), label=f"dmem{i}"
            ),
        }
        for i in range(n_tenants)
    ]
    problem = FleetProblem(tenants=tenants, machines=machines)
    try:
        greedy = _PROPERTY_ADVISOR.recommend(problem, placement="greedy-cost")
    except PlacementError:
        return  # infeasible instances are allowed; the property covers the rest
    improved = _PROPERTY_ADVISOR.recommend(problem, placement="greedy-cost+ls")
    assert improved.total_weighted_cost <= greedy.total_weighted_cost + 1e-9
    assert not math.isinf(improved.total_weighted_cost)
