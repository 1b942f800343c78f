"""Tests for the parallel solver-execution subsystem (:mod:`repro.parallel`).

Covers the backend registry and the three built-in backends (task
ordering, exception propagation, bounded concurrency), the determinism
contract — the ``thread`` and ``asyncio`` backends produce bit-identical
fleet reports and replay periods to ``serial`` on the 12-tenant ×
4-machine example — backend/jobs provenance in the reports, and the
simulated-RPC what-if estimator the scaling benchmark builds on.
"""

import pytest

from repro.api import UnknownStrategyError
from repro.api.strategies import COST_FUNCTIONS
from repro.exceptions import ConfigurationError
from repro.experiments.fleet import build_fleet_problem
from repro.fleet import FleetAdvisor, FleetProblem, FleetReport
from repro.parallel import (
    BACKENDS,
    AsyncioBackend,
    SerialBackend,
    SimulatedRpcWhatIfEstimator,
    SolveTask,
    ThreadBackend,
    resolve_backend,
)
from repro.traces import FleetTraceReplayer, ReplayReport, TraceReplayer
from repro.traces.generators import diurnal_trace

#: Coarse grid keeps every solve fast; the calibration override keeps each
#: fresh advisor cheap to warm up.
FAST_FLEET_CALIBRATION = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}


def fast_fleet(n_tenants=12, n_machines=4, **overrides) -> FleetProblem:
    """The 12-tenant × 4-machine example with a fast calibration grid."""
    problem = build_fleet_problem(n_tenants=n_tenants, n_machines=n_machines)
    data = problem.to_dict()
    data["calibration"] = dict(FAST_FLEET_CALIBRATION)
    data.update(overrides)
    return FleetProblem.from_dict(data)


def small_trace_and_fleet(n_tenants=4, n_machines=2, n_periods=3):
    """A small CPU-only fleet plus a diurnal trace over its tenants."""
    tenants = [
        {
            "name": f"t{i + 1}",
            "engine": "postgresql" if i % 2 == 0 else "db2",
            "statements": [["q17" if i % 2 == 0 else "q18", 1.0 + i]],
            "gain_factor": 1.0 + i % 3,
        }
        for i in range(n_tenants)
    ]
    fleet = FleetProblem.from_dict(
        {
            "name": "parallel-replay-fleet",
            "resources": ["cpu"],
            "tenants": tenants,
            "machines": [{"name": f"m{i + 1}"} for i in range(n_machines)],
            "calibration": dict(FAST_FLEET_CALIBRATION),
        }
    )
    specs = [{k: v for k, v in t.items() if k != "gain_factor"} for t in tenants]
    return diurnal_trace(specs, n_periods=n_periods), fleet


# ----------------------------------------------------------------------
# Registry and backend mechanics
# ----------------------------------------------------------------------
class TestBackends:
    def test_registry_names(self):
        assert {"serial", "thread", "asyncio"} <= set(BACKENDS.names())

    def test_resolve_by_name_and_default(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("thread", jobs=2), ThreadBackend)
        assert resolve_backend("thread", jobs=2).jobs == 2

    def test_resolve_rejects_jobs_with_instance(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(SerialBackend(), jobs=2)

    def test_resolve_rejects_non_backend(self):
        with pytest.raises(ConfigurationError):
            resolve_backend(object())  # type: ignore[arg-type]

    def test_unknown_name_is_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_backend("gpu")
        # An unregistered name is rejected with the registered ones listed.
        with pytest.raises(UnknownStrategyError, match="asyncio, serial, thread"):
            resolve_backend("process")

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            ThreadBackend(jobs=0)

    def test_serial_rejects_explicit_parallel_jobs(self):
        # jobs=8 on the serial backend would be a silent no-op; fail loudly.
        with pytest.raises(ConfigurationError, match="one task at a time"):
            SerialBackend(jobs=8)
        assert SerialBackend(jobs=1).jobs == 1

    def test_serial_runs_in_order(self):
        seen = []

        def make(i):
            def call():
                seen.append(i)
                return i * i

            return SolveTask(call=call)

        backend = SerialBackend()
        assert backend.run([make(i) for i in range(5)]) == [0, 1, 4, 9, 16]
        assert seen == [0, 1, 2, 3, 4]

    def test_thread_preserves_task_order(self):
        with ThreadBackend(jobs=4) as backend:
            tasks = [SolveTask(call=lambda i=i: i * i) for i in range(20)]
            assert backend.run(tasks) == [i * i for i in range(20)]

    def test_thread_propagates_exceptions(self):
        def boom():
            raise ValueError("solver exploded")

        with ThreadBackend(jobs=2) as backend:
            with pytest.raises(ValueError, match="solver exploded"):
                backend.run([SolveTask(call=boom), SolveTask(call=lambda: 1)])

    def test_asyncio_preserves_task_order(self):
        with AsyncioBackend(jobs=4) as backend:
            tasks = [SolveTask(call=lambda i=i: i * i) for i in range(20)]
            assert backend.run(tasks) == [i * i for i in range(20)]

    def test_asyncio_bounds_concurrency_to_jobs(self):
        import threading
        import time

        running, peak = [0], [0]
        lock = threading.Lock()

        def call():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return True

        with AsyncioBackend(jobs=2) as backend:
            assert backend.run([SolveTask(call=call) for _ in range(8)]) == [True] * 8
        assert peak[0] <= 2

    def test_asyncio_run_async_is_awaitable(self):
        import asyncio

        async def drive():
            with AsyncioBackend(jobs=3) as backend:
                tasks = [SolveTask(call=lambda i=i: i + 1) for i in range(6)]
                return await backend.run_async(tasks)

        assert asyncio.run(drive()) == [1, 2, 3, 4, 5, 6]

    def test_asyncio_run_refuses_inside_a_running_loop(self):
        import asyncio

        async def drive():
            backend = AsyncioBackend(jobs=2)
            tasks = [SolveTask(call=lambda: 1), SolveTask(call=lambda: 2)]
            with pytest.raises(ConfigurationError, match="run_async"):
                backend.run(tasks)
            return await backend.run_async(tasks)

        assert asyncio.run(drive()) == [1, 2]

    def test_asyncio_propagates_exceptions(self):
        def boom():
            raise ValueError("solver exploded")

        with AsyncioBackend(jobs=2) as backend:
            with pytest.raises(ValueError, match="solver exploded"):
                backend.run([SolveTask(call=boom), SolveTask(call=lambda: 1)])


# ----------------------------------------------------------------------
# Determinism: parallel backends reproduce the serial answer bit for bit
# ----------------------------------------------------------------------
class TestFleetDeterminism:
    @pytest.fixture(scope="class")
    def problem(self):
        return fast_fleet()

    @pytest.fixture(scope="class")
    def serial_report(self, problem):
        return FleetAdvisor(delta=0.25).recommend(problem)

    def test_serial_provenance(self, serial_report):
        assert serial_report.backend == "serial"
        assert serial_report.jobs == 1

    def test_thread_backend_is_bit_identical(self, problem, serial_report):
        threaded = FleetAdvisor(delta=0.25, backend="thread", jobs=4).recommend(
            problem
        )
        assert threaded.backend == "thread"
        assert threaded.jobs == 4
        assert threaded.canonical_dict() == serial_report.canonical_dict()

    def test_asyncio_backend_is_bit_identical(self, problem, serial_report):
        advisor = FleetAdvisor(delta=0.25, backend="asyncio", jobs=4)
        try:
            report = advisor.recommend(problem)
        finally:
            advisor.backend.close()
        assert report.backend == "asyncio"
        assert report.jobs == 4
        assert report.canonical_dict() == serial_report.canonical_dict()

    def test_per_call_backend_override(self, problem, serial_report):
        advisor = FleetAdvisor(delta=0.25)
        threaded = advisor.recommend(problem, backend="thread", jobs=2)
        assert threaded.backend == "thread"
        assert threaded.canonical_dict() == serial_report.canonical_dict()
        # The advisor-level default is untouched by the per-call override.
        assert advisor.recommend(problem).backend == "serial"

    def test_incremental_replacement_is_backend_invariant(self, problem):
        serial_advisor = FleetAdvisor(delta=0.25)
        base = serial_advisor.recommend(problem)
        moved = [problem.tenants[0].name, problem.tenants[5].name]
        serial = serial_advisor.recommend_incremental(problem, base, moved=moved)
        threaded = serial_advisor.recommend_incremental(
            problem, base, moved=moved, backend="thread", jobs=4
        )
        assert threaded.canonical_dict() == serial.canonical_dict()

    def test_canonical_dict_round_trips_through_json(self, serial_report):
        rebuilt = FleetReport.from_json(serial_report.to_json())
        assert rebuilt.canonical_dict() == serial_report.canonical_dict()
        assert rebuilt.backend == serial_report.backend

    def test_jobs_only_override_requires_registry_backend(self, problem):
        class CustomBackend(SerialBackend):
            name = "custom-rpc"

        advisor = FleetAdvisor(delta=0.25, backend=CustomBackend())
        with pytest.raises(ConfigurationError, match="custom backend"):
            advisor.recommend(problem, jobs=8)

class TestReplayDeterminism:
    @pytest.fixture(scope="class")
    def trace_and_fleet(self):
        return small_trace_and_fleet()

    @pytest.mark.parametrize("policy", ["dynamic", "static"])
    def test_fleet_replay_thread_matches_serial(self, trace_and_fleet, policy):
        trace, fleet = trace_and_fleet
        serial = FleetTraceReplayer(trace, fleet, policy=policy).replay()
        threaded = FleetTraceReplayer(
            trace, fleet, policy=policy, backend="thread", jobs=2
        ).replay()
        assert threaded.backend == "thread"
        assert threaded.canonical_dict() == serial.canonical_dict()
        assert threaded.cumulative_actual_cost == serial.cumulative_actual_cost

    def test_fleet_replay_asyncio_matches_serial(self, trace_and_fleet):
        trace, fleet = trace_and_fleet
        serial = FleetTraceReplayer(trace, fleet).replay()
        replayer = FleetTraceReplayer(trace, fleet, backend="asyncio", jobs=2)
        try:
            report = replayer.replay()
        finally:
            replayer.backend.close()
        assert report.backend == "asyncio"
        assert report.canonical_dict() == serial.canonical_dict()

    def test_single_machine_static_replay_fans_out(self, trace_and_fleet):
        trace, _fleet = trace_and_fleet
        serial = TraceReplayer(trace, policy="static").replay()
        threaded = TraceReplayer(
            trace, policy="static", backend="thread", jobs=2
        ).replay()
        assert threaded.canonical_dict() == serial.canonical_dict()

    def test_replayer_rejects_backend_plus_advisor(self, trace_and_fleet):
        trace, fleet = trace_and_fleet
        with pytest.raises(ConfigurationError):
            FleetTraceReplayer(
                trace, fleet, advisor=FleetAdvisor(), backend="thread"
            )

    def test_replay_report_round_trips_backend(self, trace_and_fleet):
        trace, fleet = trace_and_fleet
        report = FleetTraceReplayer(
            trace, fleet, backend="thread", jobs=2
        ).replay()
        rebuilt = ReplayReport.from_json(report.to_json())
        assert rebuilt.backend == "thread"
        assert rebuilt.jobs == 2
        assert rebuilt.canonical_dict() == report.canonical_dict()


# ----------------------------------------------------------------------
# Simulated-RPC what-if estimator (the scaling benchmark's cost function)
# ----------------------------------------------------------------------
class TestSimulatedRpc:
    def test_registered_as_cost_function(self):
        assert "what-if-rpc" in COST_FUNCTIONS

    def test_values_match_plain_what_if(self):
        problem = fast_fleet(n_tenants=2, n_machines=1)
        plain = FleetAdvisor(delta=0.25).recommend(problem)
        via_rpc = FleetAdvisor(delta=0.25, cost_function="what-if-rpc").recommend(
            problem
        )
        # Latency simulation must not change a single number — only the
        # provenance (which names the cost-function strategy) differs.
        assert via_rpc.placement == plain.placement
        assert via_rpc.total_cost == plain.total_cost
        assert via_rpc.total_weighted_cost == plain.total_weighted_cost

    def test_shares_the_what_if_cache_namespace(self):
        from repro.core.cost_estimator import WhatIfCostEstimator

        assert (
            SimulatedRpcWhatIfEstimator.cache_namespace
            == WhatIfCostEstimator.__name__
        )
