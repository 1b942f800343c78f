"""Tests for regression utilities, probes, renormalization, and calibration."""

import sys
import threading

import pytest

from repro.calibration import calibrator as calibrator_module
from repro.calibration.calibrator import (
    CalibrationSettings,
    DB2Calibration,
    PostgreSQLCalibration,
    calibrate_engine,
    calibration_environment,
    measure_db2_cpu_parameters,
    measure_postgresql_cpu_parameters,
)
from repro.calibration.probes import cpu_speed_probe, random_io_probe, sequential_io_probe
from repro.calibration.queries import calibration_database, calibration_queries
from repro.calibration.regression import (
    LinearFit,
    fit_linear,
    fit_multilinear,
    fit_proportional,
    r_squared,
    solve_linear_system,
)
from repro.calibration.renormalize import RegressionRenormalizer, ScalarRenormalizer
from repro.dbms import interface as interface_module
from repro.dbms import planner as planner_module
from repro.dbms.db2 import DB2Engine
from repro.exceptions import CalibrationError
from repro.virt.hypervisor import Hypervisor


class TestRegression:
    def test_fit_linear_recovers_exact_line(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        ys = [2 * x + 1 for x in xs]
        fit = fit_linear(xs, ys)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit(5.0) == pytest.approx(11.0)

    def test_fit_linear_single_point_is_constant(self):
        fit = fit_linear([2.0], [7.0])
        assert fit.slope == 0.0
        assert fit.predict(100.0) == 7.0

    def test_fit_linear_validates_inputs(self):
        with pytest.raises(CalibrationError):
            fit_linear([], [])
        with pytest.raises(CalibrationError):
            fit_linear([1.0, 2.0], [1.0])

    def test_fit_proportional(self):
        assert fit_proportional([1.0, 2.0], [3.0, 6.0]) == pytest.approx(3.0)
        with pytest.raises(CalibrationError):
            fit_proportional([0.0], [1.0])

    def test_fit_multilinear_recovers_plane(self):
        features = [[1.0, 2.0], [2.0, 1.0], [3.0, 3.0], [0.5, 4.0]]
        ys = [3 * a + 5 * b + 2 for a, b in features]
        fit = fit_multilinear(features, ys)
        assert fit.coefficients[0] == pytest.approx(3.0)
        assert fit.coefficients[1] == pytest.approx(5.0)
        assert fit.intercept == pytest.approx(2.0)
        assert fit([1.0, 1.0]) == pytest.approx(10.0)

    def test_fit_multilinear_rejects_wrong_feature_count(self):
        fit = fit_multilinear([[1.0, 2.0]], [3.0])
        with pytest.raises(CalibrationError):
            fit.predict([1.0])

    def test_solve_linear_system(self):
        solution = solve_linear_system([[2.0, 1.0], [1.0, 3.0]], [5.0, 10.0])
        assert solution[0] == pytest.approx(1.0)
        assert solution[1] == pytest.approx(3.0)

    def test_solve_singular_system_raises(self):
        with pytest.raises(CalibrationError):
            solve_linear_system([[1.0, 1.0], [2.0, 2.0]], [1.0, 2.0])

    def test_r_squared_perfect_fit(self):
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_r_squared_poor_fit_is_lower(self):
        good = r_squared([1.0, 2.0, 3.0], [1.1, 1.9, 3.2])
        bad = r_squared([3.0, 1.0, 2.0], [1.1, 1.9, 3.2])
        assert good > bad


class TestProbes:
    def env(self, machine, cpu_share=0.5):
        hypervisor = Hypervisor(machine)
        vm = hypervisor.create_vm("vm", cpu_share=cpu_share, memory_mb=2048)
        return vm.environment()

    def test_cpu_probe_scales_with_share(self, machine):
        fast = cpu_speed_probe(self.env(machine, 1.0))
        slow = cpu_speed_probe(self.env(machine, 0.25))
        assert slow.value == pytest.approx(4.0 * fast.value)
        assert slow.duration_seconds > fast.duration_seconds

    def test_io_probes_measure_disk_profile(self, machine):
        env = self.env(machine)
        assert sequential_io_probe(env).value == pytest.approx(env.seq_page_seconds)
        assert random_io_probe(env).value == pytest.approx(env.random_page_seconds)

    def test_probes_reject_zero_cpu(self, machine):
        from repro.virt.vm import VMEnvironment

        env = VMEnvironment(
            cpu_share=0.0, memory_mb=512.0, dbms_memory_mb=272.0,
            seconds_per_work_unit=1e-6, seq_page_seconds=1e-4,
            random_page_seconds=1e-3, write_page_seconds=1e-3,
            page_size=8192, io_contention_factor=1.0,
        )
        with pytest.raises(CalibrationError):
            cpu_speed_probe(env)


class TestRenormalizers:
    def test_scalar_renormalizer(self):
        renorm = ScalarRenormalizer(seconds_per_unit=0.001)
        assert renorm.to_seconds(2000.0) == pytest.approx(2.0)
        with pytest.raises(CalibrationError):
            renorm.to_seconds(-1.0)

    def test_regression_renormalizer_fits_slope(self):
        renorm = RegressionRenormalizer.from_observations(
            [100.0, 200.0, 400.0], [1.0, 2.0, 4.0]
        )
        assert renorm.seconds_per_unit == pytest.approx(0.01)
        assert renorm(300.0) == pytest.approx(3.0)

    def test_regression_renormalizer_validates(self):
        with pytest.raises(CalibrationError):
            RegressionRenormalizer.from_observations([], [])


class TestCalibrationQueries:
    def test_calibration_database_is_small(self):
        database = calibration_database()
        assert database.total_size_mb < 100

    def test_queries_return_few_rows(self):
        queries = calibration_queries(calibration_database())
        assert queries["cal_count"].usage.rows_returned <= 1
        assert queries["cal_index"].usage.index_tuples > 0

    def test_count_and_group_have_independent_cpu_mixes(self):
        queries = calibration_queries(calibration_database())
        count_usage = queries["cal_count"].usage
        group_usage = queries["cal_group"].usage
        ratio_count = count_usage.operator_evals / count_usage.tuples
        ratio_group = group_usage.operator_evals / group_usage.tuples
        assert abs(ratio_count - ratio_group) > 0.1


class TestCalibrationProcedure:
    def test_settings_validation(self):
        with pytest.raises(CalibrationError):
            CalibrationSettings(cpu_shares=())
        with pytest.raises(CalibrationError):
            CalibrationSettings(cpu_shares=(0.0, 0.5))

    def test_environment_builder_respects_settings(self, machine):
        settings = CalibrationSettings()
        env = calibration_environment(machine, 0.5, 0.5, settings)
        assert env.cpu_share == pytest.approx(0.5)
        assert env.io_contention_factor == pytest.approx(2.0)

    def test_postgresql_cpu_parameters_recover_ground_truth(self, pg_engine, machine):
        values = measure_postgresql_cpu_parameters(pg_engine, machine, 0.5, 0.5)
        hypervisor = Hypervisor(machine)
        vm = hypervisor.create_vm("ref", cpu_share=0.5, memory_mb=4096)
        truth = pg_engine.true_configuration(vm.environment())
        # The contention VM is present during calibration, so compare against
        # a truth computed without it only loosely: the ratio of tuple to
        # operator cost must match the ground-truth work-unit weights.
        assert values["cpu_tuple_cost"] / values["cpu_operator_cost"] == pytest.approx(
            truth.cpu_tuple_cost / truth.cpu_operator_cost, rel=0.2
        )

    def test_postgresql_calibration_is_linear_in_inverse_share(self, pg_calibration):
        low = pg_calibration.parameters_for_allocation(0.2, 0.5)
        high = pg_calibration.parameters_for_allocation(0.8, 0.5)
        assert low.cpu_tuple_cost > high.cpu_tuple_cost
        # random_page_cost does not depend on the CPU share.
        assert low.random_page_cost == pytest.approx(high.random_page_cost)

    def test_postgresql_prescriptive_parameters_follow_policy(self, pg_calibration):
        params = pg_calibration.parameters_for_allocation(0.5, 0.5)
        memory = pg_calibration.engine.memory_configuration(
            pg_calibration.dbms_memory_mb(0.5)
        )
        assert params.shared_buffers_mb == pytest.approx(memory.buffer_pool_mb)
        assert params.work_mem_mb == pytest.approx(memory.work_mem_mb)

    def test_db2_cpuspeed_measurement(self, machine):
        values = measure_db2_cpu_parameters(machine, 0.5, 0.5)
        assert values["cpuspeed_ms"] > 0
        assert values["transfer_rate_ms"] > 0
        assert values["overhead_ms"] > 0

    def test_db2_calibration_produces_regression_renormalizer(self, db2_calibration):
        assert isinstance(db2_calibration, DB2Calibration)
        assert db2_calibration.renormalizer.seconds_per_unit > 0

    def test_db2_cpuspeed_scales_with_inverse_share(self, db2_calibration):
        low = db2_calibration.parameters_for_allocation(0.25, 0.5)
        high = db2_calibration.parameters_for_allocation(1.0, 0.5)
        assert low.cpuspeed_ms == pytest.approx(4.0 * high.cpuspeed_ms, rel=0.05)

    def test_estimates_decrease_with_more_cpu(self, db2_calibration, tpch_sf1_queries):
        pairs = [(tpch_sf1_queries["q18"], 1.0)]
        slow = db2_calibration.estimate_workload_seconds(pairs, 0.2, 0.5)
        fast = db2_calibration.estimate_workload_seconds(pairs, 0.9, 0.5)
        assert fast < slow

    def test_estimates_are_in_plausible_seconds(self, db2_calibration,
                                                tpch_sf1_queries):
        seconds = db2_calibration.estimate_query_seconds(tpch_sf1_queries["q6"], 0.5, 0.5)
        assert 0.01 < seconds < 3600

    def test_calibration_report_accounts_time(self, db2_calibration, pg_calibration):
        assert db2_calibration.report.total_seconds > 0
        assert pg_calibration.report.query_runs > 0

    def test_calibrate_engine_dispatches_by_type(self, pg_engine, db2_engine, machine):
        settings = CalibrationSettings(cpu_shares=(0.5, 1.0))
        assert isinstance(calibrate_engine(pg_engine, machine, settings),
                          PostgreSQLCalibration)
        assert isinstance(calibrate_engine(db2_engine, machine, settings),
                          DB2Calibration)

    def test_calibrate_engine_rejects_unknown_engine(self, machine, tpch_sf1):
        class FakeEngine:
            pass

        with pytest.raises(CalibrationError):
            calibrate_engine(FakeEngine(), machine)  # type: ignore[arg-type]

    def test_plan_signature_changes_with_memory(self, db2_calibration,
                                                tpch_sf1_queries):
        q18 = tpch_sf1_queries["q18"]
        signatures = {
            db2_calibration.plan_signature(q18, 0.5, fraction)
            for fraction in (0.1, 0.3, 0.5, 0.7, 0.9)
        }
        assert len(signatures) >= 1  # defined for every allocation


class TestParameterMemo:
    def test_a_repeated_pair_returns_one_vector(self, db2_calibration):
        first = db2_calibration.parameters_for_allocation(0.35, 0.45)
        assert db2_calibration.parameters_for_allocation(0.35, 0.45) is first

    @pytest.mark.parametrize("cpu_share", [0.0, -0.5])
    def test_nonpositive_cpu_share_raises_on_every_call(self, db2_calibration,
                                                         cpu_share):
        for _ in range(2):
            with pytest.raises(CalibrationError, match="cpu_share must be positive"):
                db2_calibration.parameters_for_allocation(cpu_share, 0.5)
        assert (cpu_share, 0.5) not in db2_calibration._parameters

    def test_concurrent_estimates_match_serial_and_stay_bounded(
        self, machine, tpch_sf1, tpch_sf1_queries, monkeypatch
    ):
        # Eight threads share one calibration, its engine's plan cache and
        # its planner's operator memo, with bounds small enough that all
        # three are dropped over and over, and a tiny switch interval so
        # threads interleave inside the builds.  Every answer must equal
        # the serial one, and no memo may outgrow its bound.
        calibration = calibrate_engine(
            DB2Engine(tpch_sf1), machine, CalibrationSettings(cpu_shares=(0.5, 1.0))
        )
        engine = calibration.engine
        statements = [(tpch_sf1_queries[name], 1.0) for name in ("q1", "q3", "q6", "q18")]
        pairs = [
            (cpu, memory) for cpu in (0.2, 0.4, 0.6, 0.8, 1.0) for memory in (0.25, 0.5, 1.0)
        ]
        expected = dict(zip(pairs, calibration.estimate_workload_seconds_many(statements, pairs)))
        calibration._parameters.clear()
        engine.planner._operators.clear()
        engine.clear_plan_cache()
        bounds = {"parameters": 4, "operators": 16, "plans": 8}
        monkeypatch.setattr(calibrator_module, "_MAX_PARAMETER_VECTORS", bounds["parameters"])
        monkeypatch.setattr(planner_module, "_MAX_OPERATOR_ENTRIES", bounds["operators"])
        monkeypatch.setattr(interface_module, "_MAX_CACHED_PLANS", bounds["plans"])

        def sizes():
            return {
                "parameters": len(calibration._parameters),
                "operators": len(engine.planner._operators),
                "plans": len(engine._plan_cache),
            }

        n_threads, rounds, batch = 8, 12, 4
        barrier = threading.Barrier(n_threads)
        errors = []

        def worker(seed):
            try:
                barrier.wait(timeout=30)
                for step in range(rounds):
                    start = (seed * 5 + step) % (len(pairs) - batch)
                    chosen = pairs[start : start + batch]
                    assert calibration.estimate_workload_seconds_many(
                        statements, chosen
                    ) == [expected[pair] for pair in chosen]
                    assert all(size <= bounds[name] for name, size in sizes().items())
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(index,)) for index in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert all(size <= bounds[name] for name, size in sizes().items())
