"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main

#: Fast calibration for CLI-built problems (the scenario format carries it).
FAST_CALIBRATION = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}

SCENARIO = {
    "name": "cli-scenario",
    "resources": ["cpu"],
    "calibration": FAST_CALIBRATION,
    "advisor": {"delta": 0.25},
    "tenants": [
        {"name": "dss", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "scan", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}

FLEET = {
    "name": "cli-fleet",
    "resources": ["cpu"],
    "calibration": FAST_CALIBRATION,
    "machines": [{"name": "m1"}, {"name": "m2"}],
    "tenants": [
        {"name": "t1", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "t2", "engine": "db2", "statements": [["q21", 1.0]]},
        {"name": "t3", "engine": "db2", "statements": [["q18", 1.0]]},
    ],
}

TRACE = {
    "name": "cli-trace",
    "n_periods": 2,
    "tenants": [
        {"name": "t1", "engine": "db2", "statements": [["q18", 2.0]],
         "events": [{"time_seconds": 1800.0, "intensity": 2.0}]},
        {"name": "t2", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}

FLEET_FOR_TRACE = {
    "name": "cli-trace-fleet",
    "resources": ["cpu"],
    "calibration": FAST_CALIBRATION,
    "machines": [{"name": "m1"}, {"name": "m2"}],
    "tenants": [
        {"name": "t1", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "t2", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}


def write(tmp_path, name, document):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRecommendCommand:
    def test_emits_a_recommendation_report(self, tmp_path, capsys):
        path = write(tmp_path, "scenario.json", SCENARIO)
        code, out, err = run(capsys, ["recommend", path])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert {tenant["name"] for tenant in report["tenants"]} == {"dss", "scan"}
        # The scenario's embedded advisor options are honoured.
        assert report["provenance"]["options"]["delta"] == 0.25

    def test_output_file(self, tmp_path, capsys):
        path = write(tmp_path, "scenario.json", SCENARIO)
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["recommend", path, "-o", str(target)])
        assert code == 0 and out == ""
        assert "recommendation" in json.loads(target.read_text())


class TestFleetCommand:
    def test_emits_a_fleet_report(self, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        code, out, err = run(capsys, ["fleet", path, "--placement", "round-robin"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["strategy"] == "round-robin"
        assert set(report["placement"]) == {"t1", "t2", "t3"}
        # Default backend provenance is recorded in the report.
        assert report["backend"] == "serial"
        assert report["jobs"] == 1

    def test_local_search_flag_implies_the_ls_strategy(self, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        code, greedy_out, _ = run(capsys, ["fleet", path])
        assert code == 0
        code, out, err = run(capsys, ["fleet", path, "--local-search", "4"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["strategy"] == "greedy-cost+ls"
        greedy = json.loads(greedy_out)
        assert report["total_weighted_cost"] <= (
            greedy["total_weighted_cost"] + 1e-9
        )

    def test_thread_backend_flag_matches_serial_answer(self, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        code, serial_out, _ = run(capsys, ["fleet", path])
        assert code == 0
        code, thread_out, err = run(
            capsys, ["fleet", path, "--backend", "thread", "--jobs", "2"]
        )
        assert code == 0 and err == ""
        serial, threaded = json.loads(serial_out), json.loads(thread_out)
        assert threaded["backend"] == "thread"
        assert threaded["jobs"] == 2
        # The answer is backend-invariant; only provenance and run
        # artifacts (timing, cache traffic) may differ.
        assert threaded["placement"] == serial["placement"]
        assert threaded["total_weighted_cost"] == serial["total_weighted_cost"]

    def test_unknown_backend_is_rejected_by_argparse(self, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        for name in ("gpu", "process"):
            with pytest.raises(SystemExit) as exited:
                main(["fleet", path, "--backend", name])
            assert exited.value.code == 2

    def test_bnb_placement_reports_search_provenance(self, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        code, out, err = run(capsys, ["fleet", path, "--placement", "bnb-fleet"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["strategy"] == "bnb-fleet"
        provenance = report["placement_provenance"]
        assert provenance["proven_optimal"] is True
        assert provenance["nodes_explored"] < provenance["full_tree_size"]

    def test_bnb_budget_flags_imply_bnb_and_degrade(self, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        code, out, err = run(capsys, ["fleet", path, "--bnb-max-nodes", "1"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["strategy"] == "bnb-fleet"
        provenance = report["placement_provenance"]
        assert provenance["proven_optimal"] is False
        assert provenance["budget_exhausted"] == "nodes"
        assert set(report["placement"]) == {"t1", "t2", "t3"}

    def test_bnb_budget_flags_reject_other_placements(self, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        code, _, err = run(
            capsys,
            ["fleet", path, "--placement", "greedy-cost", "--bnb-max-nodes", "5"],
        )
        assert code == 2
        assert "bnb-fleet" in err
        code, _, err = run(
            capsys,
            ["fleet", path, "--local-search", "2", "--bnb-max-seconds", "1"],
        )
        assert code == 2
        assert "one family" in err


class TestReplayCommand:
    def test_single_machine_replay(self, tmp_path, capsys):
        path = write(tmp_path, "trace.json", TRACE)
        code, out, err = run(capsys, ["replay", path, "--policy", "static"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["mode"] == "single-machine"
        assert report["policy"] == "static"
        assert len(report["periods"]) == 2

    def test_fleet_replay(self, tmp_path, capsys):
        trace = write(tmp_path, "trace.json", TRACE)
        fleet = write(tmp_path, "fleet.json", FLEET_FOR_TRACE)
        code, out, err = run(capsys, ["replay", trace, "--fleet", fleet])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["mode"] == "fleet"
        assert set(report["periods"][0]["placement"]) == {"t1", "t2"}
        assert report["backend"] == "serial"

    def test_fleet_replay_thread_backend(self, tmp_path, capsys):
        trace = write(tmp_path, "trace.json", TRACE)
        fleet = write(tmp_path, "fleet.json", FLEET_FOR_TRACE)
        code, serial_out, _ = run(capsys, ["replay", trace, "--fleet", fleet])
        assert code == 0
        code, thread_out, err = run(
            capsys,
            ["replay", trace, "--fleet", fleet, "--backend", "thread", "--jobs", "2"],
        )
        assert code == 0 and err == ""
        serial, threaded = json.loads(serial_out), json.loads(thread_out)
        assert threaded["backend"] == "thread" and threaded["jobs"] == 2
        assert threaded["periods"] == serial["periods"]
        assert threaded["cumulative_actual_cost"] == serial["cumulative_actual_cost"]


class TestVersionFlag:
    def test_version_reports_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {repro.__version__}"


class TestStdinInput:
    def test_recommend_reads_scenario_from_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(SCENARIO)))
        code, out, err = run(capsys, ["recommend", "-"])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert {tenant["name"] for tenant in report["tenants"]} == {"dss", "scan"}

    def test_fleet_reads_problem_from_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(FLEET)))
        code, out, err = run(capsys, ["fleet", "-"])
        assert code == 0 and err == ""
        assert set(json.loads(out)["placement"]) == {"t1", "t2", "t3"}

    def test_replay_reads_trace_from_dash(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(TRACE)))
        code, out, err = run(capsys, ["replay", "-", "--policy", "static"])
        assert code == 0 and err == ""
        assert json.loads(out)["mode"] == "single-machine"

    def test_invalid_stdin_document_is_a_clean_error(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO("not json"))
        code, out, err = run(capsys, ["recommend", "-"])
        assert code == 2 and out == ""
        assert "error:" in err


class TestErrorHandling:
    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        code, out, err = run(capsys, ["recommend", str(tmp_path / "absent.json")])
        assert code == 2 and out == ""
        assert "error:" in err

    def test_invalid_document_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x", "bogus_key": 1}', encoding="utf-8")
        code, _, err = run(capsys, ["replay", str(path)])
        assert code == 2
        assert "error:" in err

    def test_unwritable_output_is_a_clean_error(self, tmp_path, capsys):
        path = write(tmp_path, "scenario.json", SCENARIO)
        code, out, err = run(
            capsys,
            ["recommend", path, "-o", str(tmp_path / "absent-dir" / "r.json")],
        )
        assert code == 2 and "error:" in err

    def test_unknown_command_exits_via_argparse(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_serve_jobs_needs_a_parallel_backend(self, capsys, monkeypatch):
        # The default backend is serial, which refuses a worker count, the
        # same rule fleet and replay follow; the server must never start.
        def refuse(**_options):
            raise AssertionError("serve started despite --jobs 8")

        monkeypatch.setattr("repro.service.serve", refuse)
        code, out, err = run(capsys, ["serve", "--port", "0", "--jobs", "8"])
        assert code == 2 and out == ""
        assert "error: the serial backend" in err


# ----------------------------------------------------------------------
# loadgen
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def live_server():
    """A real served advisor on an ephemeral port, shared by the module."""
    import threading

    from repro.service import AdvisorHTTPServer, AdvisorService

    service = AdvisorService(backend="thread", jobs=2, delta=0.25)
    server = AdvisorHTTPServer(("127.0.0.1", 0), service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestLoadgenCommand:
    def test_default_scenario_run_emits_a_load_report(
        self, live_server, tmp_path, capsys
    ):
        target = tmp_path / "load.json"
        code, out, err = run(
            capsys,
            [
                "loadgen", "--url", live_server.url,
                "--rate", "6", "--duration", "1", "--seed", "5",
                "--p95", "30", "--max-error-rate", "0",
                "-o", str(target),
            ],
        )
        assert code == 0 and err == ""
        report = json.loads(target.read_text())
        assert report["name"] == "constant"
        assert report["seed"] == 5
        assert report["completed"] == report["scheduled_requests"] == 6
        assert report["errors"] == 0
        assert report["slo"]["ok"] is True
        assert {o["name"] for o in report["slo"]["objectives"]} == {
            "p95_seconds", "max_error_rate",
        }
        assert report["server"]["delta"]["requests_total"]["recommend"] >= 6

    def test_explicit_document_and_endpoint(self, live_server, tmp_path, capsys):
        path = write(tmp_path, "fleet.json", FLEET)
        code, out, err = run(
            capsys,
            [
                "loadgen", path, "--url", live_server.url,
                "--endpoint", "fleet", "--rate", "2", "--duration", "1",
                "--no-scrape",
            ],
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["errors"] == 0
        assert set(report["per_endpoint"]) == {"fleet"}
        assert report["server"] is None

    def test_trace_driven_run(self, live_server, tmp_path, capsys):
        path = write(tmp_path, "trace.json", TRACE)
        code, out, err = run(
            capsys,
            [
                "loadgen", "--url", live_server.url,
                "--trace", path, "--period-duration", "0.5",
                "--no-scrape",
            ],
        )
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["name"] == "trace:cli-trace"
        assert report["completed"] == report["scheduled_requests"] > 0

    def test_sweep_reports_a_reproducible_saturation_point(
        self, live_server, tmp_path, capsys
    ):
        argv = [
            "loadgen", "--url", live_server.url, "--sweep",
            "--p95", "1e-9",  # unmeetable: saturates on step one
            "--sweep-start-rate", "3", "--sweep-steps", "2",
            "--sweep-step-duration", "0.5", "--seed", "17", "--no-scrape",
        ]
        code, first_out, err = run(capsys, argv)
        assert code == 0 and err == ""
        first = json.loads(first_out)
        assert first["saturated"] is True
        # The breaking rate is the first step's realized offered rate
        # (constant shapes round the request count to an integer).
        assert first["breaking_rate_rps"] == pytest.approx(
            first["steps"][0]["offered_rate_rps"]
        )
        assert first["steps"][0]["slo"]["ok"] is False
        assert "p95_seconds" in first["steps"][0]["slo"]["breached"]
        code, second_out, _ = run(capsys, argv)
        assert code == 0
        second = json.loads(second_out)
        # Same seed: the same arrivals were offered at the same rates.
        assert second["seed"] == first["seed"]
        assert second["breaking_rate_rps"] == first["breaking_rate_rps"]
        assert [s["scheduled_requests"] for s in second["steps"]] == [
            s["scheduled_requests"] for s in first["steps"]
        ]

    def test_slo_file_and_quick_flags_conflict(
        self, live_server, tmp_path, capsys
    ):
        slo = write(tmp_path, "slo.json", {"p95_seconds": 1.0})
        code, _, err = run(
            capsys,
            [
                "loadgen", "--url", live_server.url, "--slo", slo,
                "--p95", "0.5",
            ],
        )
        assert code == 2 and "error:" in err

    def test_non_recommend_endpoint_requires_a_document(self, capsys):
        code, _, err = run(
            capsys, ["loadgen", "--endpoint", "fleet", "--no-scrape"]
        )
        assert code == 2 and "error:" in err

    def test_unreachable_server_is_a_clean_error(self, capsys):
        code, _, err = run(
            capsys,
            [
                "loadgen", "--url", "http://127.0.0.1:9",
                "--rate", "1", "--duration", "1",
            ],
        )
        assert code == 2 and "error:" in err
