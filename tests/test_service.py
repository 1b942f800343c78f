"""Tests for the serving tier (:mod:`repro.service`).

Covers the shared :class:`~repro.service.AdvisorService` engine
(per-request advisors over one process-wide cache pool; repeats answered
without new evaluations), its awaitable face, and the stdlib HTTP
server — including the concurrent mixed-endpoint
property: N parallel clients hitting one served advisor receive responses
byte-equal under ``canonical_dict()`` to direct library calls, and
repeats drive the shared cost-cache hit rate above zero.  The server's
own limits are tested too: the admission bound on concurrent solves,
the request-body cap, and keep-alive round trips free of the Nagle /
delayed-ACK stall.
"""

import asyncio
import copy
import gc
import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.__main__ import main as cli_main
from repro.api import Advisor, Scenario
from repro.api.report import RecommendationReport
from repro.core.problem import VirtualizationDesignProblem
from repro.exceptions import ConfigurationError
from repro.fleet import FleetAdvisor, FleetProblem
from repro.fleet.report import FleetReport
from repro.service import AdvisorHTTPServer, AdvisorService, AsyncAdvisorService
from repro.service.http import MAX_BODY_BYTES
from repro.traces import FleetTraceReplayer, TraceReplayer, WorkloadTrace
from repro.traces.replay import ReplayReport

#: Coarse calibration grid keeps every solve fast.
FAST_CALIBRATION = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}

SCENARIO = {
    "name": "served-scenario",
    "resources": ["cpu"],
    "calibration": FAST_CALIBRATION,
    "advisor": {"delta": 0.25},
    "tenants": [
        {"name": "dss", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "scan", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}

FLEET = {
    "name": "served-fleet",
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
    "name": "served-trace",
    "n_periods": 2,
    "tenants": [
        {"name": "t1", "engine": "db2", "statements": [["q18", 2.0]],
         "events": [{"time_seconds": 1800.0, "intensity": 2.0}]},
        {"name": "t2", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}

FLEET_FOR_TRACE = {
    "name": "served-trace-fleet",
    "resources": ["cpu"],
    "calibration": FAST_CALIBRATION,
    "machines": [{"name": "m1"}, {"name": "m2"}],
    "tenants": [
        {"name": "t1", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "t2", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}

#: Advisor options every service and baseline in this module shares.
ADVISOR_OPTIONS = {"delta": 0.25}


# ----------------------------------------------------------------------
# Direct library baselines (what every served answer must equal)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def scenario_problem():
    return Scenario.from_dict(SCENARIO).build()


@pytest.fixture(scope="module")
def direct_recommend(scenario_problem):
    return Advisor(**SCENARIO["advisor"]).recommend(scenario_problem)


@pytest.fixture(scope="module")
def direct_fleet():
    return FleetAdvisor(**ADVISOR_OPTIONS).recommend(FleetProblem.from_dict(FLEET))


@pytest.fixture(scope="module")
def direct_replay():
    return TraceReplayer(
        WorkloadTrace.from_dict(TRACE),
        advisor=Advisor(**ADVISOR_OPTIONS),
        policy="static",
    ).replay()


@pytest.fixture(scope="module")
def direct_fleet_replay():
    return FleetTraceReplayer(
        WorkloadTrace.from_dict(TRACE),
        FleetProblem.from_dict(FLEET_FOR_TRACE),
        advisor=FleetAdvisor(**ADVISOR_OPTIONS),
    ).replay()


# ----------------------------------------------------------------------
# The shared engine
# ----------------------------------------------------------------------
class TestAdvisorService:
    @pytest.fixture()
    def service(self):
        with AdvisorService(backend="thread", jobs=2, **ADVISOR_OPTIONS) as service:
            yield service

    def test_recommend_matches_direct_call(self, service, direct_recommend):
        report = service.recommend(SCENARIO)
        assert report.canonical_dict() == direct_recommend.canonical_dict()

    def test_repeat_requests_hit_the_shared_cache(self, service):
        first = service.recommend(SCENARIO)
        assert first.cost_stats.evaluations > 0
        repeat = service.recommend(dict(SCENARIO))  # value-equal document
        assert repeat.canonical_dict() == first.canonical_dict()
        # The repeat was answered entirely from the process-wide cache —
        # the per-request advisor is fresh, the cache pool is not.
        assert repeat.cost_stats.evaluations == 0
        assert service.cache_stats().hit_rate > 0

    def test_recommend_leaves_no_problem_alive(self):
        def live_problems():
            gc.collect()
            return sum(
                isinstance(thing, VirtualizationDesignProblem)
                for thing in gc.get_objects()
            )

        with AdvisorService(**ADVISOR_OPTIONS) as service:
            before = live_problems()
            for index in range(8):
                document = copy.deepcopy(SCENARIO)
                document["tenants"][0]["statements"] = [["q18", 2.0 + index]]
                assert service.recommend(document).cost_stats.evaluations > 0
            assert live_problems() == before

    def test_per_request_advisors_are_fresh_but_share_caches(self, service):
        first, second = service.advisor(), service.advisor()
        assert first is not second
        assert first._shared_caches is service.caches
        assert second._shared_caches is service.caches

    def test_fleet_matches_direct_call(self, service, direct_fleet):
        report = service.fleet(FLEET)
        assert report.canonical_dict() == direct_fleet.canonical_dict()

    def test_fleet_document_envelope_selects_placement(self, service, direct_fleet):
        report = service.fleet_document(
            {"fleet": FLEET, "placement": "greedy-cost"}
        )
        assert report.canonical_dict() == direct_fleet.canonical_dict()

    def test_fleet_document_local_search_budget(self, service, direct_fleet):
        report = service.fleet_document({"fleet": FLEET, "local_search": 4})
        assert report.strategy == "greedy-cost+ls"
        assert report.total_weighted_cost <= (
            direct_fleet.total_weighted_cost + 1e-9
        )

    def test_fleet_document_rejects_unknown_keys(self, service):
        with pytest.raises(ConfigurationError, match="unknown fleet option"):
            service.fleet_document({"fleet": FLEET, "placment": "greedy-cost"})

    def test_fleet_rejects_unknown_placement(self, service):
        with pytest.raises(ConfigurationError, match="unknown placement"):
            service.fleet(FLEET, placement="nope")

    def test_fleet_rejects_bad_local_search_budget(self, service):
        with pytest.raises(ConfigurationError, match="local_search"):
            service.fleet(FLEET, local_search=-1)
        with pytest.raises(ConfigurationError, match="local_search"):
            service.fleet(FLEET, local_search="many")
        with pytest.raises(ConfigurationError, match="local_search"):
            service.fleet(FLEET, local_search=True)

    def test_fleet_document_bnb_budget_implies_bnb(self, service):
        report = service.fleet_document({"fleet": FLEET, "max_nodes": 50_000})
        assert report.strategy == "bnb-fleet"
        assert report.placement_provenance["proven_optimal"] is True
        assert report.placement_provenance["budget_exhausted"] is None

    def test_fleet_bnb_budget_exhaustion_degrades_with_provenance(self, service):
        # An absurdly small node budget: the response is still a complete
        # placement (the seed incumbent), with the degradation recorded.
        report = service.fleet_document({"fleet": FLEET, "max_nodes": 1})
        assert report.strategy == "bnb-fleet"
        provenance = report.placement_provenance
        assert provenance["proven_optimal"] is False
        assert provenance["budget_exhausted"] == "nodes"
        assert set(report.placement) == {
            tenant["name"] for tenant in FLEET["tenants"]
        }

    def test_fleet_rejects_bad_bnb_budgets(self, service):
        with pytest.raises(ConfigurationError, match="max_nodes"):
            service.fleet(FLEET, max_nodes=0)
        with pytest.raises(ConfigurationError, match="max_nodes"):
            service.fleet(FLEET, max_nodes="lots")
        with pytest.raises(ConfigurationError, match="max_nodes"):
            service.fleet(FLEET, max_nodes=True)
        with pytest.raises(ConfigurationError, match="max_seconds"):
            service.fleet(FLEET, max_seconds=0)
        with pytest.raises(ConfigurationError, match="max_seconds"):
            service.fleet(FLEET, max_seconds="fast")

    def test_fleet_rejects_bnb_budgets_on_other_placements(self, service):
        with pytest.raises(ConfigurationError, match="bnb-fleet"):
            service.fleet(FLEET, placement="greedy-cost", max_nodes=10)
        with pytest.raises(ConfigurationError, match="one family"):
            service.fleet(FLEET, local_search=2, max_nodes=10)

    def test_stats_reports_the_placement_solve_memo(self, service):
        service.fleet(FLEET)
        service.fleet(dict(FLEET))  # value-equal repeat: whole-solve hits
        stats = service.stats()
        memo = stats["placement_solve_memo"]
        assert memo["entries"] > 0
        assert memo["hits"] > 0
        assert stats["cost_cache"]["placement_solve_hits"] == memo["hits"]

    def test_replay_document_bare_trace(self, service):
        report = service.replay_document(dict(TRACE))
        assert report.mode == "single-machine"
        assert len(report.periods) == TRACE["n_periods"]

    def test_replay_document_envelope(self, service, direct_fleet_replay):
        report = service.replay_document(
            {"trace": TRACE, "fleet": FLEET_FOR_TRACE, "policy": "dynamic"}
        )
        assert report.mode == "fleet"
        assert report.canonical_dict() == direct_fleet_replay.canonical_dict()

    def test_replay_document_rejects_unknown_keys(self, service):
        with pytest.raises(ConfigurationError, match="unknown replay option"):
            service.replay_document({"trace": TRACE, "fleets": FLEET_FOR_TRACE})

    def test_rejects_untyped_documents(self, service):
        with pytest.raises(ConfigurationError, match="Scenario"):
            service.recommend(42)

    def test_stats_counts_requests_and_caches(self, service):
        service.recommend(SCENARIO)
        service.fleet(FLEET)
        stats = service.stats()
        assert stats["status"] == "ok"
        assert stats["backend"] == "thread"
        assert stats["in_flight"] == 0
        assert stats["requests"]["recommend"] == 1
        assert stats["requests"]["fleet"] == 1
        assert stats["cost_cache"]["caches"] >= 1
        assert stats["cost_cache"]["hit_rate"] > 0

    def test_async_face_matches_sync(self, service, direct_recommend):
        async def drive():
            wrapped = AsyncAdvisorService(service)
            return await wrapped.recommend(SCENARIO)

        report = asyncio.run(drive())
        assert report.canonical_dict() == direct_recommend.canonical_dict()

    def test_rejects_nonpositive_concurrency(self):
        with pytest.raises(ConfigurationError, match="max_concurrency"):
            AsyncAdvisorService(max_concurrency=0)


# ----------------------------------------------------------------------
# The HTTP tier
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    service = AdvisorService(backend="thread", jobs=2, **ADVISOR_OPTIONS)
    http_server = AdvisorHTTPServer(("127.0.0.1", 0), service=service)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    yield http_server
    http_server.shutdown()
    http_server.server_close()
    thread.join(timeout=5)


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def post(server, path, document):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


def error_of(callable_):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_()
    body = json.loads(excinfo.value.read())
    return excinfo.value.code, body


def raw_post_head(server, content_length):
    """POST only a request head over a raw socket; read until the server closes.

    A raw socket sends ``Content-Length`` exactly as written and no body,
    so a server that waited for the body would never answer.
    """
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(
            f"POST /recommend HTTP/1.1\r\nHost: {host}\r\n"
            f"Content-Length: {content_length}\r\n\r\n".encode("ascii")
        )
        response = b""
        while chunk := sock.recv(4096):
            response += chunk
    head, _, body = response.partition(b"\r\n\r\n")
    return head, json.loads(body)


class TestHTTPServer:
    def test_healthz(self, server):
        import repro

        status, body = get(server, "/healthz")
        assert status == 200
        assert body == {"status": "ok", "version": repro.__version__}

    def test_recommend_round_trip(self, server, direct_recommend):
        status, body = post(server, "/recommend", SCENARIO)
        assert status == 200
        served = RecommendationReport.from_dict(body)
        assert served.canonical_dict() == direct_recommend.canonical_dict()

    def test_fleet_round_trip(self, server, direct_fleet):
        status, body = post(server, "/fleet", FLEET)
        assert status == 200
        assert FleetReport.from_dict(body).canonical_dict() == (
            direct_fleet.canonical_dict()
        )

    def test_fleet_envelope_round_trip(self, server, direct_fleet):
        status, body = post(
            server, "/fleet", {"fleet": FLEET, "placement": "greedy-cost"}
        )
        assert status == 200
        assert FleetReport.from_dict(body).canonical_dict() == (
            direct_fleet.canonical_dict()
        )

    def test_fleet_bnb_envelope_carries_provenance(self, server):
        status, body = post(
            server,
            "/fleet",
            {"fleet": FLEET, "placement": "bnb-fleet", "max_nodes": 50_000},
        )
        assert status == 200
        assert body["strategy"] == "bnb-fleet"
        assert body["placement_provenance"]["proven_optimal"] is True
        report = FleetReport.from_dict(body)
        assert "placement_provenance" not in report.canonical_dict()

    def test_fleet_unknown_placement_is_400(self, server):
        code, body = error_of(
            lambda: post(server, "/fleet", {"fleet": FLEET, "placement": "nope"})
        )
        assert code == 400
        assert "unknown placement" in body["error"]

    @pytest.mark.parametrize(
        "flags, options",
        [
            (["--local-search", "-1"], {"local_search": -1}),
            (
                ["--local-search", "2", "--bnb-max-nodes", "10"],
                {"local_search": 2, "max_nodes": 10},
            ),
            (
                ["--local-search", "2", "--bnb-max-seconds", "1"],
                {"local_search": 2, "max_seconds": 1.0},
            ),
            (
                ["--placement", "greedy-cost", "--bnb-max-nodes", "5"],
                {"placement": "greedy-cost", "max_nodes": 5},
            ),
            (["--bnb-max-nodes", "0"], {"max_nodes": 0}),
            (["--bnb-max-seconds", "-1.5"], {"max_seconds": -1.5}),
            (
                ["--placement", "round-robin", "--local-search", "3"],
                {"placement": "round-robin", "local_search": 3},
            ),
            (
                ["--placement", "bnb-fleet", "--local-search", "3"],
                {"placement": "bnb-fleet", "local_search": 3},
            ),
        ],
    )
    def test_fleet_rejects_bad_placement_requests_as_the_cli_does(
        self, server, tmp_path, capsys, flags, options
    ):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(FLEET), encoding="utf-8")
        exit_code = cli_main(["fleet", str(path), *flags])
        cli_error = capsys.readouterr().err.strip()
        code, body = error_of(
            lambda: post(server, "/fleet", {"fleet": FLEET, **options})
        )
        assert exit_code == 2 and code == 400
        assert cli_error == f"error: {body['error']}"

    def test_replay_round_trip(self, server, direct_replay):
        status, body = post(
            server, "/replay", {"trace": TRACE, "policy": "static"}
        )
        assert status == 200
        assert ReplayReport.from_dict(body).canonical_dict() == (
            direct_replay.canonical_dict()
        )

    def test_stats_after_traffic(self, server):
        post(server, "/recommend", SCENARIO)
        status, body = get(server, "/stats")
        assert status == 200
        assert body["requests"]["recommend"] >= 1
        assert body["cost_cache"]["caches"] >= 1

    def test_unknown_path_is_404(self, server):
        code, body = error_of(lambda: get(server, "/nope"))
        assert code == 404 and "error" in body

    def test_wrong_verb_is_405(self, server):
        code, body = error_of(lambda: get(server, "/recommend"))
        assert code == 405 and "error" in body
        code, body = error_of(lambda: post(server, "/healthz", {}))
        assert code == 405 and "error" in body

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/recommend", data=b"not json"
        )
        code, body = error_of(lambda: urllib.request.urlopen(request, timeout=30))
        assert code == 400 and "error" in body

    def test_invalid_document_is_400(self, server):
        code, body = error_of(
            lambda: post(server, "/recommend", {"name": "x", "bogus": 1})
        )
        assert code == 400 and "bogus" in body["error"]

    def test_nan_literal_is_400(self, server):
        # json.loads accepts the non-standard NaN literal; the statement
        # frequency check must still refuse it rather than answer.
        document = copy.deepcopy(SCENARIO)
        document["tenants"][0]["statements"] = [["q18", float("nan")]]
        assert b"NaN" in json.dumps(document).encode("utf-8")
        code, body = error_of(lambda: post(server, "/recommend", document))
        assert code == 400 and "frequency" in body["error"]

    def test_duplicate_tenant_names_are_400(self, server):
        document = copy.deepcopy(SCENARIO)
        document["tenants"][1]["name"] = document["tenants"][0]["name"]
        code, body = error_of(lambda: post(server, "/recommend", document))
        assert code == 400 and "duplicate tenant name" in body["error"]

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(server.url + "/recommend", data=b"")
        code, body = error_of(lambda: urllib.request.urlopen(request, timeout=30))
        assert code == 400 and "error" in body

    @pytest.mark.parametrize("length", ["abc", "-5", "1_0"])
    def test_invalid_content_length_is_400_and_closes(self, server, length):
        head, body = raw_post_head(server, length)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert "Content-Length" in body["error"]

    def test_oversized_body_is_413_unread_and_closes(self, server):
        head, body = raw_post_head(server, MAX_BODY_BYTES + 1)
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert str(MAX_BODY_BYTES) in body["error"]

    def test_keep_alive_round_trips_do_not_stall(self, server):
        # A response leaves as two sends (head, then body).  With Nagle's
        # algorithm on, the body waited for the client's delayed ACK of the
        # head: ~40 ms per back-to-back request on one connection.
        host, port = server.server_address[:2]
        scenario = json.dumps(SCENARIO).encode("utf-8")
        connection = http.client.HTTPConnection(host, port, timeout=30)

        def round_trip(method, path, body=None):
            started = time.perf_counter()
            connection.request(
                method, path, body=body, headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            response.read()
            assert response.status == 200
            return time.perf_counter() - started

        try:
            round_trip("POST", "/recommend", scenario)  # warm the scenario
            for method, path, body in (
                ("GET", "/healthz", None),
                ("POST", "/recommend", scenario),
            ):
                seconds = [round_trip(method, path, body) for _ in range(20)]
                assert statistics.median(seconds) < 0.020, (path, seconds)
        finally:
            connection.close()

    def test_concurrent_mixed_endpoints_match_direct_calls(
        self,
        server,
        direct_recommend,
        direct_fleet,
        direct_replay,
    ):
        """N parallel clients, mixed endpoints, two rounds.

        Every response must be bit-identical (canonical_dict) to the
        corresponding direct library call, and the second round must be
        answered with shared-cache hits.
        """
        requests = [
            ("/recommend", SCENARIO, RecommendationReport, direct_recommend),
            ("/fleet", FLEET, FleetReport, direct_fleet),
            ("/replay", {"trace": TRACE, "policy": "static"}, ReplayReport,
             direct_replay),
        ] * 2  # six clients per round, >= 4 concurrent

        def client(spec):
            path, document, report_cls, expected = spec
            status, body = post(server, path, document)
            return status, report_cls.from_dict(body), expected

        for _round in range(2):
            with ThreadPoolExecutor(max_workers=len(requests)) as pool:
                results = list(pool.map(client, requests))
            for status, served, expected in results:
                assert status == 200
                assert served.canonical_dict() == expected.canonical_dict()

        status, stats = get(server, "/stats")
        assert status == 200
        assert stats["cost_cache"]["hit_rate"] > 0
        assert stats["requests"]["recommend"] >= 4
        assert stats["requests"]["fleet"] >= 4
        assert stats["requests"]["replay"] >= 4


class _GatedService(AdvisorService):
    """An engine whose ``recommend`` blocks on a gate and records its overlap."""

    def __init__(self, **options):
        super().__init__(**options)
        self.gate = threading.Event()
        self.entered = threading.Event()
        self._count_lock = threading.Lock()
        self.running = 0
        self.peak = 0

    def recommend(self, scenario):
        with self._count_lock:
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            return super().recommend(scenario)
        finally:
            with self._count_lock:
                self.running -= 1

    def advisor(self, **options):
        # Called inside the service's request accounting, so a blocked
        # request shows in /stats as in flight.
        self.entered.set()
        if not self.gate.wait(timeout=60):
            raise TimeoutError("the gate was never opened")
        return super().advisor(**options)


class TestAdmissionBound:
    def test_one_slot_runs_one_solve_and_never_blocks_gets(self, direct_recommend):
        service = _GatedService(**ADVISOR_OPTIONS)
        server = AdvisorHTTPServer(
            ("127.0.0.1", 0), service=service, max_concurrency=1
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ThreadPoolExecutor(max_workers=3) as pool:
                futures = [
                    pool.submit(post, server, "/recommend", SCENARIO)
                    for _ in range(3)
                ]
                assert service.entered.wait(timeout=60)
                # Give the two queued requests time to reach the admission
                # bound; a broken bound lets them into recommend too.
                time.sleep(0.5)
                assert get(server, "/healthz")[0] == 200
                status, stats = get(server, "/stats")
                assert status == 200
                assert stats["in_flight"] == 1
                assert service.peak == 1
                service.gate.set()
                results = [future.result(timeout=120) for future in futures]
        finally:
            service.gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        for status, body in results:
            assert status == 200
            served = RecommendationReport.from_dict(body)
            assert served.canonical_dict() == direct_recommend.canonical_dict()
        assert service.peak == 1

    def test_zero_slots_is_rejected(self):
        # A zero-slot semaphore would block every POST forever.
        with pytest.raises(ConfigurationError):
            AdvisorHTTPServer(("127.0.0.1", 0), max_concurrency=0)


# ----------------------------------------------------------------------
# The CLI entry point (subprocess: serve, announce, answer, shut down)
# ----------------------------------------------------------------------
class TestServeSubprocess:
    def test_serve_announces_answers_and_shuts_down_cleanly(self):
        import os
        import re
        import signal
        import subprocess
        import sys

        import repro

        src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--backend", "thread", "--jobs", "2"],
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = process.stderr.readline()
            match = re.search(r"serving on (http://\S+)", line)
            assert match, f"no announcement in {line!r}"
            url = match.group(1)
            with urllib.request.urlopen(url + "/healthz", timeout=30) as response:
                assert response.status == 200
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)
            process.stderr.close()
