#!/usr/bin/env python
"""End-to-end smoke test for ``python -m repro serve``.

Boots the HTTP serving tier as a real subprocess (ephemeral port), POSTs
the 12-tenant × 4-machine fleet fixture used across the benchmarks, and
asserts the served answer is canonically identical to a direct serial
library solve.  Scrapes ``/metrics`` and checks the request counters and
latency histogram recorded the solve, drives a short constant-rate
open-loop burst through :class:`repro.loadgen.LoadRunner` and checks the
server-side counters and buckets advanced by it (and that the resulting
``LoadReport`` carries a populated SLO evaluation), then finishes by
checking ``/healthz`` and ``/stats``, timing a burst of back-to-back
warm ``/recommend`` requests on one keep-alive connection (whose median
must stay far below the ~40 ms a Nagle / delayed-ACK stall costs), and
sending SIGTERM, which must produce a clean exit.  The server runs with
its default backend.  Run from the repo root with
``PYTHONPATH=src python scripts/service_smoke.py``; exits 0 on success,
1 with a diagnostic on any failure.
"""

import http.client
import json
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.parse
import urllib.request

from repro.experiments.fleet import build_fleet_problem
from repro.fleet import FleetAdvisor, FleetProblem
from repro.fleet.report import FleetReport
from repro.loadgen import ArrivalSpec, LoadRunner, RequestTemplate, SloSpec

N_TENANTS = 12
N_MACHINES = 4
FAST_CALIBRATION = {"cpu_shares": [0.25, 0.5, 0.75, 1.0]}
READ_TIMEOUT_SECONDS = 120

#: The loadgen burst: ~2 s of constant-rate open-loop traffic.
BURST_RATE_RPS = 10.0
BURST_DURATION_SECONDS = 2.0

#: A deliberately loose SLO — the burst asserts the *plumbing* (SLIs
#: measured, objectives evaluated, scrape correlated), not performance.
BURST_SLO = SloSpec(p95_seconds=30.0, max_error_rate=0.0)

#: Back-to-back warm /recommend requests on one keep-alive connection,
#: and the ceiling on their median round trip.
KEEP_ALIVE_REQUESTS = 20
KEEP_ALIVE_MEDIAN_CEILING_SECONDS = 0.020

#: The scenario the burst POSTs to /recommend.
BURST_SCENARIO = {
    "name": "smoke-burst",
    "resources": ["cpu"],
    "calibration": FAST_CALIBRATION,
    "advisor": {"delta": 0.25},
    "tenants": [
        {"name": "dss", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "scan", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}


def fleet_document() -> dict:
    document = build_fleet_problem(
        n_tenants=N_TENANTS, n_machines=N_MACHINES
    ).to_dict()
    document["calibration"] = FAST_CALIBRATION
    return document


def get(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=READ_TIMEOUT_SECONDS) as response:
        assert response.status == 200, f"{url} -> {response.status}"
        return json.loads(response.read())


def get_text(url: str) -> str:
    with urllib.request.urlopen(url, timeout=READ_TIMEOUT_SECONDS) as response:
        assert response.status == 200, f"{url} -> {response.status}"
        return response.read().decode("utf-8")


def metric_value(text: str, sample: str) -> float:
    """The value of one exposition line, e.g. ``foo_total{a="b"}``."""
    for line in text.splitlines():
        if line.startswith(sample + " "):
            return float(line.split()[-1])
    raise AssertionError(f"no sample {sample!r} in /metrics output")


def post(url: str, document: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(document).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=READ_TIMEOUT_SECONDS) as response:
        assert response.status == 200, f"{url} -> {response.status}"
        return json.loads(response.read())


def keep_alive_round_trips(base: str, document: dict) -> list:
    """Seconds per back-to-back POST /recommend on one connection."""
    address = urllib.parse.urlsplit(base)
    connection = http.client.HTTPConnection(
        address.hostname, address.port, timeout=READ_TIMEOUT_SECONDS
    )
    body = json.dumps(document).encode("utf-8")
    seconds = []
    try:
        for _ in range(KEEP_ALIVE_REQUESTS):
            started = time.perf_counter()
            connection.request(
                "POST", "/recommend", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            response.read()
            seconds.append(time.perf_counter() - started)
            assert response.status == 200, f"/recommend -> {response.status}"
    finally:
        connection.close()
    return seconds


def main() -> int:
    document = fleet_document()
    print(f"solving {N_TENANTS} tenants x {N_MACHINES} machines directly ...")
    # Library defaults on both sides: the served advisor is built with
    # default options, so the baseline must be too.
    direct = FleetAdvisor().recommend(FleetProblem.from_dict(document))

    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        announcement = server.stderr.readline()
        match = re.search(r"serving on (http://\S+)", announcement)
        assert match, f"no announcement, got {announcement!r}"
        base = match.group(1)
        print(f"server up at {base}")

        health = get(base + "/healthz")
        assert health["status"] == "ok", health

        served = FleetReport.from_dict(post(base + "/fleet", document))
        assert served.canonical_dict() == direct.canonical_dict(), (
            "served fleet answer diverged from the direct library solve"
        )
        print(f"served answer matches library: "
              f"total_weighted_cost={served.total_weighted_cost:.6f}")

        metrics = get_text(base + "/metrics")
        served = metric_value(metrics, 'repro_requests_total{endpoint="fleet"}')
        assert served == 1, f"expected one served fleet request, got {served}"
        http_ok = metric_value(
            metrics, 'repro_http_requests_total{endpoint="/fleet",status="200"}'
        )
        assert http_ok == 1, f"expected one 200 on /fleet, got {http_ok}"
        finite_buckets = [
            line
            for line in metrics.splitlines()
            if line.startswith('repro_request_latency_seconds_bucket{endpoint="fleet"')
            and '"+Inf"' not in line
        ]
        assert any(float(line.split()[-1]) > 0 for line in finite_buckets), (
            "no finite request-latency bucket recorded the fleet solve:\n"
            + "\n".join(finite_buckets)
        )
        print("metrics scrape OK: request counters and latency histogram populated")

        print(f"loadgen burst: {BURST_RATE_RPS} rps constant for "
              f"{BURST_DURATION_SECONDS} s ...")
        schedule = ArrivalSpec(
            shape="constant",
            rate=BURST_RATE_RPS,
            duration_seconds=BURST_DURATION_SECONDS,
            seed=1,
        ).schedule()
        report = LoadRunner(
            base,
            schedule,
            [RequestTemplate("recommend", BURST_SCENARIO)],
            slo=BURST_SLO,
            workers=4,
        ).run()
        assert report.completed == schedule.n_arrivals, report.to_dict()
        assert report.errors == 0, report.to_dict()
        assert report.slo is not None and report.slo.ok, report.to_dict()
        assert report.slo.objectives, "SLO evaluation carried no objectives"
        assert report.latency["p95_seconds"] is not None, report.latency

        # The server-side counters and buckets must have advanced by the
        # burst: that is the black-box/white-box join the report carries.
        delta = report.server["delta"]
        assert delta["requests_total"].get("recommend") == report.completed, delta
        window = delta["request_latency"]["recommend"]
        assert window["count"] == report.completed, window
        assert window["p95_seconds"] is not None, window
        metrics = get_text(base + "/metrics")
        recommend_count = metric_value(
            metrics, 'repro_request_latency_seconds_count{endpoint="recommend"}'
        )
        assert recommend_count == report.completed, (
            f"expected {report.completed} recommend latency observations, "
            f"got {recommend_count}"
        )
        print(f"loadgen burst OK: {report.completed} requests, "
              f"client p95={report.latency['p95_seconds']:.4f}s, "
              f"server p95={window['p95_seconds']:.4f}s")

        stats = get(base + "/stats")
        assert stats["schema_version"] == 3, stats
        assert stats["requests"]["fleet"] == 1, stats
        assert stats["requests"]["recommend"] == report.completed, stats
        assert stats["in_flight"] == 0, stats
        assert stats["telemetry"]["tracing_enabled"] is False, stats
        summary = stats["latency_summary"]
        assert summary["recommend"]["count"] == report.completed, summary
        assert summary["recommend"]["p95_seconds"] is not None, summary

        # The burst above warmed the scenario, so these are all cache hits.
        seconds = keep_alive_round_trips(base, BURST_SCENARIO)
        median = statistics.median(seconds)
        assert median < KEEP_ALIVE_MEDIAN_CEILING_SECONDS, (
            f"keep-alive /recommend median {1000 * median:.1f} ms "
            f"(ceiling {1000 * KEEP_ALIVE_MEDIAN_CEILING_SECONDS:.0f} ms): "
            f"{[round(1000 * value, 2) for value in seconds]}"
        )
        print(f"keep-alive burst OK: {KEEP_ALIVE_REQUESTS} back-to-back "
              f"requests, median {1000 * median:.2f} ms")

        server.send_signal(signal.SIGTERM)
        code = server.wait(timeout=30)
        assert code == 0, f"server exited {code} on SIGTERM"
        print("clean shutdown; service smoke OK")
        return 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
