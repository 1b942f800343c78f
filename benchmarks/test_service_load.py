"""Serving-tier load gate — a fixed-rate open-loop run must hold its SLO.

The other service checks exercise single requests; this benchmark holds
the serving tier to an *operational* number: an ephemeral-port server
driven by :class:`repro.loadgen.LoadRunner` at a fixed constant rate for
a few seconds must complete every scheduled request with zero errors and
sustain a minimum successful throughput — the same floor a capacity plan
derived from ``python -m repro loadgen --sweep`` would assume as its
bottom step.  The document is the small warm-path scenario (repeats hit
the pooled builder and cost cache), so what is measured is the HTTP +
dispatch + cache-lookup path, not solver throughput.

Wired into the CI benchmark-smoke job with a wall-clock ceiling like the
other benchmarks; the run itself takes ~``DURATION_SECONDS`` by
construction (open-loop dispatch), so the ceiling mostly guards server
boot plus the per-request tail.
"""

import threading

from conftest import run_once

from repro.loadgen import ArrivalSpec, LoadRunner, RequestTemplate, SloSpec
from repro.service import AdvisorHTTPServer, AdvisorService

#: Offered load: modest on purpose — this is a smoke floor, not a sweep.
RATE_RPS = 10.0
DURATION_SECONDS = 3.0

#: The SLO the run must hold: no errors, and at least half the offered
#: rate achieved as successful throughput (open-loop: a server that
#: stalls shows up here as a throughput shortfall, not reduced load).
MIN_THROUGHPUT_RPS = RATE_RPS / 2.0

SCENARIO = {
    "name": "service-load",
    "resources": ["cpu"],
    "calibration": {"cpu_shares": [0.25, 0.5, 0.75, 1.0]},
    "advisor": {"delta": 0.25},
    "tenants": [
        {"name": "dss", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "scan", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}


def _run_fixed_rate_load():
    service = AdvisorService(backend="thread", jobs=2, delta=0.25)
    server = AdvisorHTTPServer(("127.0.0.1", 0), service=service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        schedule = ArrivalSpec(
            shape="constant",
            rate=RATE_RPS,
            duration_seconds=DURATION_SECONDS,
            seed=1,
        ).schedule()
        return LoadRunner(
            server.url,
            schedule,
            [RequestTemplate("recommend", SCENARIO)],
            slo=SloSpec(
                max_error_rate=0.0, min_throughput_rps=MIN_THROUGHPUT_RPS
            ),
            workers=4,
        ).run()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def test_service_load_fixed_rate_holds_slo(benchmark):
    report = run_once(benchmark, _run_fixed_rate_load)

    print(
        f"\nService load — {RATE_RPS:.0f} rps constant for "
        f"{DURATION_SECONDS:.0f}s, open loop:\n"
        f"  completed {report.completed}/{report.scheduled_requests}, "
        f"errors {report.errors}\n"
        f"  achieved {report.achieved_throughput_rps:.1f} rps, "
        f"client p95 "
        f"{(report.latency['p95_seconds'] or float('nan')) * 1000:.1f} ms"
    )

    assert report.completed == report.scheduled_requests
    assert report.errors == 0, report.statuses
    assert report.achieved_throughput_rps >= MIN_THROUGHPUT_RPS
    assert report.slo is not None and report.slo.ok, report.slo.to_dict()
    # The white-box join rode along: the server saw exactly this traffic.
    assert (
        report.server["delta"]["requests_total"].get("recommend")
        == report.completed
    )
