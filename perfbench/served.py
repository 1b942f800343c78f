"""``serve-warm``: an open loop of warm requests to the served advisor.

The server runs in its own process (``server.py`` -> ``repro.service.serve()``
with the service defaults: asyncio backend, default delta), so client and
server do not share an interpreter lock.  The client is this process: two
HTTP/1.1 keep-alive connections from the standard library's
``http.client``, one per thread, deliberately independent of
``repro.loadgen`` so that a change to the load generator cannot move the
benchmark, and with no socket tuning of its own (a server-side stall is
the server's to fix).

Requests are drawn from a seeded pool (``workloads.serve_pool``): 9 of
every 10 are ``POST /recommend`` over 32 scenarios and 1 is ``POST
/fleet`` over 2 fleets of 12 tenants x 4 machines.  Every pool entry is
requested once while setting up, so timed requests are answered from the
service's scenario memo, cost cache and solve-memo.  The timed phase is
an open loop at ``OFFERED_RPS`` (each request timed from its scheduled
send, so a stall on one request delays the ones queued behind it),
followed by a closed loop on the same two connections that measures
``capacity_rps``.  Every answer is checked, and must equal by
``canonical_dict()`` the serial in-process library answer, which is
computed before set-up and kept out of every timing.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import checks
import layers
import measure
import tracing
import workloads

HERE = Path(__file__).resolve().parent

#: Offered load of the open loop, far below the parent commit's keep-alive
#: capacity (about 44 req/s over two connections), so that each connection
#: idles ~250 ms between requests.  That is longer than Linux's minimum
#: TCP retransmission timeout (200 ms), after which the client's kernel
#: acknowledges at once again; with shorter idle gaps (25 req/s gives
#: 80 ms) whether a connection falls into the server's Nagle /
#: delayed-ACK stall (~44 ms per response) depended on its history, and
#: runs measured either ~3 ms or ~45 ms.  The stall itself is measured
#: steadily by the closed loop (``capacity_rps``).
OFFERED_RPS = 8.0
#: Share of ``--seconds`` spent in the open loop; the rest is the closed loop.
OPEN_SHARE = 0.8
#: Share of ``--seconds`` a traced run spends on its untraced reference phase.
UNTRACED_SHARE = 0.4
CONNECTIONS = 2
SETUP_REPEATS = 3
#: ``latency_tail_ms`` percentile: p90 keeps >= 10 samples beyond it at the
#: ~170 timed ``/recommend`` requests of a 30 s run (p99 would need 1000).
TAIL_PERCENTILE = 90.0
FLEET_EVERY = 10
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


class SetupError(RuntimeError):
    """The server did not come up, or refused a warm-up request."""


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``server.py`` process; its stderr goes to a log file we poll."""

    def __init__(self, src: Path, out_dir: Path, tag: str, trace: bool) -> None:
        self.report_path = out_dir / f"server-{tag}.json"
        self.log_path = out_dir / f"server-{tag}.log"
        if self.report_path.exists():
            self.report_path.unlink()
        self._log = self.log_path.open("w", encoding="utf-8")
        command = [
            sys.executable,
            str(HERE / "server.py"),
            "--src",
            str(src),
            "--report",
            str(self.report_path),
        ]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=self._log
        )
        self._snapshots = 0
        try:
            host, port = self._wait_for(r"serving on http://([0-9.]+):(\d+)")
        except BaseException:
            self.stop()
            raise
        self.host, self.port = host, int(port)

    def _wait_for(self, pattern: str) -> Tuple[str, ...]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while True:
            text = self.log_path.read_text(encoding="utf-8")
            match = re.search(pattern, text)
            if match:
                return match.groups()
            if self.process.poll() is not None or time.monotonic() > deadline:
                raise SetupError(f"server did not report {pattern!r}: {text[-2000:]}")
            time.sleep(0.005)

    def snapshot(self) -> None:
        """Have the traced server snapshot its span totals; wait for the ack."""
        self._snapshots += 1
        os.kill(self.process.pid, signal.SIGUSR1)
        self._wait_for(rf"snapshot {self._snapshots}\n")

    def stop(self) -> Dict[str, Any]:
        """SIGTERM (the server exits cleanly), wait, and read its report."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=30)
        self._log.close()
        if self.report_path.exists():
            return json.loads(self.report_path.read_text(encoding="utf-8"))
        return {}


class Connection:
    """One keep-alive HTTP/1.1 connection (reconnects after a failure)."""

    def __init__(self, host: str, port: int) -> None:
        self.http = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)

    def request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            self.http.request(method, path, body=body, headers=headers)
            response = self.http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as error:
            self.http.close()
            return 0, str(error).encode("utf-8")

    def close(self) -> None:
        self.http.close()


@dataclass(frozen=True)
class Entry:
    kind: str  # "recommend" or "fleet"
    index: int
    path: str
    body: bytes


@dataclass
class Sample:
    entry: Entry
    due: float
    sent: float
    done: float
    status: int
    body: bytes


def _in_parallel(work: Callable[[int], None]) -> None:
    """Run ``work(0)`` here and ``work(1)`` on one more thread."""
    helper = threading.Thread(target=work, args=(1,), name="perfbench-client")
    helper.start()
    try:
        work(0)
    finally:
        helper.join()


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def request_mix(seed: int, scenarios: int, fleets: int) -> Iterator[Tuple[str, int]]:
    """Endless seeded mix: 1 fleet in every block of 10, pool entries cycled evenly."""
    rng = random.Random(f"serve-warm-mix:{seed}")
    cycles: Dict[str, List[int]] = {"recommend": [], "fleet": []}
    sizes = {"recommend": scenarios, "fleet": fleets}
    while True:
        block = ["recommend"] * (FLEET_EVERY - 1) + ["fleet"]
        rng.shuffle(block)
        for kind in block:
            if not cycles[kind]:
                cycles[kind] = rng.sample(range(sizes[kind]), sizes[kind])
            yield kind, cycles[kind].pop()


def _warm(connections: Sequence[Connection], entries: Sequence[Entry]) -> None:
    failures: List[str] = []

    def work(slot: int) -> None:
        for entry in entries[slot :: len(connections)]:
            status, body = connections[slot].request("POST", entry.path, entry.body)
            if status != 200:
                failures.append(f"{entry.kind} {entry.index}: HTTP {status} {body[:200]!r}")

    _in_parallel(work)
    if failures:
        raise SetupError("warm-up failed: " + "; ".join(failures[:3]))


def _open_loop(
    connections: Sequence[Connection], plan: Sequence[Entry], rate: float
) -> List[Sample]:
    """Send ``plan[i]`` at ``start + i / rate`` on whichever connection is free."""
    samples: List[Optional[Sample]] = [None] * len(plan)
    claim = itertools.count()
    start = time.perf_counter() + 0.05

    def work(slot: int) -> None:
        connection = connections[slot]
        while True:
            index = next(claim)
            if index >= len(plan):
                return
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            entry = plan[index]
            sent = time.perf_counter()
            status, body = connection.request("POST", entry.path, entry.body)
            samples[index] = Sample(entry, due, sent, time.perf_counter(), status, body)

    _in_parallel(work)
    return [sample for sample in samples if sample is not None]


def _closed_loop(
    connections: Sequence[Connection], mix: Iterator[Entry], seconds: float
) -> Tuple[List[Sample], float]:
    """Back-to-back requests on every connection; returns (samples, completions/s)."""
    samples: List[Sample] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def work(slot: int) -> None:
        connection = connections[slot]
        while time.perf_counter() < deadline:
            with lock:
                entry = next(mix)
            sent = time.perf_counter()
            status, body = connection.request("POST", entry.path, entry.body)
            sample = Sample(entry, sent, sent, time.perf_counter(), status, body)
            with lock:
                samples.append(sample)

    _in_parallel(work)
    elapsed = max(sample.done for sample in samples) - start if samples else seconds
    return samples, len(samples) / elapsed


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checker:
    """Checks served answers against the serial in-process library answers."""

    def __init__(self, scenarios: List[Dict[str, Any]], fleets: List[Dict[str, Any]]) -> None:
        from repro.api import Advisor, Scenario
        from repro.fleet import FleetAdvisor, FleetProblem

        self.documents = {"recommend": scenarios, "fleet": fleets}
        library_fleets = FleetAdvisor()
        self.references = {
            "recommend": [
                Advisor(**Scenario.from_dict(document).advisor)
                .recommend(Scenario.from_dict(document).build())
                .canonical_dict()
                for document in scenarios
            ],
            "fleet": [
                library_fleets.recommend(FleetProblem.from_dict(document)).canonical_dict()
                for document in fleets
            ],
        }

    def problems(self, sample: Sample) -> Tuple[List[str], Optional[Dict[str, Any]]]:
        from repro.api.report import RecommendationReport
        from repro.fleet.report import FleetReport

        if sample.status != 200:
            return [f"HTTP {sample.status}: {sample.body[:200]!r}"], None
        try:
            answer = checks.parse_strict(sample.body)
        except ValueError as error:
            return [f"invalid JSON: {error}"], None
        entry = sample.entry
        document = self.documents[entry.kind][entry.index]
        try:
            if entry.kind == "recommend":
                problems = checks.scenario_answer_problems(answer, document)
                canonical = RecommendationReport.from_dict(answer).canonical_dict()
            else:
                problems = checks.fleet_answer_problems(answer, document)
                canonical = FleetReport.from_dict(answer).canonical_dict()
        except (KeyError, TypeError, ValueError) as error:
            return [f"malformed answer: {type(error).__name__}: {error}"], None
        problems += checks.canonical_mismatch(canonical, self.references[entry.kind][entry.index])
        return problems, answer


@dataclass
class Checked:
    failures: List[str]
    answers: List[Optional[Dict[str, Any]]]

    @property
    def failed(self) -> int:
        return len(self.failures)


def _check_all(checker: Checker, samples: Sequence[Sample]) -> Checked:
    failures: List[str] = []
    answers: List[Optional[Dict[str, Any]]] = []
    for sample in samples:
        problems, answer = checker.problems(sample)
        if problems:
            failures.append(f"{sample.entry.kind} {sample.entry.index}: {'; '.join(problems[:3])}")
            answer = None
        answers.append(answer)
    return Checked(failures, answers)


def _latencies_ms(samples: Sequence[Sample], kind: str, checked: Checked) -> List[float]:
    return [
        1000.0 * (sample.done - sample.due)
        for sample, answer in zip(samples, checked.answers)
        if sample.entry.kind == kind and answer is not None
    ]


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class Harness:
    """Owns every server process and connection of one run."""

    def __init__(self, seed: int, src: Path, out_dir: Path) -> None:
        self.seed = seed
        self.src = src
        self.out_dir = out_dir
        scenarios, fleets = workloads.serve_pool(seed)
        self.entries = [
            Entry("recommend", index, "/recommend", json.dumps(document).encode("utf-8"))
            for index, document in enumerate(scenarios)
        ] + [
            Entry("fleet", index, "/fleet", json.dumps(document).encode("utf-8"))
            for index, document in enumerate(fleets)
        ]
        by_kind = {(entry.kind, entry.index): entry for entry in self.entries}
        self.mix = (
            by_kind[key] for key in request_mix(seed, len(scenarios), len(fleets))
        )
        self.checker = Checker(scenarios, fleets)
        self.servers: List[Server] = []
        self.connections: List[Connection] = []

    def set_up(self, tag: str, trace: bool) -> Tuple[float, Server]:
        """Boot a server and warm every pool entry; returns (seconds, server)."""
        self.close_connections()
        started = time.perf_counter()
        server = Server(self.src, self.out_dir, f"{self.seed}-{tag}", trace)
        self.servers.append(server)
        self.connections = [Connection(server.host, server.port) for _ in range(CONNECTIONS)]
        _warm(self.connections, self.entries)
        return time.perf_counter() - started, server

    def plan(self, seconds: float) -> List[Entry]:
        return [next(self.mix) for _ in range(max(1, round(OFFERED_RPS * seconds)))]

    def close_connections(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []

    def close(self) -> None:
        self.close_connections()
        for server in self.servers:
            server.stop()


def run(seed: int, seconds: float, trace: bool, out_dir: Path, src: Path) -> Dict[str, Any]:
    harness = Harness(seed, src, out_dir)
    try:
        if trace:
            return _traced(harness, seconds)
        return _untraced(harness, seconds)
    finally:
        harness.close()


def _untraced(harness: Harness, seconds: float) -> Dict[str, Any]:
    setups = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            harness.close_connections()
            server.stop()
        elapsed, server = harness.set_up(f"setup{repeat}", trace=False)
        setups.append(elapsed)

    open_samples = _open_loop(harness.connections, harness.plan(seconds * OPEN_SHARE), OFFERED_RPS)
    closed_samples, capacity = _closed_loop(
        harness.connections, harness.mix, seconds * (1.0 - OPEN_SHARE)
    )
    harness.close_connections()
    report = server.stop()

    open_checked = _check_all(harness.checker, open_samples)
    closed_checked = _check_all(harness.checker, closed_samples)
    recommend_ms = _latencies_ms(open_samples, "recommend", open_checked)
    fleet_ms = _latencies_ms(open_samples, "fleet", open_checked)
    objectives = [
        checks.weighted_cost(answer)
        for sample, answer in zip(open_samples, open_checked.answers)
        if sample.entry.kind == "recommend" and answer is not None
    ]
    completed = [sample for sample, answer in zip(open_samples, open_checked.answers) if answer]
    open_elapsed = (
        max(sample.done for sample in open_samples) - min(sample.due for sample in open_samples)
        if open_samples
        else seconds
    )
    attempted = len(open_samples) + len(closed_samples)
    return {
        "attempted": attempted,
        "failed": open_checked.failed + closed_checked.failed,
        "failures": open_checked.failures + closed_checked.failures,
        "ops": len(completed),
        "metrics": {
            "latency_p50_ms": measure.median(recommend_ms),
            "latency_tail_ms": measure.percentile(recommend_ms, TAIL_PERCENTILE),
            "fleet_latency_p50_ms": measure.median(fleet_ms),
            "capacity_rps": capacity,
            "throughput_per_s": len(completed) / open_elapsed,
            "objective": measure.mean(objectives),
            "peak_rss_mb": report.get("peak_rss_mb", 0.0),
            "setup_s": measure.median(setups),
        },
        "notes": {
            "offered_rps": OFFERED_RPS,
            "tail_percentile": TAIL_PERCENTILE,
            "recommend_samples": len(recommend_ms),
            "recommend_p99_ms": measure.percentile(recommend_ms, 99.0),
            "fleet_samples": len(fleet_ms),
            "closed_loop_requests": len(closed_samples),
            "send_lag_p99_ms": measure.percentile(
                [1000.0 * (sample.sent - sample.due) for sample in open_samples], 99.0
            ),
            "setups_s": setups,
        },
    }


def _cost_counters(checked: Checked) -> Dict[str, float]:
    """Sum the ``cost_stats`` (CostCallStats) the served answers carry."""
    counters: Dict[str, float] = {}
    for answer in checked.answers:
        if answer is None:
            continue
        for key in ("evaluations", "cache_hits", "cache_misses", "optimizer_calls", "plan_cache_hits"):
            counters[key] = counters.get(key, 0) + answer["cost_stats"].get(key, 0)
    return counters


def _traced(harness: Harness, seconds: float) -> Dict[str, Any]:
    # Untraced reference phase: the same load against an unwrapped server.
    _, plain = harness.set_up("untraced", trace=False)
    plain_samples = _open_loop(
        harness.connections, harness.plan(seconds * UNTRACED_SHARE), OFFERED_RPS
    )
    harness.close_connections()
    plain.stop()

    _, server = harness.set_up("traced", trace=True)
    stats_before = json.loads(harness.connections[0].request("GET", "/stats")[1])
    server.snapshot()
    samples = _open_loop(
        harness.connections, harness.plan(seconds * (1.0 - UNTRACED_SHARE)), OFFERED_RPS
    )
    server.snapshot()
    stats_after = json.loads(harness.connections[0].request("GET", "/stats")[1])
    harness.close_connections()
    report = server.stop()

    plain_checked = _check_all(harness.checker, plain_samples)
    checked = _check_all(harness.checker, samples)
    first, second = report["snapshots"][:2]
    totals = tracing.delta(second["totals"], first["totals"])
    memo_before = stats_before["placement_solve_memo"]
    memo_after = stats_after["placement_solve_memo"]
    counters = _cost_counters(checked)
    counters.update(
        memo_hits=memo_after["hits"] - memo_before["hits"],
        memo_misses=memo_after["misses"] - memo_before["misses"],
        probes=second["probes"] - first["probes"],
    )
    async_calls = totals.get("async_api", [0, 0.0])[0]
    async_mean_ms = 1000.0 * totals["async_api"][1] / async_calls if async_calls else 0.0
    final = report["totals"]
    traced_ms = _latencies_ms(samples, "recommend", checked)
    plain_ms = _latencies_ms(plain_samples, "recommend", plain_checked)
    attempted = len(plain_samples) + len(samples)
    failed = plain_checked.failed + checked.failed
    client = {
        "http_overhead_ms": measure.mean([1000.0 * (s.done - s.sent) for s in samples])
        - async_mean_ms,
        "requests_per_connection": final.get("http.request", [0])[0]
        / max(final.get("http.connection", [0])[0], 1),
        "send_lag_p99_ms": measure.percentile(
            [1000.0 * (sample.sent - sample.due) for sample in samples], 99.0
        ),
        "overhead_ratio": measure.median(traced_ms) / measure.median(plain_ms)
        if plain_ms
        else 0.0,
        "error_rate": failed / attempted if attempted else 0.0,
    }
    ops = len(samples)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": plain_checked.failures + checked.failures,
        "ops": ops,
        "metrics": layers.layer_metrics(
            totals, ops, counters, setup_totals=first["totals"], client=client
        ),
        "table": layers.self_time_table(totals, ops),
        "mean_traced_ms": measure.mean([1000.0 * (s.done - s.due) for s in samples]),
    }
