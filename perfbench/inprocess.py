"""``fleet-cold`` and ``bnb-exact``: a closed loop of in-process fleet solves.

One caller solves one fleet document at a time through the program's
public API (``FleetProblem.from_dict`` + ``FleetAdvisor.recommend``) and
starts the next as soon as the answer is back.  An operation is one such
solve; every answer is checked once the timed loop is over.

``fleet-cold`` runs ``greedy-cost+ls`` on ``FleetAdvisor`` defaults
(serial backend, delta 0.05) over 12 x 4 fleets whose tenant specs never
repeat, alternating CPU-only and CPU+memory control.  ``bnb-exact`` runs
``bnb-fleet`` (default 200k-node budget) on one ``FleetAdvisor`` at the
delta of the repository's exact-placement benchmark (0.25, the setting at
which the canonical fleet's optimum is proven): first the canonical
``build_fleet_problem(12, 4)`` fleet on the coarse calibration grid, then
distinct seeded 8 x 4 fleets on the same grid.  (Seeded 10 x 4 fleets
explore from 5k to 90k nodes each, so a run's median over the ~20 it
completes moved by ~20% from seed to seed; the ~170 8 x 4 fleets of a
run hold it within a few percent.)

Every time these workloads report (set-ups and solves) is scaled to a
reference host speed by ``measure.HostSpeed``: a fixed benchmark-only
probe runs between operations, and each operation's time is divided by
how much slower than the reference the probes around it ran.  Unscaled,
the same code read 200 to 300 ms per cold solve from one run to the next
as the shared host's speed drifted; scaled, the middle half of ten runs
agree within ~7%.  The unscaled median is printed as a note.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

import checks
import layers
import measure
import tracing
import workloads

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The fixed tail percentile per workload: the highest one that keeps at
#: least 10 samples beyond it at the operation counts a run reaches here
#: (~100 fleet-cold and ~170 bnb-exact solves in 30 s).
TAIL_PERCENTILE = {"fleet-cold": 85.0, "bnb-exact": 90.0}

#: ``objective`` averages the answers to this many first fleets of the
#: seeded sequence, so it does not depend on how many fleets a run gets
#: through: the same seed and the same answers give the same objective.
OBJECTIVE_FLEETS = {"fleet-cold": 80, "bnb-exact": 140}


@dataclass
class Spec:
    """How one in-process workload builds its advisor and its fleets."""

    placement: str
    advisor_options: Dict[str, Any]
    documents: Callable[[int], Tuple[Dict[str, Any], Iterator[Dict[str, Any]]]]


def _cold_documents(seed: int) -> Tuple[Dict[str, Any], Iterator[Dict[str, Any]]]:
    stream = workloads.FleetStream(seed, "fleet-cold", workloads.COLD_FLEET_SHAPE)
    warm = workloads.setup_fleet("fleet-cold")
    stream.claim(warm)

    def fleets() -> Iterator[Dict[str, Any]]:
        while True:
            yield stream.next()

    return warm, fleets()


def _exact_documents(seed: int) -> Tuple[Dict[str, Any], Iterator[Dict[str, Any]]]:
    from repro.experiments.fleet import build_fleet_problem

    canonical = build_fleet_problem(12, 4).to_dict()
    canonical["calibration"] = workloads.COARSE_CALIBRATION
    stream = workloads.FleetStream(
        seed,
        "bnb-exact",
        workloads.EXACT_FLEET_SHAPE,
        calibration=workloads.COARSE_CALIBRATION,
        alternate_resources=False,
    )
    warm = workloads.setup_fleet("bnb-exact", workloads.COARSE_CALIBRATION)
    stream.claim(canonical)
    stream.claim(warm)

    def fleets() -> Iterator[Dict[str, Any]]:
        yield canonical
        while True:
            yield stream.next()

    return warm, fleets()


SPECS = {
    "fleet-cold": Spec("greedy-cost+ls", {}, _cold_documents),
    "bnb-exact": Spec("bnb-fleet", {"delta": 0.25}, _exact_documents),
}


@dataclass
class Window:
    """What the traced operations of one run accumulated."""

    totals: Dict[str, List[float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    ops: int = 0

    def add(self, totals: Dict[str, List[float]], counters: Dict[str, float]) -> None:
        self.ops += 1
        for name, entry in totals.items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0, 0, 0])
            for index, value in enumerate(entry):
                mine[index] += value
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


def _counters(report: Any, memo_before: Dict[str, Any], memo_after: Dict[str, Any], probes: float) -> Dict[str, float]:
    """The program's own counters for one solve."""
    stats = report.cost_stats
    misses = memo_after["misses"] - memo_before["misses"]
    counters = {
        "evaluations": stats.evaluations,
        "cache_hits": stats.cache_hits,
        "cache_misses": stats.cache_misses,
        "optimizer_calls": stats.optimizer_calls,
        "plan_cache_hits": stats.plan_cache_hits,
        "memo_hits": memo_after["hits"] - memo_before["hits"],
        "memo_misses": misses,
        "probes": probes,
    }
    provenance = report.placement_provenance or {}
    if provenance.get("strategy") == "bnb-fleet":
        counters.update(
            bnb_ops=1,
            bnb_nodes=provenance["nodes_explored"],
            bnb_proven=1 if provenance["proven_optimal"] else 0,
            bnb_misses=misses,
        )
    return counters


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Any) -> Dict[str, Any]:
    from repro.fleet import FleetAdvisor, FleetProblem
    from repro.telemetry.instruments import PLACEMENT_PROBES

    spec = SPECS[workload]
    warm, fleets = spec.documents(seed)
    recorder = tracing.SpanRecorder() if trace else None

    def set_up() -> Any:
        advisor = FleetAdvisor(**spec.advisor_options)
        advisor.recommend(FleetProblem.from_dict(warm), placement=spec.placement)
        return advisor

    setups: List[float] = []
    advisor = None
    setup_totals: Dict[str, List[float]] = {}
    setup_host = measure.HostSpeed()
    setup_host.probe()
    for index in range(1 if trace else SETUP_REPEATS):
        advisor = None  # the previous set-up's advisor is not kept alive
        if recorder is not None:
            layers.install(recorder)
        started = time.perf_counter()
        advisor = set_up()
        setups.append(time.perf_counter() - started)
        setup_host.probe()
    setups = [setup_host.scale(index, seconds) for index, seconds in enumerate(setups)]
    if recorder is not None:
        setup_totals = recorder.snapshot()
        recorder.uninstall()

    failures: List[str] = []
    # (document, report, index, seconds, traced?) per completed solve;
    # answers are checked after the timed loop so checking never competes
    # with a solve.
    solved: List[Tuple[Dict[str, Any], Any, int, float, bool]] = []
    window = Window()
    attempted = 0
    host = measure.HostSpeed()
    host.probe()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        document = next(fleets)
        # Traced and untraced operations alternate in the pattern TUUT, so
        # both halves see CPU-only and CPU+memory fleets alike.
        traced = recorder is not None and attempted % 4 in (0, 3)
        if traced:
            layers.install(recorder)
            before = recorder.snapshot()
        memo_before = advisor.solve_memo.stats()
        probes_before = PLACEMENT_PROBES.value
        token = tracing.OP_ID.set(attempted)
        attempted += 1
        op_started = time.perf_counter()
        try:
            report = advisor.recommend(
                FleetProblem.from_dict(document), placement=spec.placement
            )
        except Exception as error:  # noqa: BLE001 - a failed solve is counted, not fatal
            failures.append(f"{document['name']}: {type(error).__name__}: {error}")
            report = None
        elapsed = time.perf_counter() - op_started
        tracing.OP_ID.reset(token)
        host.probe()
        if traced:
            op_totals = tracing.delta(recorder.snapshot(), before)
            recorder.uninstall()
            if report is not None:
                window.add(
                    op_totals,
                    _counters(
                        report,
                        memo_before,
                        advisor.solve_memo.stats(),
                        PLACEMENT_PROBES.value - probes_before,
                    ),
                )
        if report is not None:
            solved.append((document, report, attempted - 1, elapsed, traced))

    latencies: List[float] = []
    unscaled: List[float] = []
    traced_latencies: List[float] = []
    untraced_latencies: List[float] = []
    objectives: List[float] = []
    for document, report, index, wall, traced in solved:
        problems = checks.fleet_answer_problems(report.to_dict(), document)
        if problems:
            failures.append(f"{document['name']}: {'; '.join(problems[:3])}")
            continue
        elapsed = host.scale(index, wall)
        unscaled.append(wall)
        latencies.append(elapsed)
        objectives.append(report.total_weighted_cost)
        (traced_latencies if traced else untraced_latencies).append(elapsed)

    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "ops": len(latencies),
    }
    if recorder is None:
        # Solves per second of (scaled) solve time: the probes between
        # solves and the benchmark's own bookkeeping are not the program's.
        ops_per_s = len(latencies) / sum(latencies) if latencies else 0.0
        p50 = 1000.0 * measure.median(latencies)
        result["metrics"] = {
            "latency_p50_ms": p50,
            "latency_tail_ms": 1000.0 * measure.percentile(latencies, TAIL_PERCENTILE[workload]),
            "fleet_latency_p50_ms": p50,
            "capacity_rps": ops_per_s,
            "throughput_per_s": ops_per_s,
            "objective": measure.mean(objectives[: OBJECTIVE_FLEETS[workload]]),
            "peak_rss_mb": measure.peak_rss_mb(),
            "setup_s": measure.median(setups),
        }
        result["notes"] = {
            "tail_percentile": TAIL_PERCENTILE[workload],
            "tail_samples": measure.tail_samples(len(latencies), TAIL_PERCENTILE[workload]),
            "objective_fleets": min(len(objectives), OBJECTIVE_FLEETS[workload]),
            "setups_s": setups,
            "unscaled_latency_p50_ms": 1000.0 * measure.median(unscaled),
            "host_speed": measure.median([host.factor(i) for i in range(attempted)]),
        }
        return result

    untraced_p50 = measure.median(untraced_latencies)
    client = {
        "overhead_ratio": measure.median(traced_latencies) / untraced_p50 if untraced_p50 else 0.0,
        "error_rate": len(failures) / attempted if attempted else 0.0,
    }
    result["metrics"] = layers.layer_metrics(
        window.totals, window.ops, window.counters, setup_totals=setup_totals, client=client
    )
    result["ops"] = window.ops
    result["table"] = layers.self_time_table(window.totals, window.ops)
    result["mean_traced_ms"] = 1000.0 * measure.mean(traced_latencies)
    recorder.write(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    return result
