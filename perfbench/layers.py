"""Which public functions the traced run wraps, and the per-layer metrics.

:func:`install` wraps the functions :func:`_targets` lists, under one
span name per layer of the program; :func:`layer_metrics` turns a
window of span totals plus the program's own public counters
(``CostCallStats``, ``placement_provenance``, ``SolveMemo.stats()``,
``AdvisorService.stats()``) into the ``per_layer`` metrics of
``BENCHMARK.json``.  Every ``*_ms`` self-time metric is milliseconds per
operation (one fleet solve, or one served request), so one workload's
self times add up to its mean operation latency and a moved end-to-end
number can be traced to the layer that moved it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracing import SpanRecorder


def _targets() -> List[Tuple[str, Any, str, Dict[str, Any]]]:
    """(span name, owner, attribute, wrap options) for every wrapped callable."""
    from repro.api import advisor, cache, report, scenario
    from repro.calibration import calibrator
    from repro.core import cost_estimator, enumerator
    from repro.dbms import interface
    from repro.fleet import advisor as fleet_advisor
    from repro.fleet import bnb, problem, strategies
    from repro.fleet import report as fleet_report
    from repro import api

    whatif = cost_estimator.WhatIfCostEstimator

    def is_whatif(args: tuple) -> bool:
        return isinstance(args[0], whatif)

    return [
        ("report.to_dict", report.RecommendationReport, "to_dict", {}),
        ("report.to_dict", fleet_report.FleetReport, "to_dict", {}),
        ("document.from_dict", scenario.Scenario, "from_dict", {}),
        ("document.from_dict", problem.FleetProblem, "from_dict", {}),
        ("fleet.recommend", fleet_advisor.FleetAdvisor, "recommend", {}),
        ("fleet.solve_machine", fleet_advisor.FleetAdvisor, "solve_machine", {}),
        ("placement.place", strategies.GreedyCostPlacement, "place", {}),
        ("placement.place", strategies.LocalSearchPlacement, "place", {}),
        ("placement.place", strategies.RoundRobinPlacement, "place", {}),
        ("placement.place", strategies.FirstFitPlacement, "place", {}),
        ("placement.place", strategies.ExhaustiveFleetPlacement, "place", {}),
        ("bnb.place", bnb.BranchAndBoundPlacement, "place", {}),
        ("advisor.recommend", advisor.Advisor, "recommend", {}),
        ("enumerator", enumerator.GreedyConfigurationEnumerator, "enumerate", {}),
        ("enumerator", enumerator.DynamicProgrammingSearch, "search", {}),
        ("cost_cache", cache.CachedCostFunction, "cost", {}),
        ("cost_cache", cache.CachedCostFunction, "cost_many", {}),
        ("whatif", cost_estimator.CostFunction, "cost", {"when": is_whatif}),
        ("whatif", cost_estimator.CostFunction, "cost_many", {"when": is_whatif}),
        # ProblemBuilder calls the name it imported, so that is the one to wrap.
        ("calibration.calibrate", api.builder, "calibrate_engine", {}),
        ("calibration.estimate", calibrator.EngineCalibration, "estimate_workload_seconds", {}),
        (
            "calibration.estimate",
            calibrator.EngineCalibration,
            "estimate_workload_seconds_many",
            {},
        ),
        # ``optimize`` delegates to ``estimate_query``: it is the what-if call.
        ("dbms.optimize", interface.DatabaseEngine, "estimate_query", {}),
    ]


def _backends() -> List[Any]:
    from repro.parallel import aio, backends

    return [backends.SerialBackend, backends.ThreadBackend, aio.AsyncioBackend]


def _instruments() -> List[Tuple[Any, str]]:
    from repro.telemetry import metrics

    return [
        (metrics.Counter, "inc"),
        (metrics.Gauge, "inc"),
        (metrics.Gauge, "dec"),
        (metrics.Gauge, "set"),
        (metrics.Histogram, "observe"),
        (metrics._Family, "labels"),
        (metrics._Family, "inc"),
        (metrics._Family, "dec"),
        (metrics._Family, "set"),
        (metrics._Family, "observe"),
    ]


def install(recorder: SpanRecorder) -> None:
    """Wrap the solver stack (everything an in-process fleet solve runs)."""
    for name, owner, attr, options in _targets():
        recorder.wrap(owner, attr, name, **options)
    for backend in _backends():
        recorder.wrap_dispatch(backend, "run", "backend.run", "backend.task")
        recorder.wrap_dispatch(backend, "submit", "backend.run", "backend.task")
    for owner, attr in _instruments():
        recorder.wrap(owner, attr, "telemetry.instrument", count_only=True)


def install_server(recorder: SpanRecorder) -> None:
    """Wrap the solver stack plus the serving tier, inside the server process."""
    from repro.service import async_api, engine, http

    install(recorder)
    recorder.wrap(async_api.AsyncAdvisorService, "recommend", "async_api")
    recorder.wrap(async_api.AsyncAdvisorService, "fleet", "async_api")
    recorder.wrap(engine.AdvisorService, "recommend", "engine.recommend")
    recorder.wrap(engine.AdvisorService, "fleet_document", "engine.fleet")
    recorder.wrap(http.AdvisorRequestHandler, "do_POST", "http.request")
    recorder.wrap(http.AdvisorRequestHandler, "handle", "http.connection", count_only=True)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
#: Fields of one span-totals entry (see ``SpanRecorder.totals``).
CALLS, TOTAL_S, SELF_S, ERRORS, ITEMS = range(5)


def _sum(totals: Dict[str, List[float]], field: int, *names: str) -> float:
    return sum(totals[name][field] for name in names if name in totals)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    totals: Dict[str, List[float]],
    ops: int,
    counters: Dict[str, float],
    setup_totals: Dict[str, List[float]],
    client: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics for one traced window of ``ops`` operations.

    ``totals`` are the span totals of the window; ``counters`` sums the
    program's public counters over the same window (keys: ``evaluations``,
    ``cache_hits``, ``cache_misses``, ``optimizer_calls``,
    ``plan_cache_hits``, ``memo_hits``, ``memo_misses``, ``probes``,
    ``bnb_ops``, ``bnb_nodes``, ``bnb_proven``, ``bnb_misses``; missing
    keys count 0); ``setup_totals`` are the spans of set-up, where
    calibration happens; ``client`` carries what only the benchmark's
    client can see.
    """
    per_op = 1.0 / ops if ops else 0.0

    def get(key: str) -> float:
        return counters.get(key, 0)

    def self_ms(*names: str) -> float:
        return 1000.0 * _sum(totals, SELF_S, *names) * per_op

    def per_op_count(field: int, name: str) -> float:
        return _sum(totals, field, name) * per_op

    lookups = get("cache_hits") + get("cache_misses")
    memo_lookups = get("memo_hits") + get("memo_misses")
    whatif_calls = get("optimizer_calls") + get("plan_cache_hits")
    calibrate_s = _sum(setup_totals, TOTAL_S, "calibration.calibrate") + _sum(
        totals, TOTAL_S, "calibration.calibrate"
    )
    return {
        "http.overhead_ms": client.get("http_overhead_ms", 0.0),
        "http.requests_per_connection": client.get("requests_per_connection", 0.0),
        # The coroutine's self time: the loop hop and the to_thread dispatch.
        "async_api.dispatch_wait_ms": self_ms("async_api"),
        "engine.recommend_self_ms": self_ms("engine.recommend"),
        "engine.fleet_self_ms": self_ms("engine.fleet"),
        "engine.errors": _sum(totals, ERRORS, "engine.recommend", "engine.fleet"),
        "report.to_dict_ms": self_ms("report.to_dict"),
        "document.from_dict_ms": self_ms("document.from_dict"),
        # A dispatched task's own time is the fleet advisor's per-probe glue
        # (its private solver wrapper), so it belongs to this layer.
        "fleet.recommend_self_ms": self_ms("fleet.recommend", "backend.task"),
        "fleet.solve_machine.calls": per_op_count(CALLS, "fleet.solve_machine"),
        "fleet.solve_machine.self_ms": self_ms("fleet.solve_machine"),
        "fleet.solve_machine.infeasible": per_op_count(ERRORS, "fleet.solve_machine"),
        "solve_memo.hit_ratio": _ratio(get("memo_hits"), memo_lookups),
        "solve_memo.lookups": memo_lookups * per_op,
        "placement.place_self_ms": self_ms("placement.place", "bnb.place"),
        "placement.probes": get("probes") * per_op,
        "bnb.nodes_explored": _ratio(get("bnb_nodes"), get("bnb_ops")),
        "bnb.us_per_node": 1e6 * _ratio(_sum(totals, TOTAL_S, "bnb.place"), get("bnb_nodes")),
        "bnb.distinct_solves": _ratio(get("bnb_misses"), get("bnb_ops")),
        "bnb.proven_fraction": _ratio(get("bnb_proven"), get("bnb_ops")),
        "advisor.recommend.calls": per_op_count(CALLS, "advisor.recommend"),
        "advisor.recommend.self_ms": self_ms("advisor.recommend"),
        "enumerator.calls": per_op_count(CALLS, "enumerator"),
        "enumerator.self_ms": self_ms("enumerator"),
        "cost_cache.lookups": lookups * per_op,
        "cost_cache.hit_ratio": _ratio(get("cache_hits"), lookups),
        "cost_cache.self_ms": self_ms("cost_cache"),
        "whatif.evaluations": get("evaluations") * per_op,
        "whatif.self_ms": self_ms("whatif"),
        "calibration.calibrate_ms": 1000.0 * calibrate_s,
        "calibration.estimate_self_ms": self_ms("calibration.estimate"),
        "dbms.optimizer_calls": get("optimizer_calls") * per_op,
        "dbms.plan_cache_hit_ratio": _ratio(get("plan_cache_hits"), whatif_calls),
        "dbms.optimize_self_ms": self_ms("dbms.optimize"),
        "backend.tasks": per_op_count(ITEMS, "backend.run"),
        "backend.run_self_ms": self_ms("backend.run"),
        "telemetry.instrument_calls": per_op_count(CALLS, "telemetry.instrument"),
        "client.send_lag_p99_ms": client.get("send_lag_p99_ms", 0.0),
        "trace.overhead_ratio": client.get("overhead_ratio", 0.0),
        "error_rate": client.get("error_rate", 0.0),
    }


def self_time_table(totals: Dict[str, List[float]], ops: int) -> List[Tuple[str, float, float, float]]:
    """(span, calls/op, self ms/op, total ms/op) rows, busiest first."""
    rows = []
    for name, (calls, total, self_time, _errors, _items) in totals.items():
        if self_time <= 0 and calls == 0:
            continue
        rows.append(
            (name, calls / max(ops, 1), 1000.0 * self_time / max(ops, 1), 1000.0 * total / max(ops, 1))
        )
    rows.sort(key=lambda row: -row[2])
    return rows

