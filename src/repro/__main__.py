"""``python -m repro`` — the advisor as a command-line tool.

Three subcommands cover the three problem families, each reading one JSON
document and writing the corresponding JSON report to stdout (or a file):

* ``recommend <scenario.json>`` — solve a single-machine
  :class:`~repro.api.Scenario` with :class:`~repro.api.Advisor`; the
  scenario's embedded ``advisor`` options (enumerator, delta, ...) are
  honoured.
* ``fleet <fleet.json>`` — place and configure a
  :class:`~repro.fleet.FleetProblem` with
  :class:`~repro.fleet.FleetAdvisor` (``--placement`` selects a strategy;
  ``--local-search N`` polishes the answer with up to ``N`` rounds of the
  swap/move improver; ``--bnb-max-nodes`` / ``--bnb-max-seconds`` budget
  the exact ``bnb-fleet`` search, degrading to the best incumbent with
  provenance on exhaustion).
* ``replay <trace.json>`` — replay a
  :class:`~repro.traces.WorkloadTrace`; on one machine by default, or
  across a fleet with ``--fleet fleet.json`` (``--policy`` selects
  dynamic / continuous / static).
* ``serve`` — host the advisor over HTTP
  (:mod:`repro.service`): POST the same three document kinds to
  ``/recommend`` / ``/fleet`` / ``/replay``, GET ``/healthz`` /
  ``/stats``; runs until SIGINT/SIGTERM.
* ``loadgen`` — drive a running ``serve`` process with an open-loop
  workload (:mod:`repro.loadgen`): a constant/poisson/ramp shape, an
  :class:`~repro.loadgen.ArrivalSpec` file, or a
  :class:`~repro.traces.WorkloadTrace` rendered to arrivals; measures
  client-side latency SLIs, evaluates an optional SLO, correlates with
  the server's own ``/metrics`` + ``/stats``, and with ``--sweep`` steps
  the offered rate until the SLO breaks (a saturation/sizing report).

The ``fleet``, ``replay`` and ``serve`` subcommands accept ``--backend``
/ ``--jobs`` to fan independent per-machine solves out on a
solver-execution backend (``--help`` lists the registered names; the
default is ``serial``, which refuses ``--jobs`` above 1); every backend
returns the serial answer, and the emitted report records which backend
produced it.  Input paths accept ``-`` to read the JSON document from
stdin, and ``--version`` reports the package version.

Examples::

    python -m repro recommend scenario.json --indent 2
    python -m repro recommend - < scenario.json
    python -m repro fleet fleet.json --placement round-robin -o report.json
    python -m repro fleet fleet.json --backend thread --jobs 4
    python -m repro fleet fleet.json --local-search 8
    python -m repro fleet fleet.json --placement bnb-fleet --bnb-max-nodes 50000
    python -m repro replay trace.json --fleet fleet.json --policy static
    python -m repro fleet fleet.json --profile --trace-out traces.jsonl
    python -m repro serve --port 8008 --trace
    python -m repro serve --port 8008 --backend thread --jobs 8
    python -m repro loadgen --url http://127.0.0.1:8008 --rate 20 --duration 5
    python -m repro loadgen --url http://127.0.0.1:8008 --trace trace.json --period-duration 1
    python -m repro loadgen --url http://127.0.0.1:8008 --sweep --p95 0.25 -o sizing.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, List, Optional

from . import __version__
from .api import Advisor, Scenario
from .exceptions import ReproError
from .fleet import PLACEMENTS, FleetAdvisor, FleetProblem, resolve_placement
from .parallel import BACKENDS
from .traces import POLICIES, POLICY_DYNAMIC, FleetTraceReplayer, TraceReplayer, WorkloadTrace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Virtualization design advisor: recommend per-machine VM "
            "configurations, fleet placements, and trace replays from "
            "JSON problem documents."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_backend_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--backend",
            default="serial",
            choices=sorted(BACKENDS.names()),
            help=(
                "solver-execution backend for independent per-machine "
                "solves (default: serial; every backend returns the serial "
                "answer — the report records which one produced it)"
            ),
        )
        sub.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker count for the chosen backend (default: per-backend)",
        )

    def add_telemetry_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace-out",
            type=Path,
            default=None,
            metavar="FILE",
            help=(
                "enable tracing and append each completed trace tree to "
                "FILE as one JSON line"
            ),
        )
        sub.add_argument(
            "--profile",
            action="store_true",
            help=(
                "enable tracing and print a per-phase time breakdown to "
                "stderr after the run"
            ),
        )

    def add_output_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--indent",
            type=int,
            default=2,
            help="JSON indentation of the report (default: 2)",
        )
        sub.add_argument(
            "-o",
            "--output",
            type=Path,
            default=None,
            help="write the report to this file instead of stdout",
        )

    recommend = commands.add_parser(
        "recommend",
        help="solve a single-machine consolidation scenario",
        description="Solve one Scenario JSON document with the Advisor.",
    )
    recommend.add_argument(
        "scenario", type=Path,
        help="path to a Scenario JSON file, or - to read it from stdin",
    )
    add_telemetry_options(recommend)
    add_output_options(recommend)

    fleet = commands.add_parser(
        "fleet",
        help="place tenants across a machine fleet",
        description="Solve one FleetProblem JSON document with the FleetAdvisor.",
    )
    fleet.add_argument(
        "fleet", type=Path,
        help="path to a FleetProblem JSON file, or - to read it from stdin",
    )
    fleet.add_argument(
        "--placement",
        default=None,
        choices=sorted(PLACEMENTS.names()),
        help="placement strategy (default: greedy-cost)",
    )
    fleet.add_argument(
        "--local-search",
        type=int,
        default=None,
        metavar="ROUNDS",
        help=(
            "polish the placement with up to ROUNDS local-search rounds "
            "(implies --placement greedy-cost+ls unless one is given)"
        ),
    )
    fleet.add_argument(
        "--bnb-max-nodes",
        type=int,
        default=None,
        metavar="NODES",
        help=(
            "node budget for the branch-and-bound search; on exhaustion "
            "the best incumbent is returned and the report's "
            "placement_provenance records proven_optimal=false "
            "(implies --placement bnb-fleet unless one is given)"
        ),
    )
    fleet.add_argument(
        "--bnb-max-seconds",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "wall-clock budget for the branch-and-bound search, with the "
            "same best-incumbent degradation as --bnb-max-nodes "
            "(implies --placement bnb-fleet unless one is given)"
        ),
    )
    add_backend_options(fleet)
    add_telemetry_options(fleet)
    add_output_options(fleet)

    replay = commands.add_parser(
        "replay",
        help="replay a workload trace through dynamic management",
        description=(
            "Replay one WorkloadTrace JSON document; single-machine by "
            "default, fleet-scale with --fleet."
        ),
    )
    replay.add_argument(
        "trace", type=Path,
        help="path to a WorkloadTrace JSON file, or - to read it from stdin",
    )
    replay.add_argument(
        "--fleet",
        type=Path,
        default=None,
        help="replay across this FleetProblem JSON file instead of one machine",
    )
    replay.add_argument(
        "--policy",
        default=POLICY_DYNAMIC,
        choices=POLICIES,
        help="replay policy (default: dynamic)",
    )
    add_backend_options(replay)
    add_telemetry_options(replay)
    add_output_options(replay)

    serve = commands.add_parser(
        "serve",
        help="host the advisor over HTTP",
        description=(
            "Serve POST /recommend, /fleet, and /replay (the same JSON "
            "documents as the subcommands) plus GET /healthz, /stats, "
            "/metrics, and /trace/<id>; runs until SIGINT/SIGTERM."
        ),
    )
    serve.add_argument(
        "--host", default=None, help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=None,
        help="bind port; 0 picks an ephemeral one (default: 8008)",
    )
    add_backend_options(serve)
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=None,
        help="bound on concurrently running solves (default: 8)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each handled request"
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help=(
            "enable tracing; completed request traces are listed in "
            "GET /stats and served by GET /trace/<id>"
        ),
    )
    serve.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help=(
            "enable tracing and additionally append each completed trace "
            "tree to FILE as one JSON line"
        ),
    )

    loadgen = commands.add_parser(
        "loadgen",
        help="drive a running server with an open-loop workload",
        description=(
            "Generate open-loop load against a live `python -m repro "
            "serve` process, measure client-side latency SLIs, evaluate "
            "an optional SLO, and correlate with the server's own "
            "/metrics and /stats; --sweep steps the offered rate until "
            "the SLO breaks."
        ),
    )
    loadgen.add_argument(
        "document",
        type=Path,
        nargs="?",
        default=None,
        help=(
            "request document to POST (a Scenario, FleetProblem, or "
            "replay envelope JSON file; - for stdin); a small built-in "
            "scenario is used when omitted with --endpoint recommend"
        ),
    )
    loadgen.add_argument(
        "--url",
        default="http://127.0.0.1:8008",
        help="base URL of the running server (default: %(default)s)",
    )
    loadgen.add_argument(
        "--endpoint",
        default="recommend",
        choices=("recommend", "fleet", "replay"),
        help="endpoint the document is POSTed to (default: recommend)",
    )
    shape_source = loadgen.add_mutually_exclusive_group()
    shape_source.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="ArrivalSpec JSON file describing the offered-load shape",
    )
    shape_source.add_argument(
        "--trace",
        type=Path,
        default=None,
        help=(
            "WorkloadTrace JSON file rendered to arrivals "
            "(see --requests-per-intensity / --period-duration)"
        ),
    )
    loadgen.add_argument(
        "--shape",
        default="constant",
        choices=("constant", "poisson", "ramp"),
        help="arrival shape when neither --spec nor --trace is given",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=10.0,
        help="offered load, requests/second (default: %(default)s)",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=5.0,
        help="run length in seconds (default: %(default)s)",
    )
    loadgen.add_argument(
        "--end-rate",
        type=float,
        default=None,
        help="final rate for --shape ramp (default: --rate)",
    )
    loadgen.add_argument(
        "--seed",
        type=int,
        default=0,
        help=(
            "schedule seed; the same seed is the same arrivals "
            "(a sweep's step i runs under seed+i)"
        ),
    )
    loadgen.add_argument(
        "--requests-per-intensity",
        type=float,
        default=1.0,
        help=(
            "with --trace: requests per unit of statement frequency "
            "(default: %(default)s)"
        ),
    )
    loadgen.add_argument(
        "--period-duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "with --trace: wall-clock seconds per monitoring period "
            "(time compression; default: the trace's own period length)"
        ),
    )
    loadgen.add_argument(
        "--slo",
        type=Path,
        default=None,
        help="SloSpec JSON file with the objectives to evaluate",
    )
    loadgen.add_argument(
        "--p50", type=float, default=None, metavar="SECONDS",
        help="SLO: client p50 latency ceiling",
    )
    loadgen.add_argument(
        "--p95", type=float, default=None, metavar="SECONDS",
        help="SLO: client p95 latency ceiling",
    )
    loadgen.add_argument(
        "--p99", type=float, default=None, metavar="SECONDS",
        help="SLO: client p99 latency ceiling",
    )
    loadgen.add_argument(
        "--max-error-rate", type=float, default=None, metavar="RATE",
        help="SLO: ceiling on errors/completed (0.0 = none tolerated)",
    )
    loadgen.add_argument(
        "--min-throughput", type=float, default=None, metavar="RPS",
        help="SLO: floor on achieved successful requests/second",
    )
    loadgen.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "step the offered rate geometrically until the SLO breaks "
            "and report the saturation point (default SLO: p95 <= 0.5s, "
            "no errors)"
        ),
    )
    loadgen.add_argument(
        "--sweep-start-rate", type=float, default=2.0, metavar="RPS",
        help="first sweep step's offered rate (default: %(default)s)",
    )
    loadgen.add_argument(
        "--sweep-growth", type=float, default=2.0, metavar="FACTOR",
        help="multiplicative rate step between sweep steps (default: %(default)s)",
    )
    loadgen.add_argument(
        "--sweep-steps", type=int, default=6, metavar="N",
        help="sweep step budget (default: %(default)s)",
    )
    loadgen.add_argument(
        "--sweep-step-duration", type=float, default=3.0, metavar="SECONDS",
        help="each sweep step's run length (default: %(default)s)",
    )
    loadgen.add_argument(
        "--workers",
        type=int,
        default=8,
        help="client worker threads (default: %(default)s)",
    )
    loadgen.add_argument(
        "--timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request timeout; a timeout counts as an error",
    )
    loadgen.add_argument(
        "--no-scrape",
        action="store_true",
        help=(
            "skip the server-side /metrics + /stats correlation "
            "(black-box only)"
        ),
    )
    add_telemetry_options(loadgen)
    add_output_options(loadgen)

    return parser


def _read(path: Path) -> str:
    if str(path) == "-":
        return sys.stdin.read()
    return path.read_text(encoding="utf-8")


def _emit(document: str, output: Optional[Path]) -> None:
    if output is None:
        print(document)
    else:
        output.write_text(document + "\n", encoding="utf-8")


def _run_recommend(args: argparse.Namespace) -> str:
    scenario = Scenario.from_json(_read(args.scenario))
    advisor = Advisor(**scenario.advisor)
    report = advisor.recommend(scenario.build())
    return report.to_json(indent=args.indent)


def _run_fleet(args: argparse.Namespace) -> str:
    problem = FleetProblem.from_json(_read(args.fleet))
    placement = resolve_placement(
        args.placement, args.local_search, args.bnb_max_nodes, args.bnb_max_seconds
    )
    advisor = FleetAdvisor(backend=args.backend, jobs=args.jobs)
    try:
        report = advisor.recommend(problem, placement=placement)
    finally:
        advisor.backend.close()
    return report.to_json(indent=args.indent)


def _run_replay(args: argparse.Namespace) -> str:
    trace = WorkloadTrace.from_json(_read(args.trace))
    if args.fleet is None:
        replayer = TraceReplayer(
            trace, policy=args.policy, backend=args.backend, jobs=args.jobs
        )
    else:
        fleet = FleetProblem.from_json(_read(args.fleet))
        replayer = FleetTraceReplayer(
            trace, fleet, policy=args.policy, backend=args.backend, jobs=args.jobs
        )
    try:
        report = replayer.replay()
    finally:
        replayer.backend.close()
    return report.to_json(indent=args.indent)


def _run_serve(args: argparse.Namespace) -> Optional[str]:
    # Imported here: the serving tier is needed only by this subcommand.
    from .service import DEFAULT_HOST, DEFAULT_PORT, AdvisorService, serve
    from .service.http import DEFAULT_MAX_CONCURRENCY

    service = AdvisorService(backend=args.backend, jobs=args.jobs)
    serve(
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        service=service,
        max_concurrency=(
            args.max_concurrency
            if args.max_concurrency is not None
            else DEFAULT_MAX_CONCURRENCY
        ),
        verbose=args.verbose,
    )
    return None


#: The request document ``loadgen`` POSTs when none is given: a small
#: two-tenant scenario whose repeats hit the service's pooled builder and
#: cost cache — the warm serving path a capacity probe should measure.
_LOADGEN_DEFAULT_SCENARIO = {
    "name": "loadgen-default",
    "resources": ["cpu"],
    "calibration": {"cpu_shares": [0.25, 0.5, 0.75, 1.0]},
    "advisor": {"delta": 0.25},
    "tenants": [
        {"name": "dss", "engine": "db2", "statements": [["q18", 2.0]]},
        {"name": "scan", "engine": "db2", "statements": [["q21", 1.0]]},
    ],
}


def _loadgen_slo(args: argparse.Namespace) -> Optional[Any]:
    """The SLO the loadgen run evaluates, from --slo or the quick flags."""
    from .loadgen import SloSpec

    quick = {
        "p50_seconds": args.p50,
        "p95_seconds": args.p95,
        "p99_seconds": args.p99,
        "max_error_rate": args.max_error_rate,
        "min_throughput_rps": args.min_throughput,
    }
    stated = {key: value for key, value in quick.items() if value is not None}
    if args.slo is not None:
        if stated:
            raise ReproError(
                "pass either --slo FILE or the quick SLO flags "
                "(--p50/--p95/--p99/--max-error-rate/--min-throughput), "
                "not both"
            )
        return SloSpec.from_json(_read(args.slo))
    if stated:
        return SloSpec(**stated)
    return None


def _run_loadgen(args: argparse.Namespace) -> str:
    # Imported here: the load generator is needed only by this subcommand.
    from .loadgen import (
        ArrivalSpec,
        LoadRunner,
        RequestTemplate,
        saturation_sweep,
        schedule_from_trace,
    )

    if args.document is not None:
        document = json.loads(_read(args.document))
    elif args.endpoint == "recommend":
        document = _LOADGEN_DEFAULT_SCENARIO
    else:
        raise ReproError(
            f"--endpoint {args.endpoint} needs a request document "
            f"(only recommend has a built-in default)"
        )
    templates = [RequestTemplate(args.endpoint, document)]
    slo = _loadgen_slo(args)

    if args.sweep:
        if args.spec is not None or args.trace is not None:
            raise ReproError(
                "--sweep generates its own schedules; it cannot be "
                "combined with --spec or --trace"
            )
        report = saturation_sweep(
            args.url,
            templates,
            slo=slo,
            start_rate=args.sweep_start_rate,
            growth=args.sweep_growth,
            max_steps=args.sweep_steps,
            step_duration_seconds=args.sweep_step_duration,
            shape=args.shape,
            seed=args.seed,
            workers=args.workers,
            timeout_seconds=args.timeout,
            scrape=not args.no_scrape,
        )
        return report.to_json(indent=args.indent)

    if args.spec is not None:
        schedule = ArrivalSpec.from_json(_read(args.spec)).schedule()
    elif args.trace is not None:
        schedule = schedule_from_trace(
            WorkloadTrace.from_json(_read(args.trace)),
            seed=args.seed,
            requests_per_intensity=args.requests_per_intensity,
            period_duration_seconds=args.period_duration,
        )
    else:
        schedule = ArrivalSpec(
            shape=args.shape,
            rate=args.rate,
            duration_seconds=args.duration,
            end_rate=args.end_rate,
            seed=args.seed,
        ).schedule()
    report = LoadRunner(
        args.url,
        schedule,
        templates,
        slo=slo,
        workers=args.workers,
        timeout_seconds=args.timeout,
        scrape=not args.no_scrape,
    ).run()
    return report.to_json(indent=args.indent)


_RUNNERS = {
    "recommend": _run_recommend,
    "fleet": _run_fleet,
    "replay": _run_replay,
    "serve": _run_serve,
    "loadgen": _run_loadgen,
}


def _print_profile() -> None:
    """Print the most recent trace's per-phase breakdown to stderr."""
    from .telemetry.trace import format_profile, get_tracer

    tracer = get_tracer()
    trace_ids = tracer.ring.trace_ids()
    if not trace_ids:
        print("profile: no trace recorded", file=sys.stderr)
        return
    print(format_profile(tracer.ring.get(trace_ids[-1])), file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    # Telemetry is opt-in per invocation: --version, argparse errors, and
    # untraced runs never touch the tracer.
    # `serve --trace` is a boolean flag; `loadgen --trace FILE` is a
    # workload-trace path and must not switch the tracer on.
    tracing = bool(
        trace_out is not None
        or getattr(args, "profile", False)
        or getattr(args, "trace", None) is True
    )
    try:
        if tracing:
            from .telemetry import configure_tracing

            configure_tracing(
                trace_out=str(trace_out) if trace_out is not None else None
            )
        document = _RUNNERS[args.command](args)
        if document is not None:
            _emit(document, args.output)
        if getattr(args, "profile", False):
            _print_profile()
    except (ReproError, OSError, json.JSONDecodeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if tracing:
            from .telemetry import disable_tracing

            disable_tracing()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
