"""Launch the advisor's HTTP server in its own process for the benchmark.

    python3 perfbench/server.py --src SRC --report REPORT.json [--trace]

Runs ``repro.service.serve()`` with the service defaults on an ephemeral
port (the program announces ``serving on http://host:port`` on stderr)
until SIGTERM, then writes a JSON report: the process's peak RSS and,
with ``--trace``, the span totals.  With ``--trace`` the solver stack and
the serving tier are wrapped with the benchmark's timing code before the
server starts, every request gets an operation id that follows it onto
the worker thread that solves it, and each SIGUSR1 records a snapshot of
the span totals and placement counters (the client brackets its timed
window with two of them) and acknowledges it on stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List


def _tag_requests(recorder: Any) -> None:
    """Give each served request an operation id, propagated into its solve.

    The handler thread blocks on the event loop while the request's
    coroutine runs there; the coroutine is re-parented onto the handler's
    ``http.request`` span so that span's self time is the HTTP tier's own.
    """
    from repro.service import http
    from tracing import OP_ID, PARENT

    ids = itertools.count(1)
    do_post = http.AdvisorRequestHandler.do_POST
    submit = http.AdvisorHTTPServer.submit

    def tagged_post(handler: Any) -> None:
        OP_ID.set(next(ids))
        do_post(handler)

    def tagged_submit(server: Any, coroutine: Any) -> Any:
        op = OP_ID.get()
        handler_span = recorder.current()

        async def with_id() -> Any:
            OP_ID.set(op)
            PARENT.set(handler_span)
            return await coroutine

        return submit(server, with_id())

    http.AdvisorRequestHandler.do_POST = tagged_post
    http.AdvisorHTTPServer.submit = tagged_submit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the program's src directory")
    parser.add_argument("--report", required=True, help="where to write the exit report")
    parser.add_argument("--trace", action="store_true", help="wrap layers with timing code")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    from repro.service import serve

    recorder = None
    snapshots: List[Dict[str, Any]] = []
    if args.trace:
        import layers
        from repro.telemetry import instruments
        from tracing import SpanRecorder

        recorder = SpanRecorder()
        layers.install_server(recorder)
        _tag_requests(recorder)

        def snapshot(signum: int, frame: Any) -> None:
            snapshots.append(
                {
                    "time": time.monotonic(),
                    "totals": recorder.snapshot(),
                    "probes": instruments.PLACEMENT_PROBES.value,
                    "bnb_nodes": instruments.BNB_NODES.value,
                }
            )
            print(f"snapshot {len(snapshots)}", file=sys.stderr, flush=True)

        signal.signal(signal.SIGUSR1, snapshot)

    serve(host="127.0.0.1", port=0)

    report: Dict[str, Any] = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        report["snapshots"] = snapshots
        report["totals"] = recorder.snapshot()
        recorder.write(Path(args.report).with_suffix(".spans.jsonl"))
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
