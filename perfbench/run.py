"""The repository benchmark: one command, three workloads, every answer checked.

    python3 perfbench/run.py --workload {serve-warm,fleet-cold,bnb-exact}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The program under test is the ``repro``
package in ``src/``; the benchmark generates every input from ``--seed``
(``workloads.py``), measures for ``--seconds``, checks every answer
(``checks.py``) and prints a human-readable table followed, as the last
line of standard output, by one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` metrics of
``BENCHMARK.json``; with ``--trace 1`` the run wraps the program's
layers with timing code (``tracing.py``, ``layers.py``) and reports the
per-layer metrics instead.  Span records of traced runs are written to
``.perfbench_out/`` in the repository root.  Exits 2 without a result
when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("serve-warm", "fleet-cold", "bnb-exact")

def _print_table(workload: str, result: Dict[str, Any], units: Dict[str, str]) -> None:
    print(f"workload {workload}: attempted {result['attempted']}, failed {result['failed']}")
    for failure in result.get("failures", [])[:10]:
        print(f"  FAILED {failure}")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:14.4f} {units[name]}")
    for name, value in result.get("notes", {}).items():
        print(f"  ({name}: {value})")
    rows = result.get("table")
    if rows:
        print(f"  self time per operation ({result['ops']} traced ops, "
              f"mean latency {result['mean_traced_ms']:.3f} ms):")
        print(f"    {'span':28s} {'calls/op':>12s} {'self ms/op':>12s} {'total ms/op':>12s}")
        for name, calls, self_ms, total_ms in rows:
            print(f"    {name:28s} {calls:12.2f} {self_ms:12.4f} {total_ms:12.4f}")


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from repro.telemetry.trace import get_tracer

    # The program's own tracer stays off: spans come from the benchmark.
    if get_tracer().enabled:
        print("error: the program's tracer is enabled", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "serve-warm":
        import served

        result = served.run(args.seed, args.seconds, trace, OUT_DIR, SRC)
    else:
        import inprocess

        result = inprocess.run(args.workload, args.seed, args.seconds, trace, OUT_DIR)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {
        entry["name"]: entry["unit"]
        for entry in declared["per_layer" if trace else "end_to_end"]
    }
    if set(units) != set(result["metrics"]):
        print(
            f"error: measured metrics differ from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(result['metrics']))}",
            file=sys.stderr,
        )
        return 1
    _print_table(args.workload, result, units)
    line = {
        "correct": result["failed"] == 0 and result["attempted"] > 0,
        "attempted": max(int(result["attempted"]), 1),
        "failed": int(result["failed"]),
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
