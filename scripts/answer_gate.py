#!/usr/bin/env python
"""The answer gate: fleet answers must stay bit-identical across a change.

Solves the first fleets of the benchmark's two in-process workloads
(``fleet-cold``: ``greedy-cost+ls`` on never-repeated 12 x 4 fleets;
``bnb-exact``: ``bnb-fleet`` on the canonical 12 x 4 fleet, then seeded
8 x 4 fleets) exactly as ``perfbench/inprocess.py`` builds them at seed 5:
one ``FleetAdvisor`` per workload, the set-up fleet first, then
:data:`FLEETS` fleets.  Each report's ``canonical_dict()`` is hashed, in
order, as sorted-key JSON into one SHA-256 per workload, and the
``bnb-fleet`` searches' ``nodes_explored`` are summed.  Exits 1 unless
both digests and the node count match :data:`EXPECTED`; a speed-up must
leave all three unchanged.  The summed ``cost_stats`` of the same fleets
are printed for a before/after comparison (they are not gated: a change
may legitimately evaluate less).

Reads perfbench's document generators and changes none of them.  Run from
the repo root with ``python scripts/answer_gate.py`` (about 5 s).
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inprocess  # noqa: E402  (perfbench/, put on the path above)
from repro.fleet import FleetAdvisor, FleetProblem  # noqa: E402

SEED = 5
FLEETS = 25

#: Expected SHA-256 per workload, and the summed bnb nodes.
EXPECTED = {
    "fleet-cold": "6ef913397c633b7e4daefbad6a14ebc3f82996597d358ce8d3938e5ac232ffae",
    "bnb-exact": "13fbccc4aa00886b4950cb0d3e157cdffad9296e0c5f76b0ddfffa98bb706d5e",
    "bnb_nodes": 201_597,
}

#: The ``cost_stats`` fields summed per workload.
COUNTERS = (
    "evaluations",
    "cache_hits",
    "cache_misses",
    "optimizer_calls",
    "plan_cache_hits",
    "placement_solve_hits",
)


def gate(workload):
    """``(digest, bnb nodes, summed cost_stats)`` of one workload's fleets."""
    spec = inprocess.SPECS[workload]
    setup, fleets = spec.documents(SEED)
    advisor = FleetAdvisor(**spec.advisor_options)
    advisor.recommend(FleetProblem.from_dict(setup), placement=spec.placement)
    digest = hashlib.sha256()
    nodes = 0
    totals = dict.fromkeys(COUNTERS, 0)
    for _ in range(FLEETS):
        report = advisor.recommend(
            FleetProblem.from_dict(next(fleets)), placement=spec.placement
        )
        digest.update(json.dumps(report.canonical_dict(), sort_keys=True).encode())
        provenance = report.placement_provenance or {}
        nodes += provenance.get("nodes_explored", 0)
        for name in COUNTERS:
            totals[name] += getattr(report.cost_stats, name)
    return digest.hexdigest(), nodes, totals


def main():
    failures = []
    bnb_nodes = 0
    for workload in ("fleet-cold", "bnb-exact"):
        digest, nodes, totals = gate(workload)
        bnb_nodes += nodes
        per_fleet = ", ".join(
            f"{name} {value / FLEETS:,.1f}" for name, value in totals.items()
        )
        print(f"{workload}: sha256 {digest}")
        print(f"  per fleet: {per_fleet}")
        if digest != EXPECTED[workload]:
            failures.append(f"{workload} digest {digest[:8]}, expected {EXPECTED[workload][:8]}")
    print(f"bnb nodes: {bnb_nodes:,}")
    if bnb_nodes != EXPECTED["bnb_nodes"]:
        failures.append(f"bnb nodes {bnb_nodes:,}, expected {EXPECTED['bnb_nodes']:,}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
