"""Trace replay: shifting workloads, dynamic re-placement, and the cache.

A small fleet (four tenants, two machines) serves workloads that *shift*:
midway through the trace, each heavy tenant swaps its entire statement mix
with a light neighbour — the paper's §7.10 "workloads switch virtual
machines" move, expressed as a `tenant_swap_trace`.

The demo replays the same trace under three policies and compares them:

* ``dynamic``  — one dynamic configuration manager per machine; the swap
  is classified a *major* change, the managers discard their refined cost
  models, and the fleet advisor incrementally re-places the changed
  tenants at the period boundary;
* ``continuous`` — refinement only, never re-place (the paper's baseline);
* ``static``   — the initial placement and allocations held throughout.

It also replays the trace a second time and asserts the zero-evaluation
repeat property: every cost question is answered from the shared cache.

Run with::

    PYTHONPATH=src python examples/trace_replay.py
"""

from repro.fleet import FleetAdvisor, FleetProblem
from repro.traces import FleetTraceReplayer, tenant_swap_trace

TENANTS = [
    {"name": "orders-heavy", "engine": "db2",
     "statements": [["q18", 30.0], ["q21", 1.0]], "gain_factor": 2.0},
    {"name": "reports-light", "engine": "db2", "statements": [["q21", 1.0]]},
    {"name": "analytics-heavy", "engine": "postgresql",
     "statements": [["q18", 24.0]], "gain_factor": 2.0},
    {"name": "archive-light", "engine": "postgresql",
     "statements": [["q17", 1.0]]},
]

MACHINES = [
    {"name": "small-host"},
    {"name": "big-host", "cpu_work_units_per_second": 4_000_000.0,
     "memory_mb": 16384.0},
]


def main() -> None:
    fleet = FleetProblem(
        tenants=TENANTS, machines=MACHINES, resources=["cpu"],
        name="swap-demo",
    )
    trace = tenant_swap_trace(TENANTS, swap_periods=(3,), n_periods=6)
    print(f"trace {trace.name!r}: {trace.n_tenants} tenants x "
          f"{trace.n_periods} periods (mix swap at period 3)\n")

    advisor = FleetAdvisor(delta=0.1)
    reports = {
        policy: FleetTraceReplayer(
            trace, fleet, advisor=advisor, policy=policy
        ).replay()
        for policy in ("dynamic", "continuous", "static")
    }

    print("cumulative actual cost per policy:")
    for policy, report in sorted(
        reports.items(), key=lambda pair: pair[1].cumulative_actual_cost
    ):
        extra = ""
        if report.replacements:
            extra = f"  (re-placed at periods {list(report.replacements)})"
        print(f"  {policy:<11} {report.cumulative_actual_cost:12.1f}{extra}")

    dynamic = reports["dynamic"]
    print("\ndynamic policy, period by period:")
    for period in dynamic.periods:
        majors = sorted(
            name for name, change in period.change_classes.items()
            if change == "major"
        )
        note = f"  major: {', '.join(majors)}" if majors else ""
        note += "  -> re-placement" if period.replaced else ""
        print(f"  p{period.period}: actual cost {period.actual_cost:10.1f}"
              f"  improvement {period.improvement_over_default:+.1%}{note}")

    print("\nplacement before and after the swap:")
    print(f"  p1: {dynamic.periods[0].placement}")
    print(f"  p4: {dynamic.periods[3].placement}")

    repeat = FleetTraceReplayer(trace, fleet, advisor=advisor).replay()
    print(f"\nrepeated identical replay: "
          f"{repeat.cost_stats.evaluations} new cost evaluations, "
          f"{repeat.cost_stats.cache_hits} cache hits")
    assert repeat.cost_stats.evaluations == 0

    document = dynamic.to_json()
    print(f"replay report serializes to {len(document)} bytes of JSON")


if __name__ == "__main__":
    main()
