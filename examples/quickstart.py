"""Quickstart: recommend VM configurations for two consolidated DBMSes.

Builds the paper's motivating scenario in miniature — a PostgreSQL VM running
an I/O-bound TPC-H query and a DB2 VM running a CPU-bound one — with the
fluent :class:`~repro.api.ProblemBuilder` (which hides the engine /
calibration boilerplate), asks the :class:`~repro.api.Advisor` service how to
split the physical machine's CPU and memory between the two VMs, and prints
the structured :class:`~repro.api.RecommendationReport` it returns —
including its machine-readable JSON form.

Run with::

    python examples/quickstart.py
"""

from repro import Advisor, ProblemBuilder


def main() -> None:
    # One builder call per tenant: the builder creates the TPC-H databases,
    # binds the engines, calibrates them once on a default physical machine,
    # and resolves the query templates by name.
    problem = (
        ProblemBuilder()
        .add_tenant("postgresql-io-bound", engine="postgresql",
                    statements=[("q17", 1.0)])
        .add_tenant("db2-cpu-bound", engine="db2",
                    statements=[("q18", 1.0)])
        .build()
    )

    # The advisor service defaults to the paper's pipeline: greedy
    # enumeration over the calibrated what-if cost estimator.  Strategies
    # are pluggable — try Advisor(enumerator="exhaustive-dp") for the exact
    # grid optimum (a dynamic program) or Advisor(cost_function="actual").
    advisor = Advisor()
    report = advisor.recommend(problem)

    print("Recommended virtual machine configurations")
    print("------------------------------------------")
    for tenant in report.tenants:
        print(f"  {tenant.name:<24} cpu={tenant.cpu_share:5.0%}  "
              f"memory={tenant.memory_fraction:5.0%}  "
              f"degradation={tenant.degradation:4.1f}x")
    print()
    print(f"estimated cost under default 50/50 split : {report.default_cost:8.1f} s")
    print(f"estimated cost under recommendation      : {report.total_cost:8.1f} s")
    print(f"estimated improvement                    : {report.estimated_improvement:8.1%}")
    print(f"strategy                                 : "
          f"{report.provenance.enumerator} / {report.provenance.cost_function}")
    print(f"cost evaluations (cache hits)            : "
          f"{report.cost_stats.evaluations} ({report.cost_stats.cache_hits})")

    # "Deploy" the recommendation: simulate actually running both workloads
    # inside their VMs (with the noisy-neighbour I/O VM present) and compare
    # against the default allocation.
    measured = advisor.measured_improvement(problem, report.allocations)
    print(f"measured improvement                     : {measured:8.1%}")

    # The report serializes for dashboards, services, and regression logs.
    print()
    print("Machine-readable report")
    print("-----------------------")
    print(report.to_json(indent=2))


if __name__ == "__main__":
    main()
