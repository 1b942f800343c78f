"""repro — reproduction of *Automatic Virtual Machine Configuration for
Database Workloads* (Soror, Minhas, Aboulnaga, Salem, Kokosielis, Kamath;
SIGMOD 2008).

The package provides:

* a simulated virtualization substrate (:mod:`repro.virt`),
* PostgreSQL- and DB2-style database engine simulators (:mod:`repro.dbms`),
* TPC-H and TPC-C style workload models (:mod:`repro.workloads`),
* the query-optimizer calibration machinery (:mod:`repro.calibration`),
* the virtualization design advisor — greedy configuration enumeration, QoS
  constraints, online refinement, and dynamic configuration management
  (:mod:`repro.core`),
* the unified advisor API — fluent :class:`~repro.api.ProblemBuilder`,
  declarative :class:`~repro.api.Scenario` specs, the pluggable
  :class:`~repro.api.Advisor` service, and serializable
  :class:`~repro.api.RecommendationReport`\\ s (:mod:`repro.api`),
* the fleet placement engine — :class:`~repro.fleet.FleetAdvisor` decides
  which machine each tenant lands on (``"greedy-cost"``, ``"round-robin"``,
  ``"first-fit"``) before the per-machine advisor divides its resources
  (:mod:`repro.fleet`),
* the workload-trace subsystem — timestamped
  :class:`~repro.traces.WorkloadTrace`\\ s, synthetic trace generators, and
  :class:`~repro.traces.TraceReplayer` /
  :class:`~repro.traces.FleetTraceReplayer` driving dynamic reconfiguration
  and incremental fleet re-placement (:mod:`repro.traces`),
* the parallel solver-execution subsystem — pluggable backends fanning
  independent per-machine solves out while returning the serial answer
  bit for bit (:mod:`repro.parallel`),
* the serving tier — :class:`~repro.service.AdvisorService` hosting the
  advisor for concurrent callers over one process-wide cost-cache pool,
  awaitable :class:`~repro.service.AsyncAdvisor` /
  :class:`~repro.service.AsyncFleetAdvisor` faces, and the stdlib-only
  HTTP server behind ``python -m repro serve`` (:mod:`repro.service`), and
* the experiment harness reproducing every figure of the paper's evaluation
  (:mod:`repro.experiments`).

Quick start::

    from repro import Advisor, ProblemBuilder

    problem = (
        ProblemBuilder()
        .add_tenant("postgresql-io-bound", engine="postgresql",
                    statements=[("q17", 1.0)])
        .add_tenant("db2-cpu-bound", engine="db2",
                    statements=[("q18", 1.0)])
        .build()
    )
    report = Advisor().recommend(problem)
    for tenant in report.tenants:
        print(tenant.name, tenant.cpu_share, tenant.memory_fraction)
    print(report.to_json(indent=2))

Strategies are pluggable by name — ``Advisor(enumerator="exhaustive")``,
``Advisor(cost_function="actual")`` — or by instance; whole scenarios can be
defined as data via :meth:`repro.api.Scenario.from_dict`.
"""

from __future__ import annotations

# Defined before the subpackage imports: the serving tier reports the
# package version (HTTP Server header, /healthz) and reads it mid-import.
__version__ = "1.4.0"

from .api import (
    Advisor,
    ProblemBuilder,
    RecommendationReport,
    Scenario,
    TenantSpec,
)
from .calibration import CalibrationSettings, calibrate_engine
from .core import (
    ConsolidatedWorkload,
    Recommendation,
    ResourceAllocation,
    UNLIMITED_DEGRADATION,
    VirtualizationDesignProblem,
    WhatIfCostEstimator,
)
from .core.cost_estimator import ActualCostFunction
from .dbms.db2 import DB2Engine
from .dbms.postgres import PostgreSQLEngine
from .fleet import (
    FleetAdvisor,
    FleetProblem,
    FleetReport,
    FleetTenant,
    Machine,
)
from .parallel import (
    BACKENDS,
    AsyncioBackend,
    SerialBackend,
    SolverBackend,
    ThreadBackend,
    resolve_backend,
)
from .service import (
    AdvisorHTTPServer,
    AdvisorService,
    AsyncAdvisor,
    AsyncFleetAdvisor,
    serve,
)
from .traces import (
    FleetTraceReplayer,
    ReplayReport,
    TraceReplayer,
    WorkloadTrace,
)
from .virt import Hypervisor, PhysicalMachine
from .workloads import Workload, tpcc_database, tpcc_transactions, tpch_database, tpch_queries

__all__ = [
    "ActualCostFunction",
    "Advisor",
    "AdvisorHTTPServer",
    "AdvisorService",
    "AsyncAdvisor",
    "AsyncFleetAdvisor",
    "AsyncioBackend",
    "BACKENDS",
    "CalibrationSettings",
    "ConsolidatedWorkload",
    "DB2Engine",
    "FleetAdvisor",
    "FleetProblem",
    "FleetReport",
    "FleetTenant",
    "FleetTraceReplayer",
    "Hypervisor",
    "Machine",
    "PhysicalMachine",
    "PostgreSQLEngine",
    "ProblemBuilder",
    "Recommendation",
    "RecommendationReport",
    "ReplayReport",
    "ResourceAllocation",
    "Scenario",
    "SerialBackend",
    "SolverBackend",
    "TenantSpec",
    "ThreadBackend",
    "TraceReplayer",
    "UNLIMITED_DEGRADATION",
    "VirtualizationDesignProblem",
    "WhatIfCostEstimator",
    "Workload",
    "WorkloadTrace",
    "calibrate_engine",
    "quickstart_problem",
    "resolve_backend",
    "serve",
    "tpcc_database",
    "tpcc_transactions",
    "tpch_database",
    "tpch_queries",
    "__version__",
]


def quickstart_problem(scale_factor: float = 1.0) -> VirtualizationDesignProblem:
    """Build a small two-workload consolidation problem ready for the advisor.

    One PostgreSQL VM runs an I/O-bound workload (TPC-H Q17) and one DB2 VM
    runs a CPU-bound workload (TPC-H Q18) — the paper's motivating example
    in miniature.  Both engines are calibrated on a default physical
    machine via :class:`~repro.api.ProblemBuilder`::

        from repro import Advisor, quickstart_problem

        report = Advisor().recommend(quickstart_problem())
        print(report.to_json(indent=2))
    """
    return (
        ProblemBuilder()
        .add_tenant(
            "postgresql-io-bound",
            engine="postgresql",
            scale=scale_factor,
            statements=[("q17", 1.0)],
            database_name=f"tpch_pg_sf{scale_factor:g}",
        )
        .add_tenant(
            "db2-cpu-bound",
            engine="db2",
            scale=scale_factor,
            statements=[("q18", 1.0)],
            database_name=f"tpch_db2_sf{scale_factor:g}",
        )
        .build()
    )
