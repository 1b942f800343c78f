"""Random-workload experiments (Figures 21–27 of the paper).

The advisor is given randomly generated workloads — for which the correct
allocation is not obvious in advance — and its recommendations are compared
against the default ``1/N`` allocation and against the optimal allocation
found by exhaustively enumerating the grid of feasible allocations and
measuring the (simulated) actual performance of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.problem import ResourceAllocation, VirtualizationDesignProblem
from ..workloads.generator import (
    random_mixed_workloads,
    random_multi_resource_workloads,
    random_tpch_cpu_workloads,
)
from ..workloads.workload import Workload
from .harness import ExperimentContext


@dataclass(frozen=True)
class AllocationTrajectory:
    """How one workload's allocation evolves as more workloads are added."""

    workload: str
    cpu_shares: Tuple[float, ...]
    memory_fractions: Tuple[float, ...]


@dataclass(frozen=True)
class RandomWorkloadResult:
    """Result of one random-workload experiment (one of Figures 21–27)."""

    figure: str
    engine: str
    workload_counts: Tuple[int, ...]
    trajectories: Tuple[AllocationTrajectory, ...]
    advisor_improvements: Tuple[float, ...]
    optimal_improvements: Tuple[float, ...]

    def trajectory_of(self, workload: str) -> AllocationTrajectory:
        """Allocation trajectory of a named workload."""
        for trajectory in self.trajectories:
            if trajectory.workload == workload:
                return trajectory
        raise KeyError(workload)


def _allocation_experiment(
    context: ExperimentContext,
    figure: str,
    engine_of: Dict[str, str],
    benchmark_of: Dict[str, str],
    scale_of: Dict[str, float],
    workloads: Sequence[Workload],
    workload_counts: Sequence[int],
    multi_resource: bool,
    compute_optimal: bool,
    optimal_delta: float = 0.05,
) -> RandomWorkloadResult:
    """Shared driver: add workloads one at a time and re-run the advisor."""
    cpu_history: Dict[str, List[float]] = {w.name: [] for w in workloads}
    memory_history: Dict[str, List[float]] = {w.name: [] for w in workloads}
    advisor_improvements: List[float] = []
    optimal_improvements: List[float] = []

    for count in workload_counts:
        active = list(workloads[:count])
        tenants = [
            context.tenant(
                workload,
                engine_of[workload.name],
                benchmark_of[workload.name],
                scale_of[workload.name],
            )
            for workload in active
        ]
        if multi_resource:
            problem = context.multi_resource_problem(tenants)
        else:
            problem = context.cpu_only_problem(tenants)
        recommendation = context.recommend(problem)
        for index, workload in enumerate(active):
            cpu_history[workload.name].append(
                recommendation.allocations[index].cpu_share
            )
            memory_history[workload.name].append(
                recommendation.allocations[index].memory_fraction
            )
        actuals = context.actuals(problem)
        advisor_improvements.append(
            context.measured_improvement(problem, recommendation.allocations, actuals)
        )
        if compute_optimal:
            optimal = context.best_effort_optimal(problem, actuals, delta=optimal_delta)
            optimal_improvements.append(
                context.measured_improvement(problem, optimal, actuals)
            )
        else:
            optimal_improvements.append(float("nan"))

    trajectories = tuple(
        AllocationTrajectory(
            workload=workload.name,
            cpu_shares=tuple(cpu_history[workload.name]),
            memory_fractions=tuple(memory_history[workload.name]),
        )
        for workload in workloads[: max(workload_counts)]
    )
    return RandomWorkloadResult(
        figure=figure,
        engine="/".join(sorted(set(engine_of.values()))),
        workload_counts=tuple(workload_counts),
        trajectories=trajectories,
        advisor_improvements=tuple(advisor_improvements),
        optimal_improvements=tuple(optimal_improvements),
    )


# ----------------------------------------------------------------------
# Figures 21 and 24: PostgreSQL TPC-H workloads, CPU allocation
# ----------------------------------------------------------------------
def postgresql_tpch_cpu_experiment(
    context: ExperimentContext,
    workload_counts: Sequence[int] = tuple(range(2, 11)),
    seed: int = 7,
    scale: float = 10.0,
    compute_optimal: bool = True,
) -> RandomWorkloadResult:
    """Figures 21 and 24: random Q17 / modified-Q18 workloads on PostgreSQL."""
    queries = context.queries("postgresql", "tpch", scale)
    workloads = random_tpch_cpu_workloads(queries, count=max(workload_counts), seed=seed)
    engine_of = {w.name: "postgresql" for w in workloads}
    benchmark_of = {w.name: "tpch" for w in workloads}
    scale_of = {w.name: scale for w in workloads}
    return _allocation_experiment(
        context,
        figure="fig21_24",
        engine_of=engine_of,
        benchmark_of=benchmark_of,
        scale_of=scale_of,
        workloads=workloads,
        workload_counts=workload_counts,
        multi_resource=False,
        compute_optimal=compute_optimal,
    )


# ----------------------------------------------------------------------
# Figures 22–23: mixed TPC-C + TPC-H workloads, CPU allocation
# ----------------------------------------------------------------------
def mixed_tpcc_tpch_cpu_experiment(
    context: ExperimentContext,
    engine: str,
    workload_counts: Sequence[int] = tuple(range(2, 11)),
    seed: int = 11,
    warehouses: int = 10,
    compute_optimal: bool = False,
) -> RandomWorkloadResult:
    """Figures 22 (DB2) and 23 (PostgreSQL): TPC-C + TPC-H mixes, CPU only."""
    sf1_queries = context.queries(engine, "tpch", 1.0)
    sf10_queries = context.queries(engine, "tpch", 10.0)
    transactions = context.queries(engine, "tpcc", warehouses)
    workloads = random_mixed_workloads(sf1_queries, sf10_queries, transactions, seed=seed)
    engine_of = {w.name: engine for w in workloads}
    benchmark_of = {
        w.name: ("tpcc" if w.name.startswith("tpcc") else "tpch") for w in workloads
    }
    scale_of = {}
    for workload in workloads:
        if workload.name.startswith("tpcc"):
            scale_of[workload.name] = float(warehouses)
        elif workload.name.startswith("tpch10"):
            scale_of[workload.name] = 10.0
        else:
            scale_of[workload.name] = 1.0
    figure = "fig22" if engine == "db2" else "fig23"
    return _allocation_experiment(
        context,
        figure=figure,
        engine_of=engine_of,
        benchmark_of=benchmark_of,
        scale_of=scale_of,
        workloads=workloads,
        workload_counts=workload_counts,
        multi_resource=False,
        compute_optimal=compute_optimal,
    )


# ----------------------------------------------------------------------
# Figures 25–27: multi-resource allocation on DB2
# ----------------------------------------------------------------------
def db2_multi_resource_experiment(
    context: ExperimentContext,
    workload_counts: Sequence[int] = tuple(range(2, 11)),
    seed: int = 13,
    compute_optimal: bool = True,
    optimal_delta: float = 0.1,
) -> RandomWorkloadResult:
    """Figures 25–27: CPU and memory allocation for random DB2 workloads."""
    sf10_queries = context.queries("db2", "tpch", 10.0)
    sf1_queries = context.queries("db2", "tpch", 1.0)
    workloads = random_multi_resource_workloads(
        sf10_queries, sf1_queries, count=max(workload_counts), seed=seed
    )
    engine_of = {w.name: "db2" for w in workloads}
    benchmark_of = {w.name: "tpch" for w in workloads}
    scale_of = {}
    for workload in workloads:
        statement_names = {stmt.query.name for stmt in workload.statements}
        scale_of[workload.name] = 1.0 if statement_names == {"q18"} else 10.0
    return _allocation_experiment(
        context,
        figure="fig25_27",
        engine_of=engine_of,
        benchmark_of=benchmark_of,
        scale_of=scale_of,
        workloads=workloads,
        workload_counts=workload_counts,
        multi_resource=True,
        compute_optimal=compute_optimal,
        optimal_delta=optimal_delta,
    )
