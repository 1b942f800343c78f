"""Online-refinement experiments (Figures 28–34 of the paper).

Two situations expose query-optimizer modeling errors that make the initial
recommendations poor:

* mixed TPC-C + TPC-H consolidations, where the optimizer underestimates the
  CPU needs of the OLTP workloads because it does not model contention,
  logging, or update overheads (Figures 28–31), and
* DB2 TPC-H workloads containing queries whose benefit from a larger sort
  heap the optimizer underestimates (Figures 32–34).

In both cases online refinement observes the actual execution times,
rescales / refits the advisor's cost models, and re-runs the search,
recovering most of the lost improvement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.problem import ResourceAllocation, VirtualizationDesignProblem
from ..core.refinement import BasicOnlineRefinement, GeneralizedOnlineRefinement
from ..workloads.generator import random_mixed_workloads, sortheap_sensitive_workloads
from ..workloads.workload import Workload
from .harness import ExperimentContext


@dataclass(frozen=True)
class RefinementPoint:
    """Refinement outcome for one number of consolidated workloads."""

    n_workloads: int
    improvement_before: float
    improvement_after: float
    refinement_iterations: int
    allocations_before: Tuple[ResourceAllocation, ...]
    allocations_after: Tuple[ResourceAllocation, ...]


@dataclass(frozen=True)
class RefinementExperimentResult:
    """Result of one refinement experiment (Figures 28–31 or 32–34)."""

    figure: str
    engine: str
    points: Tuple[RefinementPoint, ...]

    def improvements_before(self) -> List[float]:
        """Actual improvement before refinement, per workload count."""
        return [point.improvement_before for point in self.points]

    def improvements_after(self) -> List[float]:
        """Actual improvement after refinement, per workload count."""
        return [point.improvement_after for point in self.points]


def _run_refinement(
    context: ExperimentContext,
    figure: str,
    engine: str,
    problems: Dict[int, VirtualizationDesignProblem],
    multi_resource: bool,
    max_iterations: int = 5,
) -> RefinementExperimentResult:
    points = []
    for n, problem in sorted(problems.items()):
        estimator = context.estimator(problem)
        actuals = context.actuals(problem)
        initial = context.advisor.enumerator.enumerate(problem, estimator)
        improvement_before = context.measured_improvement(
            problem, initial.allocations, actuals
        )
        if multi_resource:
            refinement = GeneralizedOnlineRefinement(
                problem, estimator, actuals,
                enumerator=context.advisor.enumerator,
                max_iterations=max_iterations,
            )
        else:
            refinement = BasicOnlineRefinement(
                problem, estimator, actuals,
                enumerator=context.advisor.enumerator,
                max_iterations=max_iterations,
            )
        result = refinement.run(initial=initial)
        improvement_after = context.measured_improvement(
            problem, result.final_allocations, actuals
        )
        points.append(
            RefinementPoint(
                n_workloads=n,
                improvement_before=improvement_before,
                improvement_after=improvement_after,
                refinement_iterations=result.iteration_count,
                allocations_before=initial.allocations,
                allocations_after=result.final_allocations,
            )
        )
    return RefinementExperimentResult(figure=figure, engine=engine, points=tuple(points))


# ----------------------------------------------------------------------
# Figures 28–31: online refinement for CPU with TPC-C + TPC-H mixes
# ----------------------------------------------------------------------
def tpcc_tpch_refinement_experiment(
    context: ExperimentContext,
    engine: str,
    workload_counts: Sequence[int] = (2, 4, 6, 8, 10),
    seed: int = 11,
    warehouses: int = 10,
    max_iterations: int = 5,
) -> RefinementExperimentResult:
    """Figures 28–31: CPU-only refinement of mixed OLTP/DSS consolidations."""
    sf1_queries = context.queries(engine, "tpch", 1.0)
    sf10_queries = context.queries(engine, "tpch", 10.0)
    transactions = context.queries(engine, "tpcc", warehouses)
    workloads = random_mixed_workloads(sf1_queries, sf10_queries, transactions, seed=seed)

    def tenant_for(workload: Workload):
        if workload.name.startswith("tpcc"):
            return context.tenant(workload, engine, "tpcc", warehouses)
        if workload.name.startswith("tpch10"):
            return context.tenant(workload, engine, "tpch", 10.0)
        return context.tenant(workload, engine, "tpch", 1.0)

    problems = {
        n: context.cpu_only_problem([tenant_for(w) for w in workloads[:n]])
        for n in workload_counts
    }
    figure = "fig28_30" if engine == "db2" else "fig29_31"
    return _run_refinement(
        context, figure, engine, problems, multi_resource=False,
        max_iterations=max_iterations,
    )


# ----------------------------------------------------------------------
# Figures 32–34: online refinement for CPU and memory (DB2 sort heap)
# ----------------------------------------------------------------------
def sortheap_refinement_experiment(
    context: ExperimentContext,
    workload_counts: Sequence[int] = (2, 4, 6, 8, 10),
    seed: int = 17,
    scale: float = 10.0,
    max_iterations: int = 5,
) -> RefinementExperimentResult:
    """Figures 32–34: multi-resource refinement of sortheap-sensitive workloads."""
    queries = context.queries("db2", "tpch", scale)
    workloads = sortheap_sensitive_workloads(queries, count=max(workload_counts), seed=seed)
    problems = {
        n: context.multi_resource_problem(
            [context.tenant(w, "db2", "tpch", scale) for w in workloads[:n]]
        )
        for n in workload_counts
    }
    return _run_refinement(
        context, "fig32_34", "db2", problems, multi_resource=True,
        max_iterations=max_iterations,
    )
