"""Shared experiment context.

Building an experiment requires the same ingredients every time: a physical
machine, calibrated PostgreSQL and DB2 engines for the TPC-H and TPC-C
databases at the scale factors the paper uses, and the query/transaction
templates.  :class:`ExperimentContext` builds them once (lazily) and caches
them so a benchmark run does not recalibrate for every figure.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..api.advisor import Advisor
from ..api.builder import ProblemBuilder
from ..api.report import RecommendationReport
from ..calibration import CalibrationSettings
from ..calibration.calibrator import EngineCalibration
from ..core.cost_estimator import CostFunction
from ..core.enumerator import DynamicProgrammingSearch
from ..core.problem import (
    CPU,
    ConsolidatedWorkload,
    FIXED_MEMORY_FRACTION_512MB,
    MEMORY,
    ResourceAllocation,
    UNLIMITED_DEGRADATION,
    VirtualizationDesignProblem,
)
from ..dbms.catalog import Database
from ..dbms.interface import DatabaseEngine
from ..dbms.query import QuerySpec
from ..exceptions import OptimizationError
from ..monitoring.metrics import improvement_over_default
from ..virt.machine import PhysicalMachine
from ..workloads.workload import Workload

#: Default calibration grid used by the experiments; a moderately coarse
#: grid keeps the one-time calibration cheap, as in the paper.
DEFAULT_CALIBRATION_SETTINGS = CalibrationSettings(
    cpu_shares=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
)

# FIXED_MEMORY_FRACTION_512MB is canonical in repro.core.problem (shared
# with the trace replayer) and re-exported here for the experiment modules.


class ExperimentContext:
    """Lazily built, cached engines, calibrations, and query templates.

    The infrastructure caching (databases, engines, calibrations, query
    templates per ``(engine, benchmark, scale)`` spec) is delegated to a
    :class:`~repro.api.builder.ProblemBuilder`, so the experiment harness
    and the public API share one implementation.
    """

    def __init__(
        self,
        machine: Optional[PhysicalMachine] = None,
        calibration_settings: Optional[CalibrationSettings] = None,
        advisor_delta: float = 0.05,
    ) -> None:
        self.machine = machine or PhysicalMachine()
        self.calibration_settings = calibration_settings or DEFAULT_CALIBRATION_SETTINGS
        # The unified advisor service: its shared cost cache lets repeated
        # sweeps over re-built problems (same workloads and calibrations)
        # answer previously seen what-if questions without re-invoking the
        # simulated optimizers.
        self.advisor = Advisor(delta=advisor_delta)
        self._builder = ProblemBuilder(
            machine=self.machine, calibration_settings=self.calibration_settings
        )

    # ------------------------------------------------------------------
    # Engine / calibration factories (delegated to the builder)
    # ------------------------------------------------------------------
    @property
    def builder(self) -> ProblemBuilder:
        """The context's problem builder (shared calibration caches)."""
        return self._builder

    def database(self, engine: str, benchmark: str, scale: float) -> Database:
        """The (cached) database catalog for one engine/benchmark/scale."""
        return self._builder.database(engine, benchmark, scale)

    def engine(self, engine: str, benchmark: str, scale: float) -> DatabaseEngine:
        """The (cached) engine instance for one engine/benchmark/scale."""
        return self._builder.engine(engine, benchmark, scale)

    def calibration(self, engine: str, benchmark: str, scale: float) -> EngineCalibration:
        """The (cached) calibration of one engine on the shared machine."""
        return self._builder.calibration(engine, benchmark, scale)

    def queries(self, engine: str, benchmark: str, scale: float) -> Dict[str, QuerySpec]:
        """The (cached) query/transaction templates for one database."""
        return self._builder.queries(engine, benchmark, scale)

    # ------------------------------------------------------------------
    # Problem construction
    # ------------------------------------------------------------------
    def tenant(
        self,
        workload: Workload,
        engine: str,
        benchmark: str = "tpch",
        scale: float = 1.0,
        degradation_limit: float = UNLIMITED_DEGRADATION,
        gain_factor: float = 1.0,
    ) -> ConsolidatedWorkload:
        """Wrap a workload with its calibrated engine and QoS settings."""
        return ConsolidatedWorkload(
            workload=workload,
            calibration=self.calibration(engine, benchmark, scale),
            degradation_limit=degradation_limit,
            gain_factor=gain_factor,
        )

    def cpu_only_problem(
        self,
        tenants: Sequence[ConsolidatedWorkload],
        fixed_memory_fraction: float = FIXED_MEMORY_FRACTION_512MB,
    ) -> VirtualizationDesignProblem:
        """A problem in which only CPU is allocated (memory fixed per VM)."""
        return VirtualizationDesignProblem(
            tenants=tuple(tenants),
            resources=(CPU,),
            fixed_memory_fraction=fixed_memory_fraction,
        )

    def multi_resource_problem(
        self, tenants: Sequence[ConsolidatedWorkload]
    ) -> VirtualizationDesignProblem:
        """A problem in which both CPU and memory are allocated."""
        return VirtualizationDesignProblem(
            tenants=tuple(tenants), resources=(CPU, MEMORY)
        )

    # ------------------------------------------------------------------
    # Measurement helpers
    # ------------------------------------------------------------------
    def estimator(self, problem: VirtualizationDesignProblem):
        """A what-if cost estimator for a problem.

        Served through the advisor's shared cost cache, so estimates made
        for one sweep step are reused by later steps that re-build problems
        around the same workloads and calibrations.
        """
        return self.advisor.cost_function(problem, "what-if")

    def actuals(self, problem: VirtualizationDesignProblem):
        """A ground-truth cost function for a problem (shared-cache backed)."""
        return self.advisor.cost_function(problem, "actual")

    def recommend(self, problem: VirtualizationDesignProblem) -> RecommendationReport:
        """Run the advisor's static recommendation for a problem."""
        return self.advisor.recommend(problem)

    def measured_improvement(
        self,
        problem: VirtualizationDesignProblem,
        allocations: Tuple[ResourceAllocation, ...],
        actuals: Optional[CostFunction] = None,
    ) -> float:
        """Actual improvement of ``allocations`` over the default allocation."""
        actuals = actuals or self.actuals(problem)
        return improvement_over_default(problem, allocations, actuals)

    def best_effort_optimal(
        self,
        problem: VirtualizationDesignProblem,
        cost_function: CostFunction,
        delta: float = 0.05,
    ) -> Tuple[ResourceAllocation, ...]:
        """The best allocation found by optimal grid search, if feasible.

        Computes the exact grid optimum with the dynamic program of
        :class:`~repro.core.enumerator.DynamicProgrammingSearch`, which has
        no combination budget, so the figure benchmarks get the true
        baseline at the requested ``delta``.  If no grid is feasible the
        method falls back to greedy search over the same cost function
        (which Section 4.5 shows to be within a few percent of optimal).
        """
        for grid in (delta, 0.1, 0.2):
            if round(1.0 / grid) < 2 * problem.n_workloads:
                # Too coarse: some workload would be starved of a resource
                # entirely, which is never the optimal configuration.
                continue
            try:
                search = DynamicProgrammingSearch(delta=grid, min_share=grid)
                return search.search(problem, cost_function).allocations
            except OptimizationError:
                continue
        return self.advisor.enumerator.enumerate(problem, cost_function).allocations
