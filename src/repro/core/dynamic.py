"""Dynamic configuration management (Section 6 of the paper).

Online refinement corrects optimizer errors for a *fixed* workload.  When
the workloads themselves change at run time — more clients, new queries, or
workloads migrating between virtual machines — the advisor must decide, at
the end of every monitoring period, whether its refined cost models are
still valid:

* a **major** change (relative change in average estimated cost per query
  above θ = 10%) discards the refined model and restarts cost modelling from
  the query optimizer's estimates, applying one refinement step with the
  cost observed after the change;
* a **minor** change keeps refining the existing model, unless refinement
  had not yet converged and the relative modeling error ``E_ip`` is large
  and growing, in which case the model is conservatively discarded as well;
* changes in workload *intensity* only are absorbed by additional refinement
  iterations (they scale the linear cost models up or down).

The manager also supports a "continuous online refinement" mode that treats
every change as minor; the paper uses it as the baseline that dynamic
management is compared against (Figures 35–36).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..exceptions import ConfigurationError, MonitoringError
from ..monitoring.monitor import (
    CHANGE_MAJOR,
    CHANGE_MINOR,
    DEFAULT_CHANGE_THRESHOLD,
    DEFAULT_ERROR_THRESHOLD,
    PeriodObservation,
    WorkloadMonitor,
)
from .cost_estimator import (
    ActualCostFunction,
    CostFunction,
    ModelCostFunction,
    WhatIfCostEstimator,
)
from .enumerator import GreedyConfigurationEnumerator
from .models import LinearCostModel
from .problem import (
    CPU,
    ConsolidatedWorkload,
    ResourceAllocation,
    VirtualizationDesignProblem,
)
from .refinement import _share_grid

#: Model actions reported per tenant and period.
ACTION_KEEP = "refine"
ACTION_DISCARD = "discard"


@dataclass(frozen=True)
class PeriodDecision:
    """The manager's decision at the end of one monitoring period."""

    period: int
    allocations: Tuple[ResourceAllocation, ...]
    observed_estimated_costs: Tuple[float, ...]
    observed_actual_costs: Tuple[float, ...]
    change_classes: Tuple[str, ...]
    model_actions: Tuple[str, ...]


class DynamicConfigurationManager:
    """Reacts to run-time workload changes by re-allocating resources."""

    def __init__(
        self,
        base_problem: VirtualizationDesignProblem,
        enumerator: Optional[GreedyConfigurationEnumerator] = None,
        change_threshold: float = DEFAULT_CHANGE_THRESHOLD,
        error_threshold: float = DEFAULT_ERROR_THRESHOLD,
        always_refine: bool = False,
        actual_cost_factory: Optional[
            Callable[[VirtualizationDesignProblem], CostFunction]
        ] = None,
        estimator_factory: Optional[
            Callable[[VirtualizationDesignProblem], CostFunction]
        ] = None,
    ) -> None:
        if base_problem.resources != (CPU,):
            raise ConfigurationError(
                "dynamic configuration management currently controls CPU only, "
                "matching the paper's Section 7.10 experiment"
            )
        self.base_problem = base_problem
        self.enumerator = enumerator or GreedyConfigurationEnumerator()
        self.always_refine = always_refine
        self.actual_cost_factory = actual_cost_factory or ActualCostFunction
        # The what-if estimator is also pluggable so callers (notably trace
        # replay) can route every period's estimates through a shared cost
        # cache: a repeated replay then re-evaluates nothing.
        self.estimator_factory = estimator_factory or WhatIfCostEstimator
        self._monitors = [
            WorkloadMonitor(
                tenant.name,
                change_threshold=change_threshold,
                error_threshold=error_threshold,
            )
            for tenant in base_problem.tenants
        ]
        self._models: Dict[int, Optional[LinearCostModel]] = {}
        self._observations: Dict[int, List[Tuple[float, float]]] = {
            index: [] for index in range(base_problem.n_workloads)
        }
        self._current: Optional[Tuple[ResourceAllocation, ...]] = None
        self._converged = False
        self._period = 0

    # ------------------------------------------------------------------
    # Model helpers
    # ------------------------------------------------------------------
    def _fit_model_from_estimator(
        self,
        problem: VirtualizationDesignProblem,
        estimator: CostFunction,
        tenant_index: int,
    ) -> LinearCostModel:
        points = []
        for share in _share_grid(self.enumerator.delta, self.enumerator.min_share):
            allocation = problem.make_allocation(share)
            points.append((share, estimator.cost(tenant_index, allocation)))
        return LinearCostModel.fit(points, resource=CPU)

    def _refine_model(
        self,
        tenant_index: int,
        model: LinearCostModel,
        share: float,
        estimated: float,
        actual: float,
    ) -> LinearCostModel:
        observations = self._observations[tenant_index]
        observations.append((share, actual))
        distinct = {round(s, 6) for s, _ in observations}
        if len(distinct) >= 2:
            return LinearCostModel.fit(observations, resource=CPU)
        if estimated <= 0:
            return model
        return model.scaled(actual / estimated)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def initial_recommendation(self) -> Tuple[ResourceAllocation, ...]:
        """Make the initial static recommendation for the base workloads."""
        estimator = self.estimator_factory(self.base_problem)
        result = self.enumerator.enumerate(self.base_problem, estimator)
        self._current = result.allocations
        for index in range(self.base_problem.n_workloads):
            self._models[index] = self._fit_model_from_estimator(
                self.base_problem, estimator, index
            )
            self._observations[index] = []
        self._converged = False
        return self._current

    @property
    def current_allocations(self) -> Tuple[ResourceAllocation, ...]:
        """The allocation currently in force."""
        if self._current is None:
            raise MonitoringError(
                "call initial_recommendation() before processing monitoring periods"
            )
        return self._current

    def process_period(
        self, tenants: Sequence[ConsolidatedWorkload]
    ) -> PeriodDecision:
        """Process one monitoring period and decide the next allocation.

        ``tenants`` describes what each virtual machine actually served
        during the period (the workload may have changed, including moving
        to a different database/engine, in which case the caller supplies
        the matching calibration).
        """
        if self._current is None:
            self.initial_recommendation()
        assert self._current is not None
        if len(tenants) != self.base_problem.n_workloads:
            raise MonitoringError(
                f"expected {self.base_problem.n_workloads} tenants, got {len(tenants)}"
            )
        self._period += 1
        problem = self.base_problem.with_tenants(tenants)
        estimator = self.estimator_factory(problem)
        actuals = self.actual_cost_factory(problem)

        estimated_costs: List[float] = []
        actual_costs: List[float] = []
        change_classes: List[str] = []
        model_actions: List[str] = []

        # The workload-change metric compares average *estimated* cost per
        # query between periods.  It is evaluated at the default equal-share
        # allocation so that re-allocations made by the manager itself do
        # not masquerade as workload changes.
        reference_allocation = problem.default_allocation()

        for index, tenant in enumerate(tenants):
            allocation = self._current[index]
            model = self._models.get(index)
            if model is not None:
                estimated = max(1e-12, model.cost(allocation))
            else:
                estimated = estimator.cost(index, allocation)
            actual = actuals.cost(index, allocation)
            statement_count = max(1.0, tenant.workload.statement_count)
            average_query_cost = (
                estimator.cost(index, reference_allocation[index]) / statement_count
            )
            self._monitors[index].record(
                PeriodObservation(
                    period=self._period,
                    workload=tenant.workload,
                    allocation=allocation,
                    estimated_cost=estimated,
                    actual_cost=actual,
                    average_query_cost=average_query_cost,
                )
            )
            change = self._monitors[index].change_classification()
            action = self._decide_action(index, change)
            if action == ACTION_DISCARD:
                # Restart cost modelling from the optimizer's view of the new
                # workload, then apply one refinement step with the cost
                # observed after the change.
                fresh = self._fit_model_from_estimator(problem, estimator, index)
                self._observations[index] = []
                fresh_estimate = max(1e-12, fresh.cost(allocation))
                self._models[index] = self._refine_model(
                    index, fresh, allocation.get(CPU), fresh_estimate, actual
                )
            else:
                self._models[index] = self._refine_model(
                    index, model if model is not None else self._fit_model_from_estimator(
                        problem, estimator, index
                    ),
                    allocation.get(CPU), estimated, actual,
                )
            estimated_costs.append(estimated)
            actual_costs.append(actual)
            change_classes.append(change)
            model_actions.append(action)

        refined_costs = ModelCostFunction(problem, self._models, fallback=estimator)
        next_result = self.enumerator.enumerate(problem, refined_costs)
        self._converged = next_result.allocations == self._current
        self._current = next_result.allocations

        return PeriodDecision(
            period=self._period,
            allocations=self._current,
            observed_estimated_costs=tuple(estimated_costs),
            observed_actual_costs=tuple(actual_costs),
            change_classes=tuple(change_classes),
            model_actions=tuple(model_actions),
        )

    # ------------------------------------------------------------------
    # Decision rules (Section 6.2)
    # ------------------------------------------------------------------
    def _decide_action(self, tenant_index: int, change: str) -> str:
        if self.always_refine:
            return ACTION_KEEP
        if change == CHANGE_MAJOR:
            return ACTION_DISCARD
        if change == CHANGE_MINOR and not self._converged:
            if self._monitors[tenant_index].refinement_can_continue():
                return ACTION_KEEP
            return ACTION_DISCARD
        return ACTION_KEEP
