"""Online refinement of the advisor's cost models (Section 5 of the paper).

The calibrated query optimizer is a good but imperfect cost model.  After
the recommended configuration is deployed, the advisor observes the actual
workload execution times, refines its cost models with them, and re-runs the
configuration search, iterating until the recommendation stabilizes.

Two refinement procedures are provided:

* :class:`BasicOnlineRefinement` — for problems that allocate a single
  resource.  CPU uses the linear model ``alpha/r + beta``; memory uses the
  piecewise-linear model whose intervals correspond to plan changes.
* :class:`GeneralizedOnlineRefinement` — for CPU + memory, using the
  multi-resource model of Section 5.2 (linear in every resource, piecewise
  in memory).

Both follow the paper's refinement heuristics: scale the model by
``Act/Est`` while observations are scarce, then switch to regression over
the observed costs alone; stop when a re-run of the advisor reproduces the
same recommendation or the iteration bound is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import RefinementError
from .cost_estimator import CostFunction, ModelCostFunction, WhatIfCostEstimator
from .enumerator import EnumerationResult, GreedyConfigurationEnumerator
from .models import (
    AllocationInterval,
    LinearCostModel,
    MultiResourceCostModel,
    PiecewiseLinearCostModel,
)
from .problem import CPU, MEMORY, ResourceAllocation, VirtualizationDesignProblem

#: Default bound on refinement iterations (the paper reports convergence in
#: one to five iterations; the bound guarantees termination).
DEFAULT_MAX_ITERATIONS = 8

#: Allocations are compared at this granularity when testing convergence.
_ALLOCATION_DECIMALS = 4


@dataclass(frozen=True)
class RefinementIteration:
    """One iteration of online refinement."""

    iteration: int
    allocations: Tuple[ResourceAllocation, ...]
    estimated_costs: Tuple[float, ...]
    actual_costs: Tuple[float, ...]
    scale_factors: Tuple[float, ...]


@dataclass
class RefinementResult:
    """Outcome of an online refinement run."""

    initial: EnumerationResult
    iterations: List[RefinementIteration] = field(default_factory=list)
    final_allocations: Tuple[ResourceAllocation, ...] = ()
    converged: bool = False

    @property
    def iteration_count(self) -> int:
        """Number of refinement iterations performed."""
        return len(self.iterations)


def _allocations_equal(
    first: Sequence[ResourceAllocation], second: Sequence[ResourceAllocation]
) -> bool:
    if len(first) != len(second):
        return False
    for a, b in zip(first, second):
        if round(a.cpu_share, _ALLOCATION_DECIMALS) != round(b.cpu_share, _ALLOCATION_DECIMALS):
            return False
        if round(a.memory_fraction, _ALLOCATION_DECIMALS) != round(
            b.memory_fraction, _ALLOCATION_DECIMALS
        ):
            return False
    return True


def _share_grid(delta: float, minimum: float) -> List[float]:
    """Allocation levels visited when sampling the optimizer cost model."""
    steps = round(1.0 / delta)
    shares = []
    for step in range(1, steps + 1):
        share = step * delta
        if share >= minimum - 1e-12:
            shares.append(round(share, 6))
    return shares


class _OnlineRefinementBase:
    """Shared plumbing of the two refinement procedures."""

    def __init__(
        self,
        problem: VirtualizationDesignProblem,
        estimator: WhatIfCostEstimator,
        actual_costs: CostFunction,
        enumerator: Optional[GreedyConfigurationEnumerator] = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        if max_iterations <= 0:
            raise RefinementError("max_iterations must be positive")
        self.problem = problem
        self.estimator = estimator
        self.actual_costs = actual_costs
        self.enumerator = enumerator or GreedyConfigurationEnumerator()
        self.max_iterations = max_iterations

    # The subclasses provide model construction and per-iteration updates.
    def _initial_models(self) -> Dict[int, object]:  # pragma: no cover - abstract
        raise NotImplementedError

    def _update_model(
        self,
        tenant_index: int,
        model: object,
        allocation: ResourceAllocation,
        estimated: float,
        actual: float,
        iteration: int,
    ) -> object:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self, initial: Optional[EnumerationResult] = None) -> RefinementResult:
        """Run online refinement starting from an initial recommendation."""
        if initial is None:
            initial = self.enumerator.enumerate(self.problem, self.estimator)
        models = self._initial_models()
        result = RefinementResult(initial=initial)
        current = initial.allocations

        for iteration in range(1, self.max_iterations + 1):
            estimated: List[float] = []
            actual: List[float] = []
            factors: List[float] = []
            for index in range(self.problem.n_workloads):
                model = models[index]
                est = max(1e-12, float(model.cost(current[index])))
                act = self.actual_costs.cost(index, current[index])
                factor = act / est
                models[index] = self._update_model(
                    index, model, current[index], est, act, iteration
                )
                estimated.append(est)
                actual.append(act)
                factors.append(factor)
            result.iterations.append(
                RefinementIteration(
                    iteration=iteration,
                    allocations=tuple(current),
                    estimated_costs=tuple(estimated),
                    actual_costs=tuple(actual),
                    scale_factors=tuple(factors),
                )
            )
            refined_costs = ModelCostFunction(self.problem, models, fallback=self.estimator)
            refined = self.enumerator.enumerate(self.problem, refined_costs)
            if _allocations_equal(refined.allocations, current):
                result.final_allocations = tuple(current)
                result.converged = True
                return result
            current = refined.allocations

        result.final_allocations = tuple(current)
        result.converged = False
        return result


class BasicOnlineRefinement(_OnlineRefinementBase):
    """Online refinement for problems that allocate a single resource.

    CPU-only problems use a linear model; memory-only problems use a
    piecewise-linear model whose intervals are derived from the plan
    signatures the optimizer produced at different memory levels.
    """

    def __init__(
        self,
        problem: VirtualizationDesignProblem,
        estimator: WhatIfCostEstimator,
        actual_costs: CostFunction,
        enumerator: Optional[GreedyConfigurationEnumerator] = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
    ) -> None:
        super().__init__(problem, estimator, actual_costs, enumerator, max_iterations)
        if len(problem.resources) != 1:
            raise RefinementError(
                "BasicOnlineRefinement handles exactly one controlled resource; "
                "use GeneralizedOnlineRefinement for multiple resources"
            )
        self.resource = problem.resources[0]
        self._observations: Dict[int, List[Tuple[float, float]]] = {
            index: [] for index in range(problem.n_workloads)
        }

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def _sample_points(self, tenant_index: int) -> List[Tuple[float, float, str]]:
        delta = self.enumerator.delta
        minimum = self.enumerator.min_share
        tenant = self.problem.tenant(tenant_index)
        points = []
        for share in _share_grid(delta, minimum):
            allocation = self._allocation_for(share)
            cost = self.estimator.cost(tenant_index, allocation)
            signature = self._workload_signature(tenant, allocation)
            points.append((share, cost, signature))
        return points

    def _allocation_for(self, share: float) -> ResourceAllocation:
        if self.resource == CPU:
            return self.problem.make_allocation(share)
        # Memory-only problems keep CPU at the default equal share, which is
        # also the level the greedy enumeration holds CPU at.
        fixed_cpu = 1.0 / self.problem.n_workloads
        return ResourceAllocation(cpu_share=fixed_cpu, memory_fraction=share)

    def _workload_signature(self, tenant, allocation: ResourceAllocation) -> str:
        signatures = [
            tenant.calibration.plan_signature(
                query, allocation.cpu_share, allocation.memory_fraction
            )
            for query in tenant.workload.queries()
        ]
        return "|".join(signatures)

    def _initial_models(self) -> Dict[int, object]:
        models: Dict[int, object] = {}
        for index in range(self.problem.n_workloads):
            samples = self._sample_points(index)
            if self.resource == CPU:
                points = [(share, cost) for share, cost, _ in samples]
                models[index] = LinearCostModel.fit(points, resource=CPU)
            else:
                models[index] = PiecewiseLinearCostModel.from_signature_samples(
                    samples, resource=MEMORY
                )
        return models

    # ------------------------------------------------------------------
    # Per-iteration refinement
    # ------------------------------------------------------------------
    def _update_model(
        self,
        tenant_index: int,
        model: object,
        allocation: ResourceAllocation,
        estimated: float,
        actual: float,
        iteration: int,
    ) -> object:
        share = allocation.get(self.resource)
        self._observations[tenant_index].append((share, actual))
        observations = self._observations[tenant_index]
        factor = actual / estimated

        if isinstance(model, LinearCostModel):
            distinct_shares = {round(s, 6) for s, _ in observations}
            if len(distinct_shares) >= 2:
                # Enough observations: regress on actual costs only.
                return LinearCostModel.fit(observations, resource=self.resource)
            return model.scaled(factor)

        if isinstance(model, PiecewiseLinearCostModel):
            if iteration == 1:
                model.scale_all(factor)
                return model
            index = model.reassign_boundary(share, actual)
            in_interval = [
                (s, cost)
                for s, cost in observations
                if model.intervals[index].contains(s)
            ]
            distinct = {round(s, 6) for s, _ in in_interval}
            if len(distinct) >= 2:
                model.refit_interval(index, in_interval)
            else:
                model.scale_interval(index, factor)
            return model

        raise RefinementError(f"unsupported model type {type(model).__name__}")


class GeneralizedOnlineRefinement(_OnlineRefinementBase):
    """Online refinement for CPU + memory (Section 5.2)."""

    def __init__(
        self,
        problem: VirtualizationDesignProblem,
        estimator: WhatIfCostEstimator,
        actual_costs: CostFunction,
        enumerator: Optional[GreedyConfigurationEnumerator] = None,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        cpu_sample_shares: Tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    ) -> None:
        super().__init__(problem, estimator, actual_costs, enumerator, max_iterations)
        if not problem.controls_memory or CPU not in problem.resources:
            raise RefinementError(
                "GeneralizedOnlineRefinement requires both CPU and memory to be "
                "controlled resources"
            )
        self.cpu_sample_shares = cpu_sample_shares
        self._observations: Dict[int, Dict[int, List[Tuple[ResourceAllocation, float]]]] = {
            index: {} for index in range(problem.n_workloads)
        }
        self._all_observations: Dict[int, List[Tuple[ResourceAllocation, float]]] = {
            index: [] for index in range(problem.n_workloads)
        }

    def _workload_signature(self, tenant, allocation: ResourceAllocation) -> str:
        signatures = [
            tenant.calibration.plan_signature(
                query, allocation.cpu_share, allocation.memory_fraction
            )
            for query in tenant.workload.queries()
        ]
        return "|".join(signatures)

    def _initial_models(self) -> Dict[int, object]:
        delta = self.enumerator.delta
        minimum = self.enumerator.min_share
        memory_grid = _share_grid(delta, minimum)
        models: Dict[int, object] = {}
        for index in range(self.problem.n_workloads):
            tenant = self.problem.tenant(index)
            samples = []
            for memory_fraction in memory_grid:
                for cpu_share in self.cpu_sample_shares:
                    allocation = ResourceAllocation(
                        cpu_share=cpu_share, memory_fraction=memory_fraction
                    )
                    cost = self.estimator.cost(index, allocation)
                    signature = self._workload_signature(tenant, allocation)
                    samples.append((allocation, cost, signature))
            models[index] = MultiResourceCostModel.from_samples(samples)
        return models

    def _update_model(
        self,
        tenant_index: int,
        model: object,
        allocation: ResourceAllocation,
        estimated: float,
        actual: float,
        iteration: int,
    ) -> object:
        if not isinstance(model, MultiResourceCostModel):
            raise RefinementError(f"unsupported model type {type(model).__name__}")
        factor = actual / estimated
        interval = model.interval_index(allocation)
        per_interval = self._observations[tenant_index].setdefault(interval, [])
        per_interval.append((allocation, actual))
        self._all_observations[tenant_index].append((allocation, actual))

        n_resources = len(model.resources)
        if iteration == 1:
            # The first iteration scales every interval: the estimation bias
            # is assumed to be present in all of them.
            model.scale_all(factor)
            return model
        # Once enough actual observations have accumulated (more than the
        # number of resources, spanning more than one allocation level of
        # the piecewise resource), stop relying on the optimizer estimates
        # and fit the cost model to the observed costs alone.
        all_observations = self._all_observations[tenant_index]
        if len(all_observations) > n_resources and self._observation_spread(
            all_observations, model.piecewise_resource
        ):
            return self._fit_observed_model(model, all_observations)
        if len(per_interval) > n_resources and self._has_feature_variation(
            model, per_interval
        ):
            model.refit_interval(interval, per_interval)
        else:
            model.scale_interval(interval, factor)
        return model

    @staticmethod
    def _observation_spread(
        observations: Sequence[Tuple[ResourceAllocation, float]], resource: str
    ) -> bool:
        """Whether the observations cover at least two levels of a resource."""
        values = {round(allocation.get(resource), 6) for allocation, _ in observations}
        return len(values) >= 2

    @staticmethod
    def _has_feature_variation(
        model: MultiResourceCostModel,
        observations: Sequence[Tuple[ResourceAllocation, float]],
    ) -> bool:
        """Whether the observations vary in every resource dimension.

        Fitting the multi-dimensional regression from observations that all
        share (say) the same CPU allocation would be ill-conditioned; in
        that case refinement keeps using the ``Act/Est`` scaling rule, which
        is the paper's behaviour while observations are scarce.
        """
        for resource in model.resources:
            values = {round(allocation.get(resource), 6) for allocation, _ in observations}
            if len(values) < 2:
                return False
        return True

    def _fit_observed_model(
        self,
        model: MultiResourceCostModel,
        observations: Sequence[Tuple[ResourceAllocation, float]],
    ) -> MultiResourceCostModel:
        """Fit a single-interval model to the observed costs alone.

        Resources whose allocation never varied across the observations keep
        their coefficient from the current (scaled) model; the remaining
        coefficients come from a least-squares fit of the observed costs.
        Coefficients are clamped to be non-negative so that more of a
        resource is never predicted to hurt.
        """
        from ..calibration.regression import fit_linear, fit_multilinear

        current_interval = model.interval_index(observations[-1][0])
        current_alphas = list(model.alphas[current_interval])
        varying = [
            index
            for index, resource in enumerate(model.resources)
            if len({round(a.get(resource), 6) for a, _ in observations}) >= 2
        ]
        fixed = [i for i in range(len(model.resources)) if i not in varying]

        costs = [cost for _, cost in observations]
        # Subtract the contribution of the non-varying resources before
        # fitting the varying ones.
        adjusted = []
        for (allocation, cost) in observations:
            residual = cost
            for index in fixed:
                residual -= current_alphas[index] / allocation.get(model.resources[index])
            adjusted.append(residual)

        new_alphas = list(current_alphas)
        if len(varying) == 1:
            resource = model.resources[varying[0]]
            fit = fit_linear(
                [1.0 / allocation.get(resource) for allocation, _ in observations],
                adjusted,
            )
            new_alphas[varying[0]] = max(0.0, fit.slope)
            intercept = fit.intercept
        else:
            features = [
                [1.0 / allocation.get(model.resources[index]) for index in varying]
                for allocation, _ in observations
            ]
            fit = fit_multilinear(features, adjusted)
            for position, index in enumerate(varying):
                new_alphas[index] = max(0.0, fit.coefficients[position])
            intercept = fit.intercept

        return MultiResourceCostModel(
            intervals=[AllocationInterval(lower=0.0, upper=1.0, signature="observed")],
            alphas=[tuple(new_alphas)],
            betas=[max(0.0, intercept)],
            resources=model.resources,
        )
