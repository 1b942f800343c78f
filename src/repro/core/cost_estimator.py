"""Cost functions used by the configuration enumerator.

The enumerator only needs one thing: ``cost(tenant_index, allocation)`` in
seconds.  Three implementations are provided:

* :class:`WhatIfCostEstimator` — the paper's primary mechanism: the
  calibrated query optimizer in what-if mode (Section 4.1).
* :class:`ModelCostFunction` — wraps the linear / piecewise-linear /
  multi-resource cost models produced by online refinement (Section 5), so
  the advisor can be re-run against refined models without calling the
  optimizer again.
* :class:`ActualCostFunction` — "runs" the workload with the ground-truth
  execution model; the experiments use it both to observe actual costs and
  to find the true optimal allocation by exhaustive search.

None of them caches: every call evaluates.  Repeated what-if questions are
answered once, by :class:`repro.api.cache.CachedCostFunction` over a shared
:class:`repro.api.cache.CostCache`.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import List, Mapping, Optional, Sequence, Tuple

from ..dbms.execution import ExecutionModel
from ..exceptions import EstimationError
from ..virt.hypervisor import Hypervisor
from ..virt.vm import DEFAULT_OS_RESERVED_MB, VMEnvironment
from .problem import ResourceAllocation, VirtualizationDesignProblem

#: Allocation shares are rounded to this many decimals when used as cache
#: keys, so that floating-point noise from repeated ±delta shifts does not
#: defeat the cache.
_CACHE_DECIMALS = 6


def quantize_shares(cpu_share: float, memory_fraction: float) -> Tuple[float, float]:
    """A ``(cpu, memory)`` share pair rounded to cache-key precision.

    The one rounding rule: :func:`quantize_allocation` and the cost cache's
    keys (:class:`repro.api.cache.CostCache`) both round through it.
    """
    return round(cpu_share, _CACHE_DECIMALS), round(memory_fraction, _CACHE_DECIMALS)


def quantize_allocation(allocation: ResourceAllocation) -> ResourceAllocation:
    """The allocation rounded to cache-key precision.

    Every cost function evaluates the *quantized* allocation, so a cost
    value is a pure function of the cache key it is stored under.  Without
    this, a cache could return the value of a ±1-ulp sibling allocation
    (keys round to :data:`_CACHE_DECIMALS`, raw floats carry ±delta
    arithmetic noise) and the low-order bits of an answer would depend on
    cache *history* — e.g. on whether an earlier solve warmed the cache,
    or on which parallel solver backend ran it.  Quantizing at the
    evaluation boundary makes cached and uncached runs bit-identical.
    """
    cpu, memory = quantize_shares(allocation.cpu_share, allocation.memory_fraction)
    if cpu == allocation.cpu_share and memory == allocation.memory_fraction:
        return allocation
    return ResourceAllocation(cpu_share=cpu, memory_fraction=memory)


class CostFunction(ABC):
    """``Cost(W_i, R_i)`` in seconds, for the tenants of one problem."""

    def __init__(self, problem: VirtualizationDesignProblem) -> None:
        self.problem = problem
        self.call_count = 0

    @abstractmethod
    def _cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        """Uncached cost of one tenant under one allocation."""

    def _cost_many(
        self, tenant_index: int, allocations: Sequence[ResourceAllocation]
    ) -> List[float]:
        """Uncached batch evaluation; subclasses override with a fused path."""
        return [self._cost(tenant_index, allocation) for allocation in allocations]

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        """Cost (seconds) of tenant ``tenant_index`` under ``allocation``."""
        if not 0 <= tenant_index < self.problem.n_workloads:
            raise EstimationError(f"tenant index {tenant_index} out of range")
        self.call_count += 1
        value = self._cost(tenant_index, quantize_allocation(allocation))
        if value < 0:
            raise EstimationError(
                f"cost function returned a negative cost ({value}) for tenant "
                f"{tenant_index}"
            )
        return value

    def cost_many(
        self, tenant_index: int, allocations: Sequence[ResourceAllocation]
    ) -> List[float]:
        """Costs of one tenant under many allocations, in one batched call.

        Equivalent to ``[cost(tenant_index, a) for a in allocations]`` —
        including ``call_count`` accounting, which increments once per
        allocation actually evaluated — but routed through the batch path,
        so a whole cost table is computed in one pass over the estimation
        machinery (statements materialized once, optimizer parameters built
        once per allocation, plans reused per engine configuration).
        """
        if not 0 <= tenant_index < self.problem.n_workloads:
            raise EstimationError(f"tenant index {tenant_index} out of range")
        allocations = [quantize_allocation(allocation) for allocation in allocations]
        self.call_count += len(allocations)
        values = self._cost_many(tenant_index, allocations)
        for value in values:
            if value < 0:
                raise EstimationError(
                    f"cost function returned a negative cost ({value}) for tenant "
                    f"{tenant_index}"
                )
        return values

    def cost_shares(
        self, tenant_index: int, shares: Sequence[Tuple[float, float]]
    ) -> List[float]:
        """Costs of one tenant at ``(cpu_share, memory_fraction)`` pairs.

        :meth:`cost_many` over the allocations the pairs name.  The greedy
        enumerator probes its moves as pairs;
        :class:`~repro.api.cache.CachedCostFunction` answers cached pairs
        without building an allocation.
        """
        return self.cost_many(
            tenant_index,
            [ResourceAllocation(cpu, memory) for cpu, memory in shares],
        )

    def weighted_cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        """Gain-weighted cost ``G_i * Cost(W_i, R_i)``."""
        gain = self.problem.tenant(tenant_index).gain_factor
        return gain * self.cost(tenant_index, allocation)

    def total_cost(self, allocations) -> float:
        """Total (unweighted) cost of a complete set of allocations."""
        return sum(
            self.cost(index, allocation) for index, allocation in enumerate(allocations)
        )

    def total_weighted_cost(self, allocations) -> float:
        """Total gain-weighted cost of a complete set of allocations."""
        return sum(
            self.weighted_cost(index, allocation)
            for index, allocation in enumerate(allocations)
        )

    def full_allocation_cost(self, tenant_index: int) -> float:
        """Cost of a tenant when it owns the whole machine (degradation base)."""
        return self.cost(tenant_index, self.problem.full_allocation())

    def degradation(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        """``Cost(W_i, R_i) / Cost(W_i, [1, ..., 1])`` (Section 3)."""
        base = self.full_allocation_cost(tenant_index)
        if base <= 0:
            return 1.0
        return self.cost(tenant_index, allocation) / base


class WhatIfCostEstimator(CostFunction):
    """Cost estimation via the calibrated query optimizers (Section 4.1)."""

    def _cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        tenant = self.problem.tenant(tenant_index)
        return tenant.calibration.estimate_workload_seconds(
            tenant.workload.statement_pairs(),
            cpu_share=allocation.cpu_share,
            memory_fraction=allocation.memory_fraction,
        )

    def _cost_many(
        self, tenant_index: int, allocations: Sequence[ResourceAllocation]
    ) -> List[float]:
        tenant = self.problem.tenant(tenant_index)
        return tenant.calibration.estimate_workload_seconds_many(
            tenant.workload.statement_pairs(),
            [(a.cpu_share, a.memory_fraction) for a in allocations],
        )


class ModelCostFunction(CostFunction):
    """Cost function backed by per-tenant fitted cost models.

    ``models`` maps tenant index to an object with a
    ``cost(allocation) -> float`` method (the models of
    :mod:`repro.core.models`).  Tenants without a model fall back to the
    supplied base cost function (usually the what-if estimator).
    """

    #: Monotonic ids for cache namespaces; unlike ``id()``, never reused, so
    #: a shared cache cannot serve a freed instance's costs to a new one.
    _namespace_counter = itertools.count()

    def __init__(
        self,
        problem: VirtualizationDesignProblem,
        models: Mapping[int, "object"],
        fallback: Optional[CostFunction] = None,
    ) -> None:
        super().__init__(problem)
        self.models = dict(models)
        self.fallback = fallback
        self._cache_namespace = f"model-{next(self._namespace_counter)}"

    def _cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        model = self.models.get(tenant_index)
        if model is not None:
            return max(0.0, float(model.cost(allocation)))
        if self.fallback is not None:
            return self.fallback.cost(tenant_index, allocation)
        raise EstimationError(
            f"no cost model or fallback available for tenant {tenant_index}"
        )

    @property
    def cache_namespace(self) -> str:
        """Shared-cache namespace; per-instance because the models are."""
        return self._cache_namespace


class ActualCostFunction(CostFunction):
    """Ground-truth workload cost: the simulated "actual" execution time.

    This is what the paper measures by configuring the VMs as recommended
    and running the workloads (with the noisy-neighbour I/O VM present).
    """

    def __init__(
        self,
        problem: VirtualizationDesignProblem,
        io_contention_intensity: float = 1.0,
        os_reserved_mb: float = DEFAULT_OS_RESERVED_MB,
    ) -> None:
        super().__init__(problem)
        self.io_contention_intensity = io_contention_intensity
        self.os_reserved_mb = os_reserved_mb

    @property
    def cache_namespace(self) -> str:
        """Shared-cache namespace: the family plus its cost-relevant knobs."""
        return (
            f"actual:io={self.io_contention_intensity:g}"
            f":os={self.os_reserved_mb:g}"
        )

    def environment(self, allocation: ResourceAllocation) -> VMEnvironment:
        """The VM environment realized for a given allocation."""
        machine = self.problem.machine
        hypervisor = Hypervisor(machine)
        contention_memory_mb = 0.0
        if self.io_contention_intensity > 0:
            contention_memory_mb = 64.0
            hypervisor.create_contention_vm(
                "io-noise", io_intensity=self.io_contention_intensity,
                cpu_share=0.0, memory_mb=contention_memory_mb,
            )
        memory_mb = max(
            self.os_reserved_mb + 64.0,
            allocation.memory_fraction * machine.memory_mb,
        )
        # The noisy-neighbour VM's small footprint comes out of the workload
        # VM's allocation so that a 100% memory allocation remains feasible.
        memory_mb = min(memory_mb, machine.memory_mb - contention_memory_mb)
        vm = hypervisor.create_vm(
            "workload-vm",
            cpu_share=max(allocation.cpu_share, 1e-3),
            memory_mb=memory_mb,
            os_reserved_mb=self.os_reserved_mb,
        )
        return vm.environment()

    def _cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        tenant = self.problem.tenant(tenant_index)
        engine = tenant.calibration.engine
        executor = ExecutionModel(engine)
        env = self.environment(allocation)
        return executor.execute_statements(tenant.workload.statement_pairs(), env)

    def _cost_many(
        self, tenant_index: int, allocations: Sequence[ResourceAllocation]
    ) -> List[float]:
        tenant = self.problem.tenant(tenant_index)
        executor = ExecutionModel(tenant.calibration.engine)
        return executor.execute_statements_many(
            tenant.workload.statement_pairs(),
            [self.environment(allocation) for allocation in allocations],
        )
