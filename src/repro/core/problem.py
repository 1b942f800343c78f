"""Definition of the virtualization design problem (Section 3 of the paper).

``N`` workloads, each running its own DBMS inside its own virtual machine,
compete for the resources of one physical machine.  For each workload the
advisor must choose a share of every controllable resource (here CPU and
memory) so that the total gain-weighted cost is minimized, subject to each
workload's degradation limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..calibration.calibrator import EngineCalibration
from ..exceptions import AllocationError, ConfigurationError
from ..units import validate_fraction
from ..workloads.workload import Workload

#: Resource names, in the order used by allocation vectors.
CPU = "cpu"
MEMORY = "memory"
RESOURCE_NAMES: Tuple[str, str] = (CPU, MEMORY)

#: Degradation limit meaning "no limit" (the paper's ``L_i`` = infinity).
UNLIMITED_DEGRADATION = math.inf

#: Memory fraction of the paper's fixed 512 MB per-VM grant on the 8 GB
#: testbed — the per-VM memory used whenever only CPU is controlled (the
#: CPU-only experiments and trace replay share this one definition).
FIXED_MEMORY_FRACTION_512MB = 512.0 / 8192.0


@dataclass(frozen=True)
class ResourceAllocation:
    """The resource shares ``R_i`` given to one workload's virtual machine.

    Attributes:
        cpu_share: fraction of the physical CPU.
        memory_fraction: fraction of the physical memory.
    """

    cpu_share: float
    memory_fraction: float

    def __post_init__(self) -> None:
        validate_fraction(self.cpu_share, "cpu_share")
        validate_fraction(self.memory_fraction, "memory_fraction")

    #: The allocation in which a workload owns the whole machine; the
    #: reference point of the degradation metric.
    @classmethod
    def full(cls) -> "ResourceAllocation":
        return cls(cpu_share=1.0, memory_fraction=1.0)

    @classmethod
    def equal_share(cls, n_workloads: int) -> "ResourceAllocation":
        """The default allocation: ``1/N`` of every resource."""
        if n_workloads <= 0:
            raise ConfigurationError("n_workloads must be positive")
        share = 1.0 / n_workloads
        return cls(cpu_share=share, memory_fraction=share)

    def get(self, resource: str) -> float:
        """Share of the named resource (``"cpu"`` or ``"memory"``)."""
        if resource == CPU:
            return self.cpu_share
        if resource == MEMORY:
            return self.memory_fraction
        raise ConfigurationError(f"unknown resource {resource!r}")

    def with_resource(self, resource: str, value: float) -> "ResourceAllocation":
        """Return a copy with the named resource share replaced."""
        if resource == CPU:
            return ResourceAllocation(value, self.memory_fraction)
        if resource == MEMORY:
            return ResourceAllocation(self.cpu_share, value)
        raise ConfigurationError(f"unknown resource {resource!r}")

    def shifted(self, resource: str, delta: float) -> "ResourceAllocation":
        """Return a copy with the named resource share changed by ``delta``."""
        return self.with_resource(resource, self.get(resource) + delta)

    def as_tuple(self) -> Tuple[float, float]:
        """The allocation as a ``(cpu_share, memory_fraction)`` tuple."""
        return (self.cpu_share, self.memory_fraction)


@dataclass(frozen=True)
class ConsolidatedWorkload:
    """One workload being consolidated, with its estimator and QoS settings.

    Attributes:
        workload: the workload ``W_i``.
        calibration: calibration of the engine hosting the workload; gives
            the advisor its what-if cost estimates and the renormalization
            to seconds.
        degradation_limit: maximum allowed ``Cost(W_i, R_i) / Cost(W_i, full)``
            (``L_i`` ≥ 1; infinity disables the constraint).
        gain_factor: benefit gain factor ``G_i`` ≥ 1; cost improvements for
            this workload count ``G_i`` times.
    """

    workload: Workload
    calibration: EngineCalibration
    degradation_limit: float = UNLIMITED_DEGRADATION
    gain_factor: float = 1.0

    def __post_init__(self) -> None:
        # Written so that NaN fails both checks; an infinite degradation
        # limit is UNLIMITED_DEGRADATION, an infinite gain factor is not.
        if not self.degradation_limit >= 1.0:
            raise ConfigurationError(
                f"degradation_limit must be at least 1, got {self.degradation_limit}"
            )
        if not 1.0 <= self.gain_factor < math.inf:
            raise ConfigurationError(
                f"gain_factor must be finite and at least 1, got {self.gain_factor}"
            )
        if self.workload.database != self.calibration.engine.database.name:
            raise ConfigurationError(
                f"workload {self.workload.name!r} targets database "
                f"{self.workload.database!r} but the calibrated engine hosts "
                f"{self.calibration.engine.database.name!r}"
            )

    @property
    def name(self) -> str:
        """Name of the underlying workload."""
        return self.workload.name

    def with_workload(self, workload: Workload) -> "ConsolidatedWorkload":
        """Return a copy serving a different workload (same engine and QoS)."""
        return replace(self, workload=workload)


@dataclass(frozen=True)
class VirtualizationDesignProblem:
    """A complete instance of the (generalized) virtualization design problem.

    Attributes:
        tenants: the consolidated workloads, one per virtual machine.
        resources: the resources the advisor controls; either ``("cpu",)``
            or ``("cpu", "memory")``.
        fixed_memory_fraction: memory fraction given to every VM when memory
            is *not* among the controlled resources (the paper fixes 512 MB
            per VM in its CPU-only experiments).
    """

    tenants: Tuple[ConsolidatedWorkload, ...]
    resources: Tuple[str, ...] = (CPU, MEMORY)
    fixed_memory_fraction: float = 0.0625

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("a design problem needs at least one workload")
        for resource in self.resources:
            if resource not in RESOURCE_NAMES:
                raise ConfigurationError(f"unknown resource {resource!r}")
        if not self.resources:
            raise ConfigurationError("at least one resource must be controlled")
        validate_fraction(self.fixed_memory_fraction, "fixed_memory_fraction")
        machines = {id(t.calibration.machine) for t in self.tenants}
        if len(machines) > 1:
            raise ConfigurationError(
                "all consolidated workloads must share one physical machine"
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_workloads(self) -> int:
        """Number of consolidated workloads (the paper's ``N``)."""
        return len(self.tenants)

    @property
    def machine(self):
        """The shared physical machine."""
        return self.tenants[0].calibration.machine

    @property
    def controls_memory(self) -> bool:
        """Whether memory is one of the controlled resources."""
        return MEMORY in self.resources

    def tenant(self, index: int) -> ConsolidatedWorkload:
        """The ``index``-th consolidated workload."""
        return self.tenants[index]

    def tenant_names(self) -> List[str]:
        """Workload names in tenant order."""
        return [tenant.name for tenant in self.tenants]

    # ------------------------------------------------------------------
    # Allocations
    # ------------------------------------------------------------------
    def default_allocation(self) -> Tuple[ResourceAllocation, ...]:
        """The default allocation: ``1/N`` of every controlled resource."""
        share = 1.0 / self.n_workloads
        return tuple(self.make_allocation(share, share) for _ in self.tenants)

    def full_allocation(self) -> ResourceAllocation:
        """The allocation of the entire machine to a single workload."""
        return self.make_allocation(1.0, 1.0)

    def make_allocation(
        self, cpu_share: float, memory_fraction: Optional[float] = None
    ) -> ResourceAllocation:
        """Build an allocation, honouring the fixed memory fraction if needed.

        When memory is not a controlled resource, every VM receives the
        problem's ``fixed_memory_fraction`` regardless of the argument.
        """
        if not self.controls_memory:
            memory_fraction = self.fixed_memory_fraction
        elif memory_fraction is None:
            memory_fraction = self.fixed_memory_fraction
        return ResourceAllocation(cpu_share=cpu_share, memory_fraction=memory_fraction)

    def validate_allocations(
        self, allocations: Sequence[ResourceAllocation]
    ) -> None:
        """Check that a set of allocations is feasible for this problem."""
        if len(allocations) != self.n_workloads:
            raise AllocationError(
                f"expected {self.n_workloads} allocations, got {len(allocations)}"
            )
        for resource in self.resources:
            total = sum(allocation.get(resource) for allocation in allocations)
            if total > 1.0 + 1e-9:
                raise AllocationError(
                    f"total {resource} share {total:.4f} exceeds the machine capacity"
                )

    def with_tenants(
        self, tenants: Sequence[ConsolidatedWorkload]
    ) -> "VirtualizationDesignProblem":
        """Return a copy of the problem with a different set of tenants."""
        return replace(self, tenants=tuple(tenants))

    def with_workloads(self, workloads: Sequence[Workload]) -> "VirtualizationDesignProblem":
        """Return a copy with each tenant serving a new workload (same order)."""
        if len(workloads) != self.n_workloads:
            raise ConfigurationError(
                "number of workloads must match the number of tenants"
            )
        tenants = tuple(
            tenant.with_workload(workload)
            for tenant, workload in zip(self.tenants, workloads)
        )
        return replace(self, tenants=tenants)
