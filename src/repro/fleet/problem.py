"""The fleet placement problem: which machine should each tenant live on?

The paper's virtualization design advisor configures ``N`` database
workloads on **one** physical machine.  A production fleet has many
machines, so a consolidation decision really has two levels:

1. *Placement* — choose, for every tenant, the machine whose VM will host
   it, subject to each machine's capacity (CPU work-rate and physical
   memory the tenants reserve).
2. *Division* — on every machine, divide the machine's CPU and memory
   among the tenants placed there; this is exactly the paper's problem and
   is delegated unchanged to :class:`repro.api.Advisor`.

This module defines the data model of level 1:

* :class:`Machine` — one physical host with its capacity, convertible to
  the :class:`~repro.virt.machine.PhysicalMachine` the per-machine advisor
  calibrates against.
* :class:`FleetTenant` — one database workload, described declaratively by
  a :class:`~repro.api.scenario.TenantSpec` plus the capacity it reserves.
* :class:`FleetProblem` — tenants × machines, JSON round-trippable
  (``from_dict`` / ``from_json`` / ``to_dict`` / ``to_json``) in the same
  style as :class:`~repro.api.Scenario`, so whole fleet scenarios can live
  in files or cross a service boundary.
* :class:`Placement` — an immutable tenant → machine assignment with
  capacity accounting.

Everything here is plain data; solving happens in
:mod:`repro.fleet.advisor` and :mod:`repro.fleet.strategies`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

# FleetProblem accepts the same calibration overrides as Scenario, so the
# key whitelist is shared rather than duplicated.
from ..api.scenario import (
    _CALIBRATION_KEYS,
    TenantSpec,
    _normalize_options,
    _reject_duplicates,
)
from ..core.problem import CPU, MEMORY, RESOURCE_NAMES
from ..exceptions import ConfigurationError, PlacementError
from ..virt.machine import PhysicalMachine

#: Default memory reservation per tenant, in MB — the paper's fixed 512 MB
#: per-VM grant, reused as the placement-level footprint of a tenant that
#: does not declare one.
DEFAULT_MEMORY_DEMAND_MB = 512.0


@dataclass(frozen=True)
class Machine:
    """One physical host of the fleet, with its placement-level capacity.

    Attributes:
        name: unique machine identifier within the fleet.
        cpu_work_units_per_second: CPU work-rate of the host (the same unit
            as :class:`~repro.virt.machine.PhysicalMachine`); doubles as
            the machine's CPU *capacity*: the CPU demands of the tenants
            placed on the machine must not exceed it.
        memory_mb: physical memory of the host; the memory demands of the
            tenants placed on the machine must not exceed it.
        cpu_cores: number of cores (informational, forwarded to the
            physical-machine model).
        max_tenants: optional hard cap on the number of tenants the machine
            may host (``None`` = limited only by capacity and by the
            per-machine advisor's minimum share).
    """

    name: str
    cpu_work_units_per_second: float = 2_000_000.0
    memory_mb: float = 8192.0
    cpu_cores: int = 4
    max_tenants: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("machine name must be non-empty")
        if self.cpu_work_units_per_second <= 0:
            raise ConfigurationError(
                f"machine {self.name!r}: cpu_work_units_per_second must be "
                f"positive, got {self.cpu_work_units_per_second}"
            )
        if self.memory_mb <= 0:
            raise ConfigurationError(
                f"machine {self.name!r}: memory_mb must be positive, "
                f"got {self.memory_mb}"
            )
        if self.cpu_cores <= 0:
            raise ConfigurationError(
                f"machine {self.name!r}: cpu_cores must be positive, "
                f"got {self.cpu_cores}"
            )
        if self.max_tenants is not None and self.max_tenants <= 0:
            raise ConfigurationError(
                f"machine {self.name!r}: max_tenants must be positive, "
                f"got {self.max_tenants}"
            )

    @property
    def hardware_key(self) -> Tuple[float, float, int]:
        """The machine's hardware signature (capacity without the name).

        Machines with equal hardware keys are physically interchangeable,
        so the fleet advisor calibrates each distinct key exactly once and
        shares the calibration (and therefore the cost cache) across all
        machines of that shape.
        """
        return (self.cpu_work_units_per_second, self.memory_mb, self.cpu_cores)

    def physical(self) -> PhysicalMachine:
        """The :class:`~repro.virt.machine.PhysicalMachine` model of this host."""
        return PhysicalMachine(
            name=self.name,
            cpu_work_units_per_second=self.cpu_work_units_per_second,
            memory_mb=self.memory_mb,
            cpu_cores=self.cpu_cores,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Machine":
        """Build a machine from a plain dictionary."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown machine option(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        if "name" not in data:
            raise ConfigurationError(
                f"machine spec {dict(data)!r} is missing the required 'name' key"
            )
        return cls(**dict(data))

    def to_dict(self) -> Dict[str, Any]:
        """The machine as a JSON-safe dictionary (round-trips via from_dict)."""
        return {
            "name": self.name,
            "cpu_work_units_per_second": self.cpu_work_units_per_second,
            "memory_mb": self.memory_mb,
            "cpu_cores": self.cpu_cores,
            "max_tenants": self.max_tenants,
        }


@dataclass(frozen=True)
class FleetTenant:
    """One tenant of the fleet: a declarative workload plus its footprint.

    Attributes:
        spec: the workload description (engine, statements, QoS) — the same
            :class:`~repro.api.scenario.TenantSpec` the single-machine
            :class:`~repro.api.Scenario` uses, so per-machine problems can
            be materialized through the existing builder machinery.
        cpu_demand: CPU work units per second the tenant reserves at
            placement time (0 = no reservation; the per-machine advisor
            still divides the actual CPU among co-located tenants).
        memory_demand_mb: physical memory (MB) the tenant's VM reserves;
            the sum over a machine's tenants must fit its ``memory_mb``.
    """

    spec: TenantSpec
    cpu_demand: float = 0.0
    memory_demand_mb: float = DEFAULT_MEMORY_DEMAND_MB

    def __post_init__(self) -> None:
        if not isinstance(self.spec, TenantSpec):
            object.__setattr__(self, "spec", TenantSpec.from_dict(self.spec))
        if self.cpu_demand < 0:
            raise ConfigurationError(
                f"tenant {self.spec.name!r}: cpu_demand must not be negative, "
                f"got {self.cpu_demand}"
            )
        if self.memory_demand_mb <= 0:
            raise ConfigurationError(
                f"tenant {self.spec.name!r}: memory_demand_mb must be "
                f"positive, got {self.memory_demand_mb}"
            )

    @property
    def name(self) -> str:
        """Name of the underlying workload spec."""
        return self.spec.name

    @property
    def gain_factor(self) -> float:
        """The tenant's benefit gain factor ``G_i`` (QoS weight)."""
        return self.spec.gain_factor

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetTenant":
        """Build a fleet tenant from a plain dictionary.

        The dictionary is the tenant's :class:`TenantSpec` fields plus the
        optional ``cpu_demand`` / ``memory_demand_mb`` footprint, i.e. a
        flat structure convenient to write by hand::

            {"name": "oltp", "engine": "db2", "statements": [["q18", 5.0]],
             "memory_demand_mb": 1024}
        """
        data = dict(data)
        cpu_demand = data.pop("cpu_demand", 0.0)
        memory_demand_mb = data.pop("memory_demand_mb", DEFAULT_MEMORY_DEMAND_MB)
        return cls(
            spec=TenantSpec.from_dict(data),
            cpu_demand=cpu_demand,
            memory_demand_mb=memory_demand_mb,
        )

    def to_dict(self) -> Dict[str, Any]:
        """The tenant as a JSON-safe dictionary (round-trips via from_dict)."""
        document = self.spec.to_dict()
        document["cpu_demand"] = self.cpu_demand
        document["memory_demand_mb"] = self.memory_demand_mb
        return document


TenantLike = Union[FleetTenant, TenantSpec, Mapping[str, Any]]
MachineLike = Union[Machine, Mapping[str, Any]]


def _coerce_tenant(tenant: TenantLike) -> FleetTenant:
    """Accept a FleetTenant, a bare TenantSpec, or a mapping."""
    if isinstance(tenant, FleetTenant):
        return tenant
    if isinstance(tenant, TenantSpec):
        return FleetTenant(spec=tenant)
    return FleetTenant.from_dict(tenant)


def _coerce_machine(machine: MachineLike) -> Machine:
    """Accept a Machine or a mapping."""
    if isinstance(machine, Machine):
        return machine
    return Machine.from_dict(machine)


@dataclass(frozen=True)
class FleetProblem:
    """A complete fleet consolidation problem: tenants × machines.

    Attributes:
        tenants: the workloads to place (each with its capacity footprint).
        machines: the candidate hosts.
        name: fleet identifier (used in reports and filenames).
        resources: resources each per-machine advisor controls, as in
            :class:`~repro.core.problem.VirtualizationDesignProblem`.
        fixed_memory_fraction: per-VM memory fraction when memory is not a
            controlled resource.
        calibration: optional calibration-settings overrides applied when
            engines are calibrated on the fleet's machines (same keys as
            :class:`~repro.api.Scenario`).
    """

    tenants: Tuple[FleetTenant, ...]
    machines: Tuple[Machine, ...]
    name: str = "fleet"
    resources: Tuple[str, ...] = (CPU, MEMORY)
    fixed_memory_fraction: float = 0.0625
    calibration: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        tenants = tuple(_coerce_tenant(tenant) for tenant in self.tenants)
        machines = tuple(_coerce_machine(machine) for machine in self.machines)
        if not tenants:
            raise ConfigurationError("a fleet problem needs at least one tenant")
        if not machines:
            raise ConfigurationError("a fleet problem needs at least one machine")
        _reject_duplicates([tenant.name for tenant in tenants], "tenant name")
        _reject_duplicates([machine.name for machine in machines], "machine name")
        for resource in self.resources:
            if resource not in RESOURCE_NAMES:
                raise ConfigurationError(f"unknown resource {resource!r}")
        if not self.resources:
            raise ConfigurationError("at least one resource must be controlled")
        object.__setattr__(self, "tenants", tenants)
        object.__setattr__(self, "machines", machines)
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(
            self,
            "calibration",
            _normalize_options(self.calibration, _CALIBRATION_KEYS, "calibration"),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_tenants(self) -> int:
        """Number of tenants to place."""
        return len(self.tenants)

    @property
    def n_machines(self) -> int:
        """Number of candidate machines."""
        return len(self.machines)

    def tenant(self, index: int) -> FleetTenant:
        """The ``index``-th tenant."""
        return self.tenants[index]

    def machine(self, index: int) -> Machine:
        """The ``index``-th machine."""
        return self.machines[index]

    def tenant_names(self) -> List[str]:
        """Tenant names in problem order."""
        return [tenant.name for tenant in self.tenants]

    def machine_names(self) -> List[str]:
        """Machine names in problem order."""
        return [machine.name for machine in self.machines]

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    def fits(
        self,
        machine_index: int,
        tenant_indices: Sequence[int],
        max_tenants: Optional[int] = None,
    ) -> bool:
        """Whether a machine can host a tenant set within its capacities.

        ``max_tenants`` optionally tightens the machine's own tenant cap
        (the fleet advisor passes the bound implied by the per-machine
        enumerator's minimum share: a machine cannot host more tenants than
        ``1 / min_share`` VMs with a non-zero allocation each).
        """
        machine = self.machines[machine_index]
        count = len(tenant_indices)
        cap = machine.max_tenants
        if max_tenants is not None:
            cap = max_tenants if cap is None else min(cap, max_tenants)
        if cap is not None and count > cap:
            return False
        cpu = sum(self.tenants[i].cpu_demand for i in tenant_indices)
        memory = sum(self.tenants[i].memory_demand_mb for i in tenant_indices)
        return (
            cpu <= machine.cpu_work_units_per_second + 1e-9
            and memory <= machine.memory_mb + 1e-9
        )

    def validate_placement(
        self,
        assignment: Sequence[int],
        max_tenants: Optional[int] = None,
    ) -> None:
        """Raise :class:`~repro.exceptions.PlacementError` if infeasible."""
        if len(assignment) != self.n_tenants:
            raise PlacementError(
                f"expected {self.n_tenants} assignments, got {len(assignment)}"
            )
        per_machine: Dict[int, List[int]] = {}
        for tenant_index, machine_index in enumerate(assignment):
            if not 0 <= machine_index < self.n_machines:
                raise PlacementError(
                    f"tenant {self.tenants[tenant_index].name!r} assigned to "
                    f"machine index {machine_index}, which does not exist"
                )
            per_machine.setdefault(machine_index, []).append(tenant_index)
        for machine_index, tenant_indices in per_machine.items():
            if not self.fits(machine_index, tenant_indices, max_tenants):
                machine = self.machines[machine_index]
                names = [self.tenants[i].name for i in tenant_indices]
                raise PlacementError(
                    f"machine {machine.name!r} cannot host "
                    f"{', '.join(map(repr, names))}: capacity exceeded"
                )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetProblem":
        """Build a fleet problem from a plain dictionary."""
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown fleet option(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        return cls(
            tenants=tuple(data.get("tenants", ())),
            machines=tuple(data.get("machines", ())),
            name=data.get("name", "fleet"),
            resources=tuple(data.get("resources", (CPU, MEMORY))),
            fixed_memory_fraction=data.get("fixed_memory_fraction", 0.0625),
            calibration=data.get("calibration"),
        )

    @classmethod
    def from_json(cls, document: Union[str, bytes]) -> "FleetProblem":
        """Build a fleet problem from a JSON document."""
        return cls.from_dict(json.loads(document))

    def to_dict(self) -> Dict[str, Any]:
        """The problem as a JSON-safe dictionary (round-trips via from_dict)."""
        calibration = None
        if self.calibration is not None:
            calibration = {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in self.calibration.items()
            }
        return {
            "name": self.name,
            "resources": list(self.resources),
            "fixed_memory_fraction": self.fixed_memory_fraction,
            "calibration": calibration,
            "machines": [machine.to_dict() for machine in self.machines],
            "tenants": [tenant.to_dict() for tenant in self.tenants],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The problem as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    def with_machines(self, machines: Sequence[MachineLike]) -> "FleetProblem":
        """A copy of the problem over a different machine pool."""
        return replace(self, machines=tuple(machines))

    def with_tenants(self, tenants: Sequence[TenantLike]) -> "FleetProblem":
        """A copy of the problem with a different tenant list."""
        return replace(self, tenants=tuple(tenants))


@dataclass(frozen=True)
class Placement:
    """An immutable tenant → machine assignment for one fleet problem.

    Attributes:
        problem: the fleet problem the assignment solves.
        assignment: machine index per tenant, in tenant order.
        strategy: name of the placement strategy that produced it.
    """

    problem: FleetProblem
    assignment: Tuple[int, ...]
    strategy: str = "unknown"

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        self.problem.validate_placement(self.assignment)

    def machine_of(self, tenant_index: int) -> Machine:
        """The machine hosting one tenant."""
        return self.problem.machines[self.assignment[tenant_index]]

    def tenants_on(self, machine_index: int) -> Tuple[int, ...]:
        """Tenant indices placed on one machine, in tenant order."""
        return tuple(
            tenant_index
            for tenant_index, assigned in enumerate(self.assignment)
            if assigned == machine_index
        )

    def as_mapping(self) -> Dict[str, str]:
        """The placement as a tenant-name → machine-name mapping."""
        return {
            tenant.name: self.problem.machines[machine_index].name
            for tenant, machine_index in zip(self.problem.tenants, self.assignment)
        }

    @property
    def machines_used(self) -> int:
        """Number of machines hosting at least one tenant."""
        return len(set(self.assignment))
