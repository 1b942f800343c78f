"""Structured, serializable fleet recommendation reports.

A fleet recommendation is a two-level answer: the placement (which machine
hosts which tenants) and, per machine, the full per-machine
:class:`~repro.api.report.RecommendationReport` the advisor produced when
dividing that machine.  :class:`FleetReport` packages both, together with
fleet-level cost statistics, and round-trips through JSON
(``to_dict`` / ``to_json`` / ``from_dict`` / ``from_json``) so a fleet
controller can ship recommendations to the machines that must apply them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..api.report import CostCallStats, RecommendationReport
from .problem import Machine


@dataclass(frozen=True)
class MachineReport:
    """The advisor's answer for one machine of the fleet.

    Attributes:
        machine: the host this report configures.
        tenants: names of the tenants placed on the machine (the order of
            the embedded report's tenant entries); empty for idle machines.
        report: the per-machine recommendation produced by
            :class:`repro.api.Advisor`, or ``None`` for an idle machine.
        weighted_cost: the machine's gain-weighted objective
            ``Σᵢ Gᵢ·Costᵢ`` under the recommendation (0 for idle machines).
    """

    machine: Machine
    tenants: Tuple[str, ...]
    report: Optional[RecommendationReport]
    weighted_cost: float

    @property
    def is_idle(self) -> bool:
        """Whether no tenant was placed on this machine."""
        return not self.tenants

    def to_dict(self) -> Dict[str, Any]:
        """The machine report as a JSON-safe dictionary."""
        return {
            "machine": self.machine.to_dict(),
            "tenants": list(self.tenants),
            "weighted_cost": self.weighted_cost,
            "report": None if self.report is None else self.report.to_dict(),
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The machine's answer with run artifacts stripped (see FleetReport)."""
        return {
            "machine": self.machine.to_dict(),
            "tenants": list(self.tenants),
            "weighted_cost": self.weighted_cost,
            "report": None if self.report is None else self.report.canonical_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MachineReport":
        """Rebuild a machine report from its dictionary form."""
        report = data.get("report")
        return cls(
            machine=Machine.from_dict(data["machine"]),
            tenants=tuple(data.get("tenants", ())),
            report=None if report is None else RecommendationReport.from_dict(report),
            weighted_cost=data["weighted_cost"],
        )


@dataclass(frozen=True)
class FleetReport:
    """The fleet advisor's full answer to one fleet problem.

    Attributes:
        fleet_name: name of the solved :class:`~repro.fleet.problem.FleetProblem`.
        strategy: placement strategy that chose the assignment.
        placement: tenant-name → machine-name assignment.
        machines: one :class:`MachineReport` per machine (machine order),
            idle machines included.
        total_cost: sum of the per-tenant estimated costs (seconds).
        total_weighted_cost: the fleet objective ``Σᵢ Gᵢ·Costᵢ`` summed
            over all machines — what ``"greedy-cost"`` placement minimizes.
        cost_stats: aggregated cost-call accounting across every
            per-machine solve of the run (placement probes included).
            Under a concurrent backend, overlapping solves may attribute
            shared-cache traffic to several machines at once, so treat
            these numbers as indicative there; the answer itself is
            backend-invariant (see :meth:`canonical_dict`).
        wall_time_seconds: wall-clock time of the whole recommendation.
        backend: the name of the solver-execution backend that produced
            the report — provenance, not part of the answer.
        jobs: the backend's worker count.
        placement_provenance: the placement strategy's own account of how
            it found the assignment, when it keeps one — ``"bnb-fleet"``
            reports node counts, whether the optimum was *proven* or a
            budget degraded the answer to the best incumbent, and which
            budget tripped (see
            :class:`repro.fleet.bnb.BnbSearchStats.to_dict`).  ``None``
            for strategies without search accounting.  Provenance, not
            part of the answer — excluded from :meth:`canonical_dict`
            (it carries wall-clock fields).
    """

    fleet_name: str
    strategy: str
    placement: Dict[str, str]
    machines: Tuple[MachineReport, ...]
    total_cost: float
    total_weighted_cost: float
    cost_stats: CostCallStats
    wall_time_seconds: float
    backend: str = "serial"
    jobs: int = 1
    placement_provenance: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def machines_used(self) -> int:
        """Number of machines hosting at least one tenant."""
        return sum(1 for machine in self.machines if not machine.is_idle)

    def machine(self, name: str) -> MachineReport:
        """The report for the named machine."""
        for machine in self.machines:
            if machine.machine.name == name:
                return machine
        raise KeyError(name)

    def machine_of(self, tenant_name: str) -> str:
        """Name of the machine hosting the named tenant."""
        return self.placement[tenant_name]

    def tenant_allocation(self, tenant_name: str):
        """The per-machine allocation recommended for one tenant."""
        machine = self.machine(self.placement[tenant_name])
        if machine.report is None:  # pragma: no cover - placement guarantees
            raise KeyError(tenant_name)
        for tenant, allocation in zip(
            machine.report.tenants, machine.report.allocations
        ):
            if tenant.name == tenant_name:
                return allocation
        raise KeyError(tenant_name)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The fleet report as a JSON-safe dictionary."""
        return {
            "fleet_name": self.fleet_name,
            "strategy": self.strategy,
            "placement": dict(self.placement),
            "machines": [machine.to_dict() for machine in self.machines],
            "total_cost": self.total_cost,
            "total_weighted_cost": self.total_weighted_cost,
            "cost_stats": self.cost_stats.to_dict(),
            "wall_time_seconds": self.wall_time_seconds,
            "backend": self.backend,
            "jobs": self.jobs,
            "placement_provenance": (
                None
                if self.placement_provenance is None
                else dict(self.placement_provenance)
            ),
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The fleet answer, stripped of run artifacts and provenance.

        The determinism contract of the parallel solver-execution
        subsystem: for any backend ``b``,
        ``FleetAdvisor(backend=b).recommend(problem).canonical_dict()``
        equals the serial backend's, bit for bit.  Wall-clock time, cache-traffic
        statistics, and the backend/jobs provenance are dropped; the
        placement, every machine's division, and every cost are kept.
        """
        return {
            "fleet_name": self.fleet_name,
            "strategy": self.strategy,
            "placement": dict(self.placement),
            "machines": [machine.canonical_dict() for machine in self.machines],
            "total_cost": self.total_cost,
            "total_weighted_cost": self.total_weighted_cost,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The fleet report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetReport":
        """Rebuild a fleet report from its dictionary form."""
        return cls(
            fleet_name=data["fleet_name"],
            strategy=data["strategy"],
            placement=dict(data["placement"]),
            machines=tuple(
                MachineReport.from_dict(machine) for machine in data["machines"]
            ),
            total_cost=data["total_cost"],
            total_weighted_cost=data["total_weighted_cost"],
            cost_stats=CostCallStats.from_dict(data["cost_stats"]),
            wall_time_seconds=data["wall_time_seconds"],
            backend=data.get("backend", "serial"),
            jobs=data.get("jobs", 1),
            placement_provenance=data.get("placement_provenance"),
        )

    @classmethod
    def from_json(cls, document: Union[str, bytes]) -> "FleetReport":
        """Rebuild a fleet report from a JSON document."""
        return cls.from_dict(json.loads(document))

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def summary_lines(self) -> List[str]:
        """Human-readable per-machine summary (used by the examples)."""
        lines = [
            f"fleet {self.fleet_name!r}: {len(self.placement)} tenants on "
            f"{self.machines_used}/{len(self.machines)} machines "
            f"({self.strategy}), weighted cost "
            f"{self.total_weighted_cost:.1f}"
        ]
        for machine in self.machines:
            if machine.is_idle:
                lines.append(f"  {machine.machine.name}: idle")
                continue
            parts = []
            assert machine.report is not None
            for tenant in machine.report.tenants:
                parts.append(
                    f"{tenant.name} cpu={tenant.cpu_share:.0%}"
                    f" mem={tenant.memory_fraction:.0%}"
                )
            lines.append(
                f"  {machine.machine.name} "
                f"(weighted cost {machine.weighted_cost:.1f}): "
                + "; ".join(parts)
            )
        return lines
