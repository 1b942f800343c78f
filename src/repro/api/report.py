"""Structured, serializable recommendation reports.

The seed advisor returned a bare :class:`~repro.core.advisor.Recommendation`
tuple of numbers; callers that wanted per-tenant degradations, strategy
provenance, or machine-readable output re-derived them by hand.
:class:`RecommendationReport` packages everything one recommendation run
produced — the recommendation itself, a per-tenant breakdown (allocation,
estimated cost, degradation against the dedicated-machine baseline, QoS
settings), the strategies that produced it, and timing / cost-call
statistics — and serializes to a plain dict / JSON document.

For compatibility, the report also exposes the
:class:`~repro.core.advisor.Recommendation` attributes directly
(``report.allocations``, ``report.total_cost``, ...), so code written
against the old facade keeps working when handed a report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..core.advisor import Recommendation
from ..core.problem import ResourceAllocation


def _json_safe(value: float) -> Optional[float]:
    """Map non-finite floats (e.g. an unlimited degradation) to ``None``."""
    if value is None or math.isinf(value) or math.isnan(value):
        return None
    return value


def _from_json_safe(value: Optional[float]) -> float:
    """Inverse of :func:`_json_safe`: ``None`` reads back as infinity."""
    return math.inf if value is None else value


@dataclass(frozen=True)
class TenantReport:
    """Per-tenant outcome of one recommendation.

    Attributes:
        name: workload name.
        cpu_share / memory_fraction: the recommended allocation.
        estimated_cost: estimated cost (seconds) under the recommendation.
        degradation: ``Cost(W_i, R_i) / Cost(W_i, full machine)``.
        degradation_limit: the tenant's QoS limit ``L_i`` (infinity = none).
        gain_factor: the tenant's benefit gain factor ``G_i``.
    """

    name: str
    cpu_share: float
    memory_fraction: float
    estimated_cost: float
    degradation: float
    degradation_limit: float
    gain_factor: float

    @property
    def meets_degradation_limit(self) -> bool:
        """Whether the recommendation honours the tenant's QoS limit."""
        return self.degradation <= self.degradation_limit + 1e-9

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "cpu_share": self.cpu_share,
            "memory_fraction": self.memory_fraction,
            "estimated_cost": self.estimated_cost,
            "degradation": self.degradation,
            "degradation_limit": _json_safe(self.degradation_limit),
            "gain_factor": self.gain_factor,
            "meets_degradation_limit": self.meets_degradation_limit,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantReport":
        """Rebuild a tenant report from its dictionary form."""
        return cls(
            name=data["name"],
            cpu_share=data["cpu_share"],
            memory_fraction=data["memory_fraction"],
            estimated_cost=data["estimated_cost"],
            degradation=data["degradation"],
            degradation_limit=_from_json_safe(data.get("degradation_limit")),
            gain_factor=data["gain_factor"],
        )


@dataclass(frozen=True)
class StrategyProvenance:
    """Which strategies produced a recommendation, and with what knobs.

    ``options`` is a read-only copy of the mapping it was built with: an
    advisor hands one provenance to every report its enumerator makes.
    """

    enumerator: str
    cost_function: str
    refinement: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", MappingProxyType(dict(self.options)))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "enumerator": self.enumerator,
            "cost_function": self.cost_function,
            "refinement": self.refinement,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StrategyProvenance":
        """Rebuild strategy provenance from its dictionary form."""
        return cls(
            enumerator=data["enumerator"],
            cost_function=data["cost_function"],
            refinement=data.get("refinement"),
            options=dict(data.get("options", {})),
        )


@dataclass(frozen=True)
class CostCallStats:
    """Cost-call accounting for one recommendation run.

    Attributes:
        evaluations: underlying cost evaluations actually performed (what-if
            optimizer invocations or simulated runs).
        cache_hits / cache_misses: shared-cache traffic during the run.
        optimizer_calls: plan optimizations the run forced on the
            problem's engines, one per (query, engine configuration) the
            engines' plan caches did not hold.
        plan_cache_hits: what-if questions the engines answered from their
            per-configuration plan caches instead of re-optimizing.
        placement_solve_hits: whole per-machine solves (placement probes or
            committed divisions) answered from the fleet solve-memo instead
            of re-running the enumerator's search.  A probe reaches the
            memo only on its first ask per placement run; repeat asks are
            answered from the run's cost table and not counted.
    """

    evaluations: int
    cache_hits: int
    cache_misses: int
    optimizer_calls: int = 0
    plan_cache_hits: int = 0
    placement_solve_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.cache_hits / total if total else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "hit_rate": self.hit_rate,
            "optimizer_calls": self.optimizer_calls,
            "plan_cache_hits": self.plan_cache_hits,
            "placement_solve_hits": self.placement_solve_hits,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CostCallStats":
        """Rebuild cost-call statistics from their dictionary form."""
        return cls(
            evaluations=data["evaluations"],
            cache_hits=data["cache_hits"],
            cache_misses=data["cache_misses"],
            optimizer_calls=data.get("optimizer_calls", 0),
            plan_cache_hits=data.get("plan_cache_hits", 0),
            placement_solve_hits=data.get("placement_solve_hits", 0),
        )

    def __add__(self, other: "CostCallStats") -> "CostCallStats":
        """Aggregate the statistics of two runs (used by the fleet advisor)."""
        if not isinstance(other, CostCallStats):
            return NotImplemented
        return CostCallStats(
            evaluations=self.evaluations + other.evaluations,
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            optimizer_calls=self.optimizer_calls + other.optimizer_calls,
            plan_cache_hits=self.plan_cache_hits + other.plan_cache_hits,
            placement_solve_hits=self.placement_solve_hits
            + other.placement_solve_hits,
        )

    def __sub__(self, other: "CostCallStats") -> "CostCallStats":
        """The statistics of a run less those of a part of it."""
        if not isinstance(other, CostCallStats):
            return NotImplemented
        return CostCallStats(
            evaluations=self.evaluations - other.evaluations,
            cache_hits=self.cache_hits - other.cache_hits,
            cache_misses=self.cache_misses - other.cache_misses,
            optimizer_calls=self.optimizer_calls - other.optimizer_calls,
            plan_cache_hits=self.plan_cache_hits - other.plan_cache_hits,
            placement_solve_hits=self.placement_solve_hits
            - other.placement_solve_hits,
        )

    def __radd__(self, other: Any) -> "CostCallStats":
        """Support ``sum(stats_list)``, whose implicit start value is ``0``.

        Anything other than that zero start (or another stats object,
        handled by ``__add__``) is refused as usual.
        """
        if other == 0:
            return self
        return NotImplemented


@dataclass(frozen=True)
class RecommendationReport:
    """The advisor's full answer to one design problem."""

    recommendation: Recommendation
    tenants: Tuple[TenantReport, ...]
    provenance: StrategyProvenance
    cost_stats: CostCallStats
    wall_time_seconds: float

    # ------------------------------------------------------------------
    # Recommendation passthrough (old-facade compatibility)
    # ------------------------------------------------------------------
    @property
    def allocations(self) -> Tuple[ResourceAllocation, ...]:
        return self.recommendation.allocations

    @property
    def per_workload_costs(self) -> Tuple[float, ...]:
        return self.recommendation.per_workload_costs

    @property
    def total_cost(self) -> float:
        return self.recommendation.total_cost

    @property
    def default_cost(self) -> float:
        return self.recommendation.default_cost

    @property
    def estimated_improvement(self) -> float:
        return self.recommendation.estimated_improvement

    @property
    def iterations(self) -> int:
        return self.recommendation.iterations

    @property
    def cost_calls(self) -> int:
        return self.recommendation.cost_calls

    def allocation_of(self, tenant_index: int) -> ResourceAllocation:
        """Allocation recommended for one tenant."""
        return self.recommendation.allocations[tenant_index]

    def tenant(self, name: str) -> TenantReport:
        """The per-tenant report for the named workload."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(name)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-safe dictionary."""
        return {
            "recommendation": {
                "allocations": [
                    {
                        "tenant": tenant.name,
                        "cpu_share": allocation.cpu_share,
                        "memory_fraction": allocation.memory_fraction,
                    }
                    for tenant, allocation in zip(
                        self.tenants, self.recommendation.allocations
                    )
                ],
                "per_workload_costs": list(self.recommendation.per_workload_costs),
                "total_cost": self.recommendation.total_cost,
                "default_cost": self.recommendation.default_cost,
                "estimated_improvement": self.recommendation.estimated_improvement,
                "iterations": self.recommendation.iterations,
                "cost_calls": self.recommendation.cost_calls,
            },
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "provenance": self.provenance.to_dict(),
            "cost_stats": self.cost_stats.to_dict(),
            "wall_time_seconds": self.wall_time_seconds,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def canonical_dict(self) -> Dict[str, Any]:
        """The recommendation's *answer*, stripped of run artifacts.

        Two runs that made the same decision — same allocations, costs,
        degradations, and strategies — have equal canonical dictionaries
        even if they took different wall-clock time or hit the shared cost
        cache differently (``wall_time_seconds``, ``cost_stats``, and the
        cache-state-dependent ``cost_calls`` counter are dropped).  This is
        the determinism contract of the parallel solver backends: every
        backend must produce the serial backend's canonical dictionary,
        bit for bit.
        """
        data = self.to_dict()
        data.pop("cost_stats", None)
        data.pop("wall_time_seconds", None)
        data["recommendation"].pop("cost_calls", None)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RecommendationReport":
        """Rebuild a report from its dictionary form (inverse of to_dict).

        The reconstructed report is value-equal to the original: the
        recommendation numbers, per-tenant breakdowns, provenance, and
        statistics all round-trip, so reports can be shipped as JSON and
        consumed as first-class objects on the other side.
        """
        recommendation = data["recommendation"]
        return cls(
            recommendation=Recommendation(
                allocations=tuple(
                    ResourceAllocation(
                        cpu_share=entry["cpu_share"],
                        memory_fraction=entry["memory_fraction"],
                    )
                    for entry in recommendation["allocations"]
                ),
                per_workload_costs=tuple(recommendation["per_workload_costs"]),
                total_cost=recommendation["total_cost"],
                default_cost=recommendation["default_cost"],
                estimated_improvement=recommendation["estimated_improvement"],
                iterations=recommendation["iterations"],
                cost_calls=recommendation["cost_calls"],
            ),
            tenants=tuple(
                TenantReport.from_dict(tenant) for tenant in data["tenants"]
            ),
            provenance=StrategyProvenance.from_dict(data["provenance"]),
            cost_stats=CostCallStats.from_dict(data["cost_stats"]),
            wall_time_seconds=data["wall_time_seconds"],
        )

    @classmethod
    def from_json(cls, document: Union[str, bytes]) -> "RecommendationReport":
        """Rebuild a report from a JSON document (inverse of to_json)."""
        return cls.from_dict(json.loads(document))
