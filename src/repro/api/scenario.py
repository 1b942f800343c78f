"""Declarative consolidation scenarios: whole problems defined as data.

A :class:`Scenario` captures everything :class:`~repro.api.ProblemBuilder`
needs — machine, calibration grid, controlled resources, and tenant specs —
as a plain, JSON-serializable structure, so consolidation scenarios can be
stored in files, generated programmatically, shipped over the wire to an
advisor service, and round-tripped losslessly:

    scenario = Scenario.from_dict({
        "name": "oltp-dss",
        "resources": ["cpu"],
        "fixed_memory_fraction": 0.0625,
        "tenants": [
            {"name": "oltp", "engine": "db2", "benchmark": "tpcc",
             "scale": 10, "statements": [["new_order", 1000.0]]},
            {"name": "dss", "engine": "db2", "statements": [["q18", 25.0]]},
        ],
    })
    problem = scenario.build()
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from ..calibration import CalibrationSettings
from ..core.problem import CPU, MEMORY, VirtualizationDesignProblem
from ..exceptions import ConfigurationError
from ..virt.machine import PhysicalMachine
from .builder import ProblemBuilder, _normalize_statement

#: Machine-spec keys accepted by :class:`Scenario` (scalar fields of
#: :class:`~repro.virt.machine.PhysicalMachine`; the disk profile keeps its
#: defaults — model it in code if you need a custom one).
_MACHINE_KEYS = ("name", "cpu_work_units_per_second", "memory_mb", "cpu_cores")

#: Calibration-spec keys accepted by :class:`Scenario`.
_CALIBRATION_KEYS = (
    "cpu_shares",
    "memory_fraction",
    "io_cpu_share",
    "os_reserved_mb",
    "io_contention_intensity",
)

#: Advisor-option keys accepted by :class:`Scenario` (the keyword arguments
#: of :class:`repro.api.Advisor`).
_ADVISOR_KEYS = (
    "enumerator",
    "cost_function",
    "refinement",
    "delta",
    "min_share",
    "max_iterations",
)


def _normalize_options(
    mapping: Optional[Mapping[str, Any]], allowed: Sequence[str], what: str
) -> Optional[Dict[str, Any]]:
    """Validate and canonicalize an options mapping (lists become tuples)."""
    if mapping is None:
        return None
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigurationError(
            f"unknown {what} option(s) {', '.join(map(repr, unknown))}; "
            f"expected a subset of {', '.join(allowed)}"
        )
    return {
        key: tuple(value) if isinstance(value, (list, tuple)) else value
        for key, value in mapping.items()
    }


def _listify(value: Any) -> Any:
    """Recursively turn tuples into lists for JSON output."""
    if isinstance(value, tuple):
        return [_listify(item) for item in value]
    if isinstance(value, dict):
        return {key: _listify(item) for key, item in value.items()}
    return value


@dataclass(frozen=True)
class TenantSpec:
    """Declarative description of one consolidated workload."""

    name: str
    statements: Tuple[Tuple[str, float], ...]
    engine: str = "postgresql"
    benchmark: str = "tpch"
    scale: float = 1.0
    degradation_limit: Optional[float] = None
    gain_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.statements:
            raise ConfigurationError(f"tenant {self.name!r} has no statements")
        # One canonical parser for every spelling (shared with from_dict and
        # ProblemBuilder.add_tenant): a bare "q18", ("q18", 2.0), or mapping.
        normalized = tuple(
            _normalize_statement(statement) for statement in self.statements
        )
        object.__setattr__(self, "statements", normalized)
        object.__setattr__(self, "scale", float(self.scale))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantSpec":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown tenant option(s) {', '.join(map(repr, unknown))}"
            )
        if "name" not in data:
            raise ConfigurationError(
                f"tenant spec {dict(data)!r} is missing the required 'name' key"
            )
        return cls(
            name=data["name"],
            statements=tuple(data.get("statements", ())),
            engine=data.get("engine", "postgresql"),
            benchmark=data.get("benchmark", "tpch"),
            scale=data.get("scale", 1.0),
            degradation_limit=data.get("degradation_limit"),
            gain_factor=data.get("gain_factor", 1.0),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "engine": self.engine,
            "benchmark": self.benchmark,
            "scale": self.scale,
            "statements": [[query, frequency] for query, frequency in self.statements],
            "degradation_limit": self.degradation_limit,
            "gain_factor": self.gain_factor,
        }


@dataclass(frozen=True)
class Scenario:
    """A complete consolidation scenario as data.

    Attributes:
        tenants: the consolidated workloads.
        name: scenario identifier (used in reports and filenames).
        resources: resources the advisor controls.
        fixed_memory_fraction: per-VM memory when memory is uncontrolled.
        machine: optional overrides for the physical machine (see
            ``_MACHINE_KEYS``); ``None`` uses the paper's default testbed.
        calibration: optional overrides for the calibration settings (see
            ``_CALIBRATION_KEYS``); ``None`` uses the builder's fast grid.
        advisor: optional keyword arguments for
            :class:`repro.api.Advisor` (e.g. ``{"enumerator": "greedy",
            "delta": 0.1}``), carried along so a scenario can fully specify
            how it should be solved.
    """

    tenants: Tuple[TenantSpec, ...]
    name: str = "scenario"
    resources: Tuple[str, ...] = (CPU, MEMORY)
    fixed_memory_fraction: float = 0.0625
    machine: Optional[Dict[str, Any]] = None
    calibration: Optional[Dict[str, Any]] = None
    advisor: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ConfigurationError("a scenario needs at least one tenant")
        tenants = tuple(
            tenant if isinstance(tenant, TenantSpec) else TenantSpec.from_dict(tenant)
            for tenant in self.tenants
        )
        object.__setattr__(self, "tenants", tenants)
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(
            self, "machine", _normalize_options(self.machine, _MACHINE_KEYS, "machine")
        )
        object.__setattr__(
            self,
            "calibration",
            _normalize_options(self.calibration, _CALIBRATION_KEYS, "calibration"),
        )
        object.__setattr__(
            self,
            "advisor",
            _normalize_options(dict(self.advisor), _ADVISOR_KEYS, "advisor") or {},
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        """Build a scenario from a plain dictionary."""
        known = {f for f in cls.__dataclass_fields__}  # noqa: C401
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown scenario option(s) {', '.join(map(repr, unknown))}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        return cls(
            tenants=tuple(data.get("tenants", ())),
            name=data.get("name", "scenario"),
            resources=tuple(data.get("resources", (CPU, MEMORY))),
            fixed_memory_fraction=data.get("fixed_memory_fraction", 0.0625),
            machine=data.get("machine"),
            calibration=data.get("calibration"),
            advisor=data.get("advisor", {}),
        )

    @classmethod
    def from_json(cls, document: Union[str, bytes]) -> "Scenario":
        """Build a scenario from a JSON document."""
        return cls.from_dict(json.loads(document))

    def to_dict(self) -> Dict[str, Any]:
        """The scenario as a JSON-safe dictionary (round-trips via from_dict)."""
        return {
            "name": self.name,
            "resources": list(self.resources),
            "fixed_memory_fraction": self.fixed_memory_fraction,
            "machine": _listify(self.machine),
            "calibration": _listify(self.calibration),
            "tenants": [tenant.to_dict() for tenant in self.tenants],
            "advisor": _listify(self.advisor),
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The scenario as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def to_builder(self, builder: Optional[ProblemBuilder] = None) -> ProblemBuilder:
        """A :class:`ProblemBuilder` configured from this scenario.

        Pass the builder returned for a *compatible* earlier scenario (same
        machine and calibration spec) to reuse its cached calibrations —
        e.g. when solving several QoS variants of one consolidation; its
        tenant list is cleared first.  An incompatible builder (whose
        machine or calibration settings contradict this scenario's specs)
        is rejected rather than silently producing a problem calibrated for
        the wrong hardware.
        """
        if builder is not None:
            self._check_builder_compatible(builder)
            builder.clear_tenants()
        else:
            machine = PhysicalMachine(**self.machine) if self.machine else None
            settings = (
                CalibrationSettings(**self.calibration) if self.calibration else None
            )
            builder = ProblemBuilder(machine=machine, calibration_settings=settings)
        builder.control(*self.resources)
        builder.with_fixed_memory_fraction(self.fixed_memory_fraction)
        for tenant in self.tenants:
            builder.add_tenant(
                name=tenant.name,
                engine=tenant.engine,
                benchmark=tenant.benchmark,
                scale=tenant.scale,
                statements=tenant.statements,
                degradation_limit=tenant.degradation_limit,
                gain_factor=tenant.gain_factor,
            )
        return builder

    def _check_builder_compatible(self, builder: ProblemBuilder) -> None:
        """Reject a reused builder whose machine/calibration contradict ours."""
        for spec_name, spec, target in (
            ("machine", self.machine, builder.machine),
            ("calibration", self.calibration, builder.calibration_settings),
        ):
            for key, value in (spec or {}).items():
                actual = getattr(target, key)
                if isinstance(actual, (list, tuple)):
                    actual = tuple(actual)
                if actual != value:
                    raise ConfigurationError(
                        f"scenario {self.name!r} specifies {spec_name} "
                        f"{key}={value!r} but the reused builder has "
                        f"{key}={actual!r}; build from a fresh builder instead"
                    )

    def build(
        self, builder: Optional[ProblemBuilder] = None
    ) -> VirtualizationDesignProblem:
        """Materialize the scenario into a design problem (calibrating engines).

        ``builder`` optionally reuses a compatible builder's cached
        calibrations (see :meth:`to_builder`).
        """
        return self.to_builder(builder).build()

    def with_tenants(self, tenants: Sequence[TenantSpec]) -> "Scenario":
        """A copy of the scenario with a different tenant list."""
        return replace(self, tenants=tuple(tenants))
