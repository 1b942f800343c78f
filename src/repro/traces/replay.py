"""Trace replay: driving dynamic reconfiguration from a workload trace.

A :class:`~repro.traces.model.WorkloadTrace` says *what* every tenant
serves in every monitoring period; this module turns that into decisions:

* :class:`TraceReplayer` — all traced tenants consolidated on **one**
  machine.  Each period's effective specs are materialized into
  :class:`~repro.core.problem.ConsolidatedWorkload`\\ s and fed to the
  existing :class:`~repro.core.dynamic.DynamicConfigurationManager`, which
  classifies the change (none / minor / major), refines or discards its
  cost models, and re-allocates the CPU — the §7.10 loop, driven by data
  instead of a hard-coded script.
* :class:`FleetTraceReplayer` — the same loop at fleet scale.  Every
  machine of a :class:`~repro.fleet.FleetProblem` runs its own dynamic
  manager over the tenants placed on it; when any tenant's change is
  classified **major**, the replayer calls
  :meth:`~repro.fleet.FleetAdvisor.recommend_incremental` to re-place just
  the changed tenants (everything unchanged is re-priced from the cache),
  rebuilding managers only on machines whose tenant set moved.

Both replayers support three policies:

* ``"dynamic"`` — the paper's dynamic configuration management (and, at
  fleet scale, incremental re-placement on major changes);
* ``"continuous"`` — the continuous-online-refinement baseline (every
  change treated as minor, never re-place);
* ``"static"`` — the initial recommendation held for the whole trace (the
  do-nothing baseline dynamic policies are measured against).

Every cost question — what-if estimates, model refits, observed "actual"
costs, placement probes — is served through the advisor's shared
:class:`~repro.api.cache.CostCache`, so **replaying the same trace twice
performs zero new cost-estimator evaluations**: the replay's
:class:`~repro.api.report.CostCallStats` (cache-delta based) makes that
property visible in the :class:`ReplayReport`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from ..api.advisor import Advisor
from ..api.builder import ProblemBuilder
from ..api.report import CostCallStats
from ..core.dynamic import DynamicConfigurationManager
from ..core.problem import (
    CPU,
    ConsolidatedWorkload,
    FIXED_MEMORY_FRACTION_512MB,
    ResourceAllocation,
    VirtualizationDesignProblem,
)
from ..exceptions import ConfigurationError
from ..fleet.advisor import FleetAdvisor
from ..fleet.problem import FleetProblem, FleetTenant
from ..monitoring.metrics import relative_improvement
from ..monitoring.monitor import CHANGE_MAJOR
from ..parallel.backends import BackendSpec, SolveTask, resolve_backend
from ..telemetry.trace import get_tracer
from .model import WorkloadTrace

#: Replay policies.
POLICY_DYNAMIC = "dynamic"
POLICY_CONTINUOUS = "continuous"
POLICY_STATIC = "static"
POLICIES = (POLICY_DYNAMIC, POLICY_CONTINUOUS, POLICY_STATIC)

#: The paper's fixed 512 MB per-VM grant on the 8 GB testbed, used when the
#: replayed problems control CPU only (the §7.10 setting); canonical in
#: :mod:`repro.core.problem`.
DEFAULT_FIXED_MEMORY_FRACTION = FIXED_MEMORY_FRACTION_512MB


def _check_policy(policy: str) -> str:
    if policy not in POLICIES:
        raise ConfigurationError(
            f"unknown replay policy {policy!r}; expected one of "
            f"{', '.join(POLICIES)}"
        )
    return policy


def _allocation_dict(allocation: ResourceAllocation) -> Dict[str, float]:
    return {
        "cpu_share": allocation.cpu_share,
        "memory_fraction": allocation.memory_fraction,
    }


def _stats_delta(before: CostCallStats, after: CostCallStats) -> CostCallStats:
    return CostCallStats(
        evaluations=after.evaluations - before.evaluations,
        cache_hits=after.cache_hits - before.cache_hits,
        cache_misses=after.cache_misses - before.cache_misses,
    )


@dataclass(frozen=True)
class ReplayPeriod:
    """Everything one monitoring period of a replay produced.

    All per-tenant mappings are keyed by tenant name.  ``allocations`` and
    the costs describe the allocation *in force during* the period (the
    previous period's decision); re-allocations decided at period end show
    up in the next period.
    """

    period: int
    placement: Dict[str, str]
    allocations: Dict[str, Dict[str, float]]
    change_classes: Dict[str, str]
    model_actions: Dict[str, str]
    estimated_costs: Dict[str, float]
    actual_costs: Dict[str, float]
    default_cost: float
    actual_cost: float
    improvement_over_default: float
    replaced: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """The period as a JSON-safe dictionary."""
        return {
            "period": self.period,
            "placement": dict(self.placement),
            "allocations": {
                name: dict(allocation)
                for name, allocation in self.allocations.items()
            },
            "change_classes": dict(self.change_classes),
            "model_actions": dict(self.model_actions),
            "estimated_costs": dict(self.estimated_costs),
            "actual_costs": dict(self.actual_costs),
            "default_cost": self.default_cost,
            "actual_cost": self.actual_cost,
            "improvement_over_default": self.improvement_over_default,
            "replaced": self.replaced,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReplayPeriod":
        """Rebuild a period record from its dictionary form."""
        return cls(
            period=data["period"],
            placement=dict(data["placement"]),
            allocations={
                name: dict(allocation)
                for name, allocation in data["allocations"].items()
            },
            change_classes=dict(data["change_classes"]),
            model_actions=dict(data["model_actions"]),
            estimated_costs=dict(data["estimated_costs"]),
            actual_costs=dict(data["actual_costs"]),
            default_cost=data["default_cost"],
            actual_cost=data["actual_cost"],
            improvement_over_default=data["improvement_over_default"],
            replaced=data.get("replaced", False),
        )


@dataclass(frozen=True)
class ReplayReport:
    """The serializable outcome of replaying one trace under one policy.

    Attributes:
        trace_name: name of the replayed trace.
        mode: ``"single-machine"`` or ``"fleet"``.
        policy: the replay policy (``"dynamic"`` / ``"continuous"`` /
            ``"static"``).
        periods: one :class:`ReplayPeriod` per monitoring period.
        cost_stats: shared-cache traffic of the whole replay (evaluations
            equal cache misses; 0 evaluations ⇒ the replay was answered
            entirely from the cache).
        wall_time_seconds: wall-clock time of the replay.
        backend: the solver-execution backend the replay ran on
            (provenance).
        jobs: the backend's worker count.
    """

    trace_name: str
    mode: str
    policy: str
    periods: Tuple[ReplayPeriod, ...]
    cost_stats: CostCallStats
    wall_time_seconds: float
    backend: str = "serial"
    jobs: int = 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_periods(self) -> int:
        """Number of replayed periods."""
        return len(self.periods)

    @property
    def cumulative_actual_cost(self) -> float:
        """Total observed cost across all periods (the comparison metric)."""
        return sum(period.actual_cost for period in self.periods)

    @property
    def replacements(self) -> Tuple[int, ...]:
        """Periods at whose end a fleet re-placement was committed."""
        return tuple(period.period for period in self.periods if period.replaced)

    def improvements_over_default(self) -> List[float]:
        """Per-period improvement of the in-force allocation over default."""
        return [period.improvement_over_default for period in self.periods]

    def change_classes_of(self, tenant: str) -> List[str]:
        """The change classification of one tenant, period by period."""
        return [period.change_classes.get(tenant, "none") for period in self.periods]

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The report as a JSON-safe dictionary."""
        return {
            "trace_name": self.trace_name,
            "mode": self.mode,
            "policy": self.policy,
            "cumulative_actual_cost": self.cumulative_actual_cost,
            "periods": [period.to_dict() for period in self.periods],
            "cost_stats": self.cost_stats.to_dict(),
            "wall_time_seconds": self.wall_time_seconds,
            "backend": self.backend,
            "jobs": self.jobs,
        }

    def canonical_dict(self) -> Dict[str, Any]:
        """The replay's *decisions*, stripped of run artifacts.

        The determinism contract of the parallel solver backends, replay
        edition: every backend produces the serial backend's periods —
        placements, allocations, change classes, and costs — bit for bit.
        Wall-clock time, cache-traffic statistics, and the backend/jobs
        provenance are dropped.
        """
        return {
            "trace_name": self.trace_name,
            "mode": self.mode,
            "policy": self.policy,
            "cumulative_actual_cost": self.cumulative_actual_cost,
            "periods": [period.to_dict() for period in self.periods],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ReplayReport":
        """Rebuild a replay report from its dictionary form."""
        return cls(
            trace_name=data["trace_name"],
            mode=data["mode"],
            policy=data["policy"],
            periods=tuple(
                ReplayPeriod.from_dict(period) for period in data["periods"]
            ),
            cost_stats=CostCallStats.from_dict(data["cost_stats"]),
            wall_time_seconds=data["wall_time_seconds"],
            backend=data.get("backend", "serial"),
            jobs=data.get("jobs", 1),
        )

    @classmethod
    def from_json(cls, document: Union[str, bytes]) -> "ReplayReport":
        """Rebuild a replay report from a JSON document."""
        return cls.from_dict(json.loads(document))


class TraceReplayer:
    """Replays a trace on one machine through the dynamic manager.

    Args:
        trace: the workload trace to replay.
        advisor: the :class:`~repro.api.Advisor` whose enumerator, shared
            cost caches, and dynamic-manager factory drive the replay
            (a default advisor is built when omitted).
        builder: the :class:`~repro.api.ProblemBuilder` that materializes
            the trace's tenant specs (databases, engines, calibrations);
            a default builder is created when omitted.  Pass the builder
            of an :class:`~repro.experiments.harness.ExperimentContext`
            to replay against the experiment testbed's calibrations.
        policy: ``"dynamic"``, ``"continuous"``, or ``"static"``.
        fixed_memory_fraction: per-VM memory grant (the replayed problems
            control CPU only, as the dynamic manager requires).
        backend: solver-execution backend, by registered name or instance.
            Under the ``"static"`` policy the per-period evaluations are
            independent and fan out on it; the dynamic policies are a
            sequential chain (each period's decision feeds the next), so
            a single-machine dynamic replay records the backend as
            provenance but cannot overlap periods.
        jobs: worker count for a backend given by name.
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        advisor: Optional[Advisor] = None,
        builder: Optional[ProblemBuilder] = None,
        policy: str = POLICY_DYNAMIC,
        fixed_memory_fraction: float = DEFAULT_FIXED_MEMORY_FRACTION,
        backend: Optional[BackendSpec] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.trace = trace
        self.advisor = advisor if advisor is not None else Advisor()
        self.builder = builder if builder is not None else ProblemBuilder()
        self.policy = _check_policy(policy)
        self.fixed_memory_fraction = fixed_memory_fraction
        self.backend = resolve_backend(backend, jobs)

    def _period_tenants(self, period: int) -> Tuple[ConsolidatedWorkload, ...]:
        # The builder memoizes materializations by spec value, so repeated
        # states (and repeated replays) reuse identical workload objects —
        # the identity the shared cost cache answers for.
        return tuple(
            self.builder.consolidated(spec)
            for spec in self.trace.specs_at_period(period)
        )

    def replay(self) -> ReplayReport:
        """Replay every period of the trace and report what happened."""
        span = get_tracer().span(
            "replay.trace",
            trace=self.trace.name,
            mode="single-machine",
            policy=self.policy,
            periods=self.trace.n_periods,
        )
        span.__enter__()
        try:
            return self._replay()
        finally:
            span.__exit__(None, None, None)

    def _replay(self) -> ReplayReport:
        started = time.perf_counter()
        stats_before = self.advisor.cache_stats()
        machine_name = self.builder.machine.name
        names = self.trace.tenant_names()
        base_problem = VirtualizationDesignProblem(
            tenants=self._period_tenants(1),
            resources=(CPU,),
            fixed_memory_fraction=self.fixed_memory_fraction,
        )
        manager: Optional[DynamicConfigurationManager] = None
        if self.policy == POLICY_STATIC:
            static_allocations = self.advisor.recommend(base_problem).allocations
        else:
            manager = self.advisor.dynamic_manager(
                base_problem, always_refine=(self.policy == POLICY_CONTINUOUS)
            )
            manager.initial_recommendation()

        def build_period(
            period: int,
            in_force: Tuple[ResourceAllocation, ...],
            change_classes: Dict[str, str],
            model_actions: Dict[str, str],
            estimated: Dict[str, float],
            actual_costs: Dict[str, float],
            default_cost: float,
        ) -> ReplayPeriod:
            in_force_cost = sum(actual_costs.values())
            return ReplayPeriod(
                period=period,
                placement={name: machine_name for name in names},
                allocations={
                    name: _allocation_dict(allocation)
                    for name, allocation in zip(names, in_force)
                },
                change_classes=change_classes,
                model_actions=model_actions,
                estimated_costs=estimated,
                actual_costs=actual_costs,
                default_cost=default_cost,
                actual_cost=in_force_cost,
                improvement_over_default=relative_improvement(
                    default_cost, in_force_cost
                ),
            )

        periods: List[ReplayPeriod] = []
        if manager is None:
            # Static policy: the allocation never changes, so the periods
            # are independent evaluations — fan them out on the backend and
            # reassemble in period order.
            def static_period(period: int) -> ReplayPeriod:
                with get_tracer().span("replay.period", leaf=True, period=period):
                    tenants = self._period_tenants(period)
                    problem = base_problem.with_tenants(tenants)
                    actuals = self.advisor.cost_function(problem, "actual")
                    per_tenant = [
                        actuals.cost(index, allocation)
                        for index, allocation in enumerate(static_allocations)
                    ]
                    return build_period(
                        period,
                        static_allocations,
                        {},
                        {},
                        {},
                        dict(zip(names, per_tenant)),
                        actuals.total_cost(problem.default_allocation()),
                    )

            tasks = [
                SolveTask(call=lambda period=period: static_period(period))
                for period in range(1, self.trace.n_periods + 1)
            ]
            periods = list(self.backend.run(tasks))
        else:
            # Dynamic policies are a chain: period p's decision is period
            # p+1's starting allocation, so the loop stays sequential.
            for period in range(1, self.trace.n_periods + 1):
                with get_tracer().span("replay.period", leaf=True, period=period):
                    tenants = self._period_tenants(period)
                    problem = base_problem.with_tenants(tenants)
                    actuals = self.advisor.cost_function(problem, "actual")
                    in_force = manager.current_allocations
                    decision = manager.process_period(tenants)
                    periods.append(
                        build_period(
                            period,
                            in_force,
                            dict(zip(names, decision.change_classes)),
                            dict(zip(names, decision.model_actions)),
                            dict(zip(names, decision.observed_estimated_costs)),
                            dict(zip(names, decision.observed_actual_costs)),
                            actuals.total_cost(problem.default_allocation()),
                        )
                    )
        return ReplayReport(
            trace_name=self.trace.name,
            mode="single-machine",
            policy=self.policy,
            periods=tuple(periods),
            cost_stats=_stats_delta(stats_before, self.advisor.cache_stats()),
            wall_time_seconds=time.perf_counter() - started,
            backend=getattr(self.backend, "name", type(self.backend).__name__),
            jobs=self.backend.jobs,
        )


class FleetTraceReplayer:
    """Replays a trace across a fleet, re-placing tenants on major changes.

    The fleet problem supplies the machines and each tenant's placement
    footprint; the trace supplies what every tenant serves per period (the
    trace's tenant names must match the fleet's).  Per period, every
    non-idle machine's dynamic manager classifies its tenants' changes and
    re-divides the machine; under the ``"dynamic"`` policy a major change
    additionally triggers :meth:`~repro.fleet.FleetAdvisor.recommend_incremental`
    re-placement of the changed tenants at the period boundary.

    The fleet must control CPU only (``resources=["cpu"]``), matching the
    dynamic manager's scope.

    ``backend`` / ``jobs`` select the solver-execution backend: each
    period's per-machine manager steps are independent and run
    concurrently on it, and the re-placement solves fan out through the
    internally-built :class:`~repro.fleet.FleetAdvisor`.  Supplying your
    own ``advisor`` instead reuses that advisor's backend; the replayed
    periods are bit-identical to a serial replay either way
    (:meth:`ReplayReport.canonical_dict`).
    """

    def __init__(
        self,
        trace: WorkloadTrace,
        fleet: FleetProblem,
        advisor: Optional[FleetAdvisor] = None,
        policy: str = POLICY_DYNAMIC,
        replace_on_major: bool = True,
        backend: Optional[BackendSpec] = None,
        jobs: Optional[int] = None,
    ) -> None:
        if tuple(fleet.resources) != (CPU,):
            raise ConfigurationError(
                "fleet trace replay requires a CPU-only fleet "
                "(resources=['cpu']): dynamic configuration management "
                "controls CPU only, matching the paper's §7.10 setting"
            )
        trace_names = set(trace.tenant_names())
        fleet_names = set(fleet.tenant_names())
        if trace_names != fleet_names:
            missing = sorted(fleet_names - trace_names)
            extra = sorted(trace_names - fleet_names)
            raise ConfigurationError(
                f"trace tenants must match fleet tenants; "
                f"missing from trace: {missing}; not in fleet: {extra}"
            )
        self.trace = trace
        self.fleet = fleet
        if advisor is not None:
            if backend is not None or jobs is not None:
                raise ConfigurationError(
                    "pass backend/jobs either to the FleetTraceReplayer or "
                    "on the FleetAdvisor you supply, not both"
                )
            self.fleet_advisor = advisor
            self.backend = advisor.backend
        else:
            self.backend = resolve_backend(backend, jobs)
            # The replayer's re-placement calls (initial recommend +
            # incremental re-placements) fan out on the same backend as the
            # per-period manager steps.
            self.fleet_advisor = FleetAdvisor(backend=self.backend)
        self.policy = _check_policy(policy)
        self.replace_on_major = replace_on_major

    # ------------------------------------------------------------------
    # Period materialization
    # ------------------------------------------------------------------
    def _period_problem(self, period: int) -> FleetProblem:
        specs = dict(
            zip(self.trace.tenant_names(), self.trace.specs_at_period(period))
        )
        tenants = tuple(
            FleetTenant(
                spec=specs[tenant.name],
                cpu_demand=tenant.cpu_demand,
                memory_demand_mb=tenant.memory_demand_mb,
            )
            for tenant in self.fleet.tenants
        )
        return self.fleet.with_tenants(tenants)

    def _machine_loads(self, placement: Mapping[str, str]) -> Dict[int, Tuple[int, ...]]:
        """Machine index → sorted tenant indices under a placement."""
        index_of_machine = {
            machine.name: index for index, machine in enumerate(self.fleet.machines)
        }
        loads: Dict[int, List[int]] = {}
        for tenant_index, tenant in enumerate(self.fleet.tenants):
            machine_index = index_of_machine[placement[tenant.name]]
            loads.setdefault(machine_index, []).append(tenant_index)
        return {
            machine_index: tuple(sorted(indices))
            for machine_index, indices in loads.items()
        }

    def _make_manager(
        self, problem: FleetProblem, machine_index: int, indices: Tuple[int, ...]
    ) -> DynamicConfigurationManager:
        design = self.fleet_advisor.machine_problem(problem, machine_index, indices)
        manager = self.fleet_advisor.advisor.dynamic_manager(
            design, always_refine=(self.policy == POLICY_CONTINUOUS)
        )
        manager.initial_recommendation()
        return manager

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> ReplayReport:
        """Replay every period of the trace across the fleet."""
        span = get_tracer().span(
            "replay.trace",
            trace=self.trace.name,
            mode="fleet",
            policy=self.policy,
            periods=self.trace.n_periods,
        )
        span.__enter__()
        try:
            return self._replay()
        finally:
            span.__exit__(None, None, None)

    def _replay(self) -> ReplayReport:
        started = time.perf_counter()
        inner = self.fleet_advisor.advisor
        stats_before = inner.cache_stats()

        first_problem = self._period_problem(1)
        initial_report = self.fleet_advisor.recommend(first_problem)
        placement: Dict[str, str] = dict(initial_report.placement)
        loads = self._machine_loads(placement)
        static_allocations = {
            name: initial_report.tenant_allocation(name)
            for name in self.fleet.tenant_names()
        }
        managers: Dict[int, DynamicConfigurationManager] = {}
        if self.policy != POLICY_STATIC:
            managers = {
                machine_index: self._make_manager(
                    first_problem, machine_index, indices
                )
                for machine_index, indices in loads.items()
            }

        def machine_step(
            problem: FleetProblem, machine_index: int, indices: Tuple[int, ...]
        ) -> Dict[str, Any]:
            """One machine's period step; independent of every other machine."""
            design = self.fleet_advisor.machine_problem(
                problem, machine_index, indices
            )
            tenant_names = [tenant.name for tenant in design.tenants]
            actuals = inner.cost_function(design, "actual")
            record: Dict[str, Any] = {
                "default_cost": actuals.total_cost(design.default_allocation()),
                "change_classes": {},
                "model_actions": {},
                "estimated": {},
                "actual_costs": {},
                "majors": [],
            }
            if self.policy == POLICY_STATIC:
                in_force = tuple(static_allocations[name] for name in tenant_names)
                for index, name in enumerate(tenant_names):
                    record["actual_costs"][name] = actuals.cost(index, in_force[index])
            else:
                manager = managers[machine_index]
                in_force = manager.current_allocations
                decision = manager.process_period(design.tenants)
                for index, name in enumerate(tenant_names):
                    record["change_classes"][name] = decision.change_classes[index]
                    record["model_actions"][name] = decision.model_actions[index]
                    record["estimated"][name] = decision.observed_estimated_costs[index]
                    record["actual_costs"][name] = decision.observed_actual_costs[index]
                    if decision.change_classes[index] == CHANGE_MAJOR:
                        record["majors"].append(name)
            record["allocations"] = {
                name: _allocation_dict(allocation)
                for name, allocation in zip(tenant_names, in_force)
            }
            return record

        periods: List[ReplayPeriod] = []
        for period in range(1, self.trace.n_periods + 1):
            problem = self._period_problem(period)
            allocations: Dict[str, Dict[str, float]] = {}
            change_classes: Dict[str, str] = {}
            model_actions: Dict[str, str] = {}
            estimated: Dict[str, float] = {}
            actual_costs: Dict[str, float] = {}
            default_cost = 0.0
            majors: List[str] = []
            # Every machine's step is independent (its own dynamic manager,
            # its own tenants) — fan the steps out, then merge the records
            # in machine order so the period is identical to a serial run.
            ordered_loads = sorted(loads.items())
            tasks = [
                SolveTask(
                    call=lambda p=problem, m=machine_index, i=indices: (
                        machine_step(p, m, i)
                    )
                )
                for machine_index, indices in ordered_loads
            ]
            # One leaf span per period covers the machine-step fan-out;
            # an incremental re-placement (below) keeps its own subtree.
            with get_tracer().span(
                "replay.period", leaf=True, period=period, machines=len(tasks)
            ):
                records = self.backend.run(tasks)
            for record in records:
                default_cost += record["default_cost"]
                change_classes.update(record["change_classes"])
                model_actions.update(record["model_actions"])
                estimated.update(record["estimated"])
                actual_costs.update(record["actual_costs"])
                allocations.update(record["allocations"])
                majors.extend(record["majors"])

            in_force_cost = sum(actual_costs.values())
            placement_in_force = dict(placement)
            replaced = False
            if (
                self.policy == POLICY_DYNAMIC
                and self.replace_on_major
                and majors
                and period < self.trace.n_periods
            ):
                new_report = self.fleet_advisor.recommend_incremental(
                    problem, placement, moved=majors
                )
                new_placement = dict(new_report.placement)
                new_loads = self._machine_loads(new_placement)
                for machine_index, indices in new_loads.items():
                    if loads.get(machine_index) != indices:
                        managers[machine_index] = self._make_manager(
                            problem, machine_index, indices
                        )
                for machine_index in set(loads) - set(new_loads):
                    managers.pop(machine_index, None)
                replaced = True
                placement = new_placement
                loads = new_loads

            periods.append(
                ReplayPeriod(
                    period=period,
                    placement=placement_in_force,
                    allocations=allocations,
                    change_classes=change_classes,
                    model_actions=model_actions,
                    estimated_costs=estimated,
                    actual_costs=actual_costs,
                    default_cost=default_cost,
                    actual_cost=in_force_cost,
                    improvement_over_default=relative_improvement(
                        default_cost, in_force_cost
                    ),
                    replaced=replaced,
                )
            )
        return ReplayReport(
            trace_name=self.trace.name,
            mode="fleet",
            policy=self.policy,
            periods=tuple(periods),
            cost_stats=_stats_delta(stats_before, inner.cache_stats()),
            wall_time_seconds=time.perf_counter() - started,
            backend=getattr(self.backend, "name", type(self.backend).__name__),
            jobs=self.backend.jobs,
        )
