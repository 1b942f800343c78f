"""Calibration orchestration for the PostgreSQL and DB2 engines.

This module implements the per-DBMS calibration procedure of Sections
4.2–4.4 of the paper:

1. *Renormalization* — determine the factor that converts the engine's
   native cost unit to seconds (a measured seconds-per-sequential-page for
   PostgreSQL, a regression over calibration queries for DB2).
2. *Descriptive-parameter calibration* — for each CPU allocation level in a
   grid, measure calibration queries or probes inside a VM with that
   allocation, solve the engine's cost equations for the CPU parameters,
   and fit a calibration function that is linear in ``1 / cpu share``.
   I/O parameters are calibrated once (at a single CPU and memory setting)
   because they are independent of CPU and memory, the observation the
   paper uses to keep calibration cheap (Section 4.4).
3. *Prescriptive-parameter policy* — the calibration result mimics the
   DBMS's memory sizing policy when it maps candidate memory allocations to
   buffer-pool / sort-memory settings.

The result of calibration is an :class:`EngineCalibration`, which is what
the advisor's cost estimator uses to answer "what-if" questions: given a
candidate resource allocation, produce optimizer parameters, ask the engine
for the workload's native cost, and renormalize it to seconds.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..dbms.db2.engine import DB2Engine
from ..dbms.db2.params import DB2Parameters
from ..dbms.execution import ExecutionModel
from ..dbms.interface import DatabaseEngine, EngineConfiguration
from ..dbms.plans import PlanBuildContext, QueryPlan
from ..dbms.postgres.engine import PostgreSQLEngine
from ..dbms.postgres.params import PostgreSQLParameters
from ..dbms.query import QuerySpec
from ..exceptions import CalibrationError
from ..units import validate_fraction
from ..virt.hypervisor import Hypervisor
from ..virt.machine import PhysicalMachine
from ..virt.vm import DEFAULT_OS_RESERVED_MB, VMEnvironment
from .probes import cpu_speed_probe, random_io_probe, sequential_io_probe
from .queries import CalibrationQuery, calibration_database, calibration_queries
from .regression import LinearFit, fit_linear
from .renormalize import RegressionRenormalizer, Renormalizer, ScalarRenormalizer

#: Smallest value a calibrated cost parameter is allowed to take; protects
#: the cost model against tiny negative values produced by solving noisy
#: calibration equations.
_MIN_PARAMETER_VALUE = 1e-9

#: Bound on the parameter vectors one calibration remembers.  When full, the
#: memo is dropped wholesale, the policy of the cost cache; a benchmark run
#: stays far below it.
_MAX_PARAMETER_VECTORS = 10_000


@dataclass(frozen=True)
class CalibrationSettings:
    """Settings controlling the calibration procedure.

    Attributes:
        cpu_shares: CPU allocation levels at which CPU parameters are
            calibrated.
        memory_fraction: memory allocation (fraction of physical memory) at
            which CPU parameters are calibrated; the paper uses 50%.
        io_cpu_share: CPU allocation at which the I/O parameters are
            calibrated (they are independent of CPU, so one level suffices).
        os_reserved_mb: memory reserved for the guest OS in every VM.
        io_contention_intensity: intensity of the noisy-neighbour I/O VM
            present during calibration (the paper keeps it running so that
            calibration sees the same contention as the experiments).
    """

    cpu_shares: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    memory_fraction: float = 0.5
    io_cpu_share: float = 0.5
    os_reserved_mb: float = DEFAULT_OS_RESERVED_MB
    io_contention_intensity: float = 1.0

    def __post_init__(self) -> None:
        if not self.cpu_shares:
            raise CalibrationError("cpu_shares must not be empty")
        for share in self.cpu_shares:
            validate_fraction(share, "cpu_share")
            if share <= 0:
                raise CalibrationError("cpu_shares must be strictly positive")
        validate_fraction(self.memory_fraction, "memory_fraction")
        validate_fraction(self.io_cpu_share, "io_cpu_share")


@dataclass
class CalibrationReport:
    """Accounting of what calibration cost (Section 7.2)."""

    probe_seconds: float = 0.0
    query_seconds: float = 0.0
    probe_runs: int = 0
    query_runs: int = 0
    cpu_levels: int = 0

    @property
    def total_seconds(self) -> float:
        """Total simulated wall-clock time spent calibrating."""
        return self.probe_seconds + self.query_seconds


def calibration_environment(
    machine: PhysicalMachine,
    cpu_share: float,
    memory_fraction: float,
    settings: CalibrationSettings,
) -> VMEnvironment:
    """Realize a calibration VM and return its environment.

    A fresh hypervisor is used for every setting so that calibration does
    not interfere with any VMs the caller may have created on the machine.
    """
    hypervisor = Hypervisor(machine)
    contention_memory_mb = 0.0
    if settings.io_contention_intensity > 0:
        contention_memory_mb = 64.0
        hypervisor.create_contention_vm(
            "calibration-io-noise", io_intensity=settings.io_contention_intensity,
            cpu_share=0.0, memory_mb=contention_memory_mb,
        )
    memory_mb = max(
        settings.os_reserved_mb + 64.0, memory_fraction * machine.memory_mb
    )
    memory_mb = min(memory_mb, machine.memory_mb - contention_memory_mb)
    vm = hypervisor.create_vm(
        "calibration-vm",
        cpu_share=cpu_share,
        memory_mb=memory_mb,
        os_reserved_mb=settings.os_reserved_mb,
    )
    return vm.environment()


# ----------------------------------------------------------------------
# Calibration results
# ----------------------------------------------------------------------
class EngineCalibration(ABC):
    """Result of calibrating one engine on one physical machine.

    A calibration is not mutated once :func:`calibrate_engine` returns it:
    its fits, engine and memory policy stay as calibrated.  An allocation's
    optimizer parameters are therefore a pure function of its
    ``(cpu_share, memory_fraction)`` pair, and
    :meth:`parameters_for_allocation` builds each pair's immutable vector
    once (subclasses implement the build, :meth:`_build_parameters`).

    The memo is read without a lock and written under one, within
    :data:`_MAX_PARAMETER_VECTORS` vectors.  Two threads may build one
    pair's vector at once; both hold equal vectors and the memo keeps the
    first, so the race is harmless.  A pair that fails to build (a
    non-positive CPU share) is not remembered and raises on every call.
    """

    def __init__(
        self,
        engine: DatabaseEngine,
        machine: PhysicalMachine,
        settings: CalibrationSettings,
        renormalizer: Renormalizer,
        report: CalibrationReport,
    ) -> None:
        self.engine = engine
        self.machine = machine
        self.settings = settings
        self.renormalizer = renormalizer
        self.report = report
        #: Raw calibration samples keyed by parameter name; each entry is a
        #: list of ``(1 / cpu_share, value)`` pairs.  Exposed for the
        #: calibration figures (Figs. 5–8).
        self.samples: Dict[str, List[Tuple[float, float]]] = {}
        self._parameters: Dict[Tuple[float, float], EngineConfiguration] = {}
        self._parameters_lock = threading.Lock()

    # ------------------------------------------------------------------
    # The what-if interface used by the advisor's cost estimator
    # ------------------------------------------------------------------
    def parameters_for_allocation(
        self, cpu_share: float, memory_fraction: float
    ) -> EngineConfiguration:
        """Optimizer parameters corresponding to a candidate allocation."""
        key = (cpu_share, memory_fraction)
        memo = self._parameters
        parameters = memo.get(key)
        if parameters is None:
            parameters = self._build_parameters(cpu_share, memory_fraction)
            with self._parameters_lock:
                if len(memo) >= _MAX_PARAMETER_VECTORS:
                    memo.clear()
                parameters = memo.setdefault(key, parameters)
        return parameters

    @abstractmethod
    def _build_parameters(
        self, cpu_share: float, memory_fraction: float
    ) -> EngineConfiguration:
        """Build the optimizer parameters of an allocation (uncached)."""

    def dbms_memory_mb(self, memory_fraction: float) -> float:
        """Memory available to the DBMS under a candidate memory allocation."""
        memory_mb = memory_fraction * self.machine.memory_mb
        return max(16.0, memory_mb - self.settings.os_reserved_mb)

    def estimate_workload_seconds(
        self,
        statements: Iterable[Tuple[QuerySpec, float]],
        cpu_share: float,
        memory_fraction: float,
    ) -> float:
        """Estimated cost, in seconds, of a workload under an allocation."""
        configuration = self.parameters_for_allocation(cpu_share, memory_fraction)
        native = self.engine.estimate_statements(statements, configuration)
        return self.renormalizer.to_seconds(native)

    def estimate_workload_seconds_many(
        self,
        statements: Iterable[Tuple[QuerySpec, float]],
        allocations: Iterable[Tuple[float, float]],
    ) -> List[float]:
        """Estimated costs of one workload under many allocations.

        ``allocations`` is an iterable of ``(cpu_share, memory_fraction)``
        pairs.  The statement list is materialized once; plans are
        optimized once per distinct engine configuration and reused across
        allocations through the engine's plan cache, so building a whole
        cost table costs one optimizer call per (statement, configuration)
        pair instead of one per (statement, grid point).
        """
        statements = list(statements)
        parameters = self.parameters_for_allocation
        estimate = self.engine.estimate_statements
        to_seconds = self.renormalizer.to_seconds
        return [
            to_seconds(estimate(statements, parameters(cpu_share, memory_fraction)))
            for cpu_share, memory_fraction in allocations
        ]

    def estimate_query_seconds(
        self, query: QuerySpec, cpu_share: float, memory_fraction: float
    ) -> float:
        """Estimated cost, in seconds, of a single query under an allocation."""
        configuration = self.parameters_for_allocation(cpu_share, memory_fraction)
        _, native = self.engine.estimate_query(query, configuration)
        return self.renormalizer.to_seconds(native)

    def plan_signature(
        self, query: QuerySpec, cpu_share: float, memory_fraction: float
    ) -> str:
        """Signature of the plan chosen for ``query`` under an allocation.

        Online refinement uses plan-signature changes across memory levels
        to define the piecewise-linear intervals ``A_ij``.
        """
        configuration = self.parameters_for_allocation(cpu_share, memory_fraction)
        plan = self.engine.optimize(query, configuration)
        return plan.signature


class PostgreSQLCalibration(EngineCalibration):
    """Calibration of a PostgreSQL engine."""

    def __init__(
        self,
        engine: PostgreSQLEngine,
        machine: PhysicalMachine,
        settings: CalibrationSettings,
        renormalizer: ScalarRenormalizer,
        report: CalibrationReport,
        cpu_tuple_cost_fit: LinearFit,
        cpu_operator_cost_fit: LinearFit,
        cpu_index_tuple_cost_fit: LinearFit,
        random_page_cost: float,
    ) -> None:
        super().__init__(engine, machine, settings, renormalizer, report)
        self.cpu_tuple_cost_fit = cpu_tuple_cost_fit
        self.cpu_operator_cost_fit = cpu_operator_cost_fit
        self.cpu_index_tuple_cost_fit = cpu_index_tuple_cost_fit
        self.random_page_cost = random_page_cost

    def _build_parameters(
        self, cpu_share: float, memory_fraction: float
    ) -> PostgreSQLParameters:
        if cpu_share <= 0:
            raise CalibrationError("cpu_share must be positive")
        inverse_share = 1.0 / cpu_share
        memory = self.engine.memory_configuration(self.dbms_memory_mb(memory_fraction))
        return PostgreSQLParameters(
            random_page_cost=max(_MIN_PARAMETER_VALUE, self.random_page_cost),
            cpu_tuple_cost=max(
                _MIN_PARAMETER_VALUE, self.cpu_tuple_cost_fit.predict(inverse_share)
            ),
            cpu_operator_cost=max(
                _MIN_PARAMETER_VALUE, self.cpu_operator_cost_fit.predict(inverse_share)
            ),
            cpu_index_tuple_cost=max(
                _MIN_PARAMETER_VALUE,
                self.cpu_index_tuple_cost_fit.predict(inverse_share),
            ),
            shared_buffers_mb=memory.buffer_pool_mb,
            work_mem_mb=memory.work_mem_mb,
            effective_cache_size_mb=memory.total_cache_mb,
        )


class DB2Calibration(EngineCalibration):
    """Calibration of a DB2 engine."""

    def __init__(
        self,
        engine: DB2Engine,
        machine: PhysicalMachine,
        settings: CalibrationSettings,
        renormalizer: RegressionRenormalizer,
        report: CalibrationReport,
        cpuspeed_fit: LinearFit,
        overhead_ms: float,
        transfer_rate_ms: float,
    ) -> None:
        super().__init__(engine, machine, settings, renormalizer, report)
        self.cpuspeed_fit = cpuspeed_fit
        self.overhead_ms = overhead_ms
        self.transfer_rate_ms = transfer_rate_ms

    def _build_parameters(
        self, cpu_share: float, memory_fraction: float
    ) -> DB2Parameters:
        if cpu_share <= 0:
            raise CalibrationError("cpu_share must be positive")
        inverse_share = 1.0 / cpu_share
        memory = self.engine.memory_configuration(self.dbms_memory_mb(memory_fraction))
        return DB2Parameters(
            cpuspeed_ms=max(
                _MIN_PARAMETER_VALUE, self.cpuspeed_fit.predict(inverse_share)
            ),
            overhead_ms=max(_MIN_PARAMETER_VALUE, self.overhead_ms),
            transfer_rate_ms=max(_MIN_PARAMETER_VALUE, self.transfer_rate_ms),
            bufferpool_mb=memory.buffer_pool_mb,
            sortheap_mb=memory.work_mem_mb,
        )


# ----------------------------------------------------------------------
# Measurement helpers (also reused by the calibration benchmarks)
# ----------------------------------------------------------------------
def _calibration_engine(engine: DatabaseEngine) -> DatabaseEngine:
    """An engine of the same type as ``engine`` bound to the calibration DB."""
    return type(engine)(calibration_database(), memory_policy=engine.memory_policy)


def _known_plan(query: CalibrationQuery, engine: DatabaseEngine) -> QueryPlan:
    """Wrap a calibration query's known plan so the executor can time it."""
    context = PlanBuildContext(database=engine.database, work_mem_mb=32.0)
    return QueryPlan(query=query.spec, root=query.plan_root, context=context)


def measure_postgresql_cpu_parameters(
    engine: PostgreSQLEngine,
    machine: PhysicalMachine,
    cpu_share: float,
    memory_fraction: float,
    settings: Optional[CalibrationSettings] = None,
    report: Optional[CalibrationReport] = None,
) -> Dict[str, float]:
    """Solve the PostgreSQL CPU-parameter calibration equations at one setting.

    Returns a dict with ``cpu_tuple_cost``, ``cpu_operator_cost``, and
    ``cpu_index_tuple_cost`` values for the given CPU share and memory
    fraction.  This is Step 1–3 of the basic methodology of Section 4.3.
    """
    settings = settings or CalibrationSettings()
    cal_engine = _calibration_engine(engine)
    queries = calibration_queries(cal_engine.database)
    env = calibration_environment(machine, cpu_share, memory_fraction, settings)
    executor = ExecutionModel(cal_engine)

    # The renormalization factor: seconds per sequential page read.
    seq_probe = sequential_io_probe(env)
    rand_probe = random_io_probe(env)
    renormalizer = ScalarRenormalizer(seconds_per_unit=seq_probe.value)
    random_page_cost = rand_probe.value / seq_probe.value

    memory = cal_engine.memory_configuration(env.dbms_memory_mb)
    base_params = PostgreSQLParameters(
        random_page_cost=random_page_cost,
        shared_buffers_mb=memory.buffer_pool_mb,
        work_mem_mb=memory.work_mem_mb,
        effective_cache_size_mb=memory.total_cache_mb,
    )
    cost_model = cal_engine.make_cost_model(base_params)

    def io_cost_of(query: CalibrationQuery) -> float:
        """The I/O portion of the optimizer's cost equation (no CPU terms)."""
        zero_cpu = base_params.with_cpu_costs(
            _MIN_PARAMETER_VALUE, _MIN_PARAMETER_VALUE, _MIN_PARAMETER_VALUE
        )
        return cal_engine.make_cost_model(zero_cpu).plan_cost(query.usage)

    def measure(query: CalibrationQuery) -> float:
        seconds = executor.execute_plan(_known_plan(query, cal_engine), env).total_seconds
        if report is not None:
            report.query_seconds += seconds
            report.query_runs += 1
        return seconds

    count_q = queries["cal_count"]
    group_q = queries["cal_group"]
    index_q = queries["cal_index"]

    t_count = measure(count_q)
    t_group = measure(group_q)
    t_index = measure(index_q)

    # Two-equation system for cpu_tuple_cost and cpu_operator_cost.
    from .regression import solve_linear_system

    lhs = [
        [count_q.usage.tuples, count_q.usage.operator_evals],
        [group_q.usage.tuples, group_q.usage.operator_evals],
    ]
    rhs = [
        t_count / renormalizer.seconds_per_unit - io_cost_of(count_q),
        t_group / renormalizer.seconds_per_unit - io_cost_of(group_q),
    ]
    cpu_tuple_cost, cpu_operator_cost = solve_linear_system(lhs, rhs)
    cpu_tuple_cost = max(_MIN_PARAMETER_VALUE, cpu_tuple_cost)
    cpu_operator_cost = max(_MIN_PARAMETER_VALUE, cpu_operator_cost)

    # Index-tuple cost from the index query, with the other parameters known.
    index_usage = index_q.usage
    residual = (
        t_index / renormalizer.seconds_per_unit
        - io_cost_of(index_q)
        - cpu_tuple_cost * index_usage.tuples
        - cpu_operator_cost * index_usage.operator_evals
    )
    if index_usage.index_tuples <= 0:
        raise CalibrationError("the index calibration query visits no index entries")
    cpu_index_tuple_cost = max(
        _MIN_PARAMETER_VALUE, residual / index_usage.index_tuples
    )
    if report is not None:
        report.probe_seconds += seq_probe.duration_seconds + rand_probe.duration_seconds
        report.probe_runs += 2
    return {
        "cpu_tuple_cost": cpu_tuple_cost,
        "cpu_operator_cost": cpu_operator_cost,
        "cpu_index_tuple_cost": cpu_index_tuple_cost,
        "random_page_cost": random_page_cost,
        "seconds_per_seq_page": seq_probe.value,
    }


def measure_db2_cpu_parameters(
    machine: PhysicalMachine,
    cpu_share: float,
    memory_fraction: float,
    settings: Optional[CalibrationSettings] = None,
    report: Optional[CalibrationReport] = None,
) -> Dict[str, float]:
    """Measure the DB2 ``cpuspeed`` (and I/O parameters) at one setting."""
    settings = settings or CalibrationSettings()
    env = calibration_environment(machine, cpu_share, memory_fraction, settings)
    cpu_probe = cpu_speed_probe(env)
    seq_probe = sequential_io_probe(env)
    rand_probe = random_io_probe(env)
    if report is not None:
        report.probe_seconds += (
            cpu_probe.duration_seconds
            + seq_probe.duration_seconds
            + rand_probe.duration_seconds
        )
        report.probe_runs += 3
    return {
        "cpuspeed_ms": cpu_probe.value * 1000.0,
        "transfer_rate_ms": seq_probe.value * 1000.0,
        "overhead_ms": max(1e-9, (rand_probe.value - seq_probe.value) * 1000.0),
    }


# ----------------------------------------------------------------------
# Full calibration procedures
# ----------------------------------------------------------------------
def calibrate_postgresql(
    engine: PostgreSQLEngine,
    machine: PhysicalMachine,
    settings: Optional[CalibrationSettings] = None,
) -> PostgreSQLCalibration:
    """Run the full PostgreSQL calibration procedure."""
    settings = settings or CalibrationSettings()
    report = CalibrationReport(cpu_levels=len(settings.cpu_shares))

    # I/O parameters and the renormalization factor are calibrated once.
    io_env = calibration_environment(
        machine, settings.io_cpu_share, settings.memory_fraction, settings
    )
    seq_probe = sequential_io_probe(io_env)
    rand_probe = random_io_probe(io_env)
    report.probe_seconds += seq_probe.duration_seconds + rand_probe.duration_seconds
    report.probe_runs += 2
    renormalizer = ScalarRenormalizer(seconds_per_unit=seq_probe.value)
    random_page_cost = rand_probe.value / seq_probe.value

    # CPU parameters are calibrated at each CPU level (memory held at 50%).
    inverse_shares: List[float] = []
    tuple_costs: List[float] = []
    operator_costs: List[float] = []
    index_costs: List[float] = []
    for share in settings.cpu_shares:
        values = measure_postgresql_cpu_parameters(
            engine, machine, share, settings.memory_fraction, settings, report
        )
        inverse_shares.append(1.0 / share)
        tuple_costs.append(values["cpu_tuple_cost"])
        operator_costs.append(values["cpu_operator_cost"])
        index_costs.append(values["cpu_index_tuple_cost"])

    calibration = PostgreSQLCalibration(
        engine=engine,
        machine=machine,
        settings=settings,
        renormalizer=renormalizer,
        report=report,
        cpu_tuple_cost_fit=fit_linear(inverse_shares, tuple_costs),
        cpu_operator_cost_fit=fit_linear(inverse_shares, operator_costs),
        cpu_index_tuple_cost_fit=fit_linear(inverse_shares, index_costs),
        random_page_cost=random_page_cost,
    )
    calibration.samples = {
        "cpu_tuple_cost": list(zip(inverse_shares, tuple_costs)),
        "cpu_operator_cost": list(zip(inverse_shares, operator_costs)),
        "cpu_index_tuple_cost": list(zip(inverse_shares, index_costs)),
        "random_page_cost": [(1.0 / settings.io_cpu_share, random_page_cost)],
    }
    return calibration


def calibrate_db2(
    engine: DB2Engine,
    machine: PhysicalMachine,
    settings: Optional[CalibrationSettings] = None,
) -> DB2Calibration:
    """Run the full DB2 calibration procedure."""
    settings = settings or CalibrationSettings()
    report = CalibrationReport(cpu_levels=len(settings.cpu_shares))

    # I/O parameters: independent of CPU and memory, calibrated once.
    io_values = measure_db2_cpu_parameters(
        machine, settings.io_cpu_share, settings.memory_fraction, settings, report
    )
    overhead_ms = io_values["overhead_ms"]
    transfer_rate_ms = io_values["transfer_rate_ms"]

    # cpuspeed at each CPU level.
    inverse_shares: List[float] = []
    cpuspeeds: List[float] = []
    for share in settings.cpu_shares:
        values = measure_db2_cpu_parameters(
            machine, share, settings.memory_fraction, settings, report
        )
        inverse_shares.append(1.0 / share)
        cpuspeeds.append(values["cpuspeed_ms"])
    cpuspeed_fit = fit_linear(inverse_shares, cpuspeeds)

    # Renormalization: regress measured calibration-query times against
    # estimated timerons across the calibration grid.
    cal_engine = _calibration_engine(engine)
    queries = calibration_queries(cal_engine.database)
    executor = ExecutionModel(cal_engine)
    estimated_timerons: List[float] = []
    measured_seconds: List[float] = []
    for share in settings.cpu_shares:
        env = calibration_environment(
            machine, share, settings.memory_fraction, settings
        )
        memory = cal_engine.memory_configuration(env.dbms_memory_mb)
        params = DB2Parameters(
            cpuspeed_ms=cpuspeed_fit.predict(1.0 / share),
            overhead_ms=overhead_ms,
            transfer_rate_ms=transfer_rate_ms,
            bufferpool_mb=memory.buffer_pool_mb,
            sortheap_mb=memory.work_mem_mb,
        )
        cost_model = cal_engine.make_cost_model(params)
        for query in queries.values():
            estimated_timerons.append(cost_model.plan_cost(query.usage))
            seconds = executor.execute_plan(
                _known_plan(query, cal_engine), env
            ).total_seconds
            measured_seconds.append(seconds)
            report.query_seconds += seconds
            report.query_runs += 1
    renormalizer = RegressionRenormalizer.from_observations(
        estimated_timerons, measured_seconds
    )

    calibration = DB2Calibration(
        engine=engine,
        machine=machine,
        settings=settings,
        renormalizer=renormalizer,
        report=report,
        cpuspeed_fit=cpuspeed_fit,
        overhead_ms=overhead_ms,
        transfer_rate_ms=transfer_rate_ms,
    )
    calibration.samples = {
        "cpuspeed": list(zip(inverse_shares, cpuspeeds)),
        "overhead": [(1.0 / settings.io_cpu_share, overhead_ms)],
        "transfer_rate": [(1.0 / settings.io_cpu_share, transfer_rate_ms)],
    }
    return calibration


def calibrate_engine(
    engine: DatabaseEngine,
    machine: PhysicalMachine,
    settings: Optional[CalibrationSettings] = None,
) -> EngineCalibration:
    """Calibrate ``engine`` on ``machine`` (dispatches on the engine type)."""
    if isinstance(engine, PostgreSQLEngine):
        return calibrate_postgresql(engine, machine, settings)
    if isinstance(engine, DB2Engine):
        return calibrate_db2(engine, machine, settings)
    raise CalibrationError(
        f"no calibration procedure is registered for engine type {type(engine).__name__}"
    )
