"""Fluent construction of virtualization design problems.

Assembling a :class:`~repro.core.problem.VirtualizationDesignProblem` by
hand takes ~20 lines of boilerplate — build a database catalog, bind an
engine to it, calibrate the engine on the physical machine, resolve query
templates, compose workloads, and wrap everything into tenants — and the
seed repeated that block in every example, benchmark, and the quickstart.
:class:`ProblemBuilder` owns that plumbing: it lazily builds and caches
databases, engines, calibrations, and query templates per
``(engine, benchmark, scale)`` spec, so two tenants on the same engine
share one calibration, exactly like the paper's methodology (calibration
is a one-time, per-DBMS, per-machine step).

    from repro.api import ProblemBuilder

    problem = (
        ProblemBuilder()
        .add_tenant("pg-io-bound", engine="postgresql", statements=[("q17", 1.0)])
        .add_tenant("db2-cpu-bound", engine="db2", statements=[("q18", 1.0)])
        .build()
    )
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..calibration import CalibrationSettings, calibrate_engine
from ..calibration.calibrator import EngineCalibration
from ..core.problem import (
    CPU,
    ConsolidatedWorkload,
    MEMORY,
    RESOURCE_NAMES,
    UNLIMITED_DEGRADATION,
    VirtualizationDesignProblem,
)
from ..dbms.catalog import Database
from ..dbms.db2 import DB2Engine
from ..dbms.interface import DatabaseEngine
from ..dbms.postgres import PostgreSQLEngine
from ..dbms.query import QuerySpec
from ..exceptions import ConfigurationError
from ..virt.machine import PhysicalMachine
from ..workloads.tpcc import tpcc_database, tpcc_transactions
from ..workloads.tpch import tpch_database, tpch_queries
from ..workloads.workload import Workload, WorkloadStatement

#: Calibration grid used when the builder is not given explicit settings; a
#: small grid keeps the one-time calibration fast while still exercising the
#: regression over several CPU levels (the quickstart's historical default).
DEFAULT_CALIBRATION_SETTINGS = CalibrationSettings(
    cpu_shares=(0.2, 0.4, 0.6, 0.8, 1.0)
)

#: Bound on memoized spec materializations (the fleet advisor's tenant
#: materializations go through it; eviction only costs re-evaluation,
#: never correctness).
_CONSOLIDATED_MEMO_SIZE = 4096

#: One workload statement, in any of the accepted spellings:
#: ``"q18"``, ``("q18", 25.0)``, or ``{"query": "q18", "frequency": 25.0}``.
StatementSpec = Union[str, Tuple[str, float], Mapping[str, object]]

_SpecKey = Tuple[str, str, float, Optional[str]]


def _normalize_statement(spec: StatementSpec) -> Tuple[str, float]:
    if isinstance(spec, str):
        return (spec, 1.0)
    if isinstance(spec, Mapping):
        try:
            query = str(spec["query"])
        except KeyError:
            raise ConfigurationError(
                f"statement spec {spec!r} is missing the 'query' key"
            ) from None
        try:
            return (query, float(spec.get("frequency", 1.0)))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"statement spec {spec!r} has a non-numeric frequency"
            ) from exc
    if isinstance(spec, Sequence) and len(spec) == 2:
        try:
            return (str(spec[0]), float(spec[1]))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"statement spec {spec!r} has a non-numeric frequency"
            ) from exc
    raise ConfigurationError(
        f"cannot interpret statement spec {spec!r}; expected a query name, a "
        f"(name, frequency) pair, or a {{'query': ..., 'frequency': ...}} mapping"
    )


class ProblemBuilder:
    """Fluently assembles consolidation problems from engine/workload specs.

    All configuration methods return ``self`` so calls chain; ``build()``
    produces the immutable problem.  The builder may be reused to build
    several problems sharing the cached calibrations (call
    :meth:`clear_tenants` between builds).
    """

    def __init__(
        self,
        machine: Optional[PhysicalMachine] = None,
        calibration_settings: Optional[CalibrationSettings] = None,
    ) -> None:
        self.machine = machine or PhysicalMachine()
        self.calibration_settings = calibration_settings or DEFAULT_CALIBRATION_SETTINGS
        self._tenants: List[ConsolidatedWorkload] = []
        self._resources: Tuple[str, ...] = (CPU, MEMORY)
        self._fixed_memory_fraction: float = 0.0625
        #: Set when the fixed memory was requested in MB (cpu_only), so the
        #: fraction can be recomputed if the machine changes afterwards.
        self._fixed_memory_mb: Optional[float] = None
        self._databases: Dict[_SpecKey, Database] = {}
        self._engines: Dict[_SpecKey, DatabaseEngine] = {}
        self._calibrations: Dict[_SpecKey, EngineCalibration] = {}
        self._queries: Dict[_SpecKey, Dict[str, QuerySpec]] = {}
        #: Materialized declarative tenants, memoized by spec *value* (LRU
        #: bounded): equal specs return the identical workload object, which
        #: is the identity the shared cost cache answers for — a repeated
        #: trace replay or fleet solve re-evaluates nothing.
        self._consolidated_memo: "OrderedDict[Tuple, ConsolidatedWorkload]" = (
            OrderedDict()
        )
        #: Guards every cache above.  Concurrent per-machine solves (the
        #: thread solver backend) materialize tenants through one builder;
        #: the reentrant lock keeps check-then-create chains (consolidated →
        #: queries → database, calibration → engine → database) atomic so
        #: equal specs always resolve to the *same* workload object — the
        #: identity the shared cost cache answers for.  Calibration runs
        #: under the lock: it is the one-time per-(engine, machine) step,
        #: and running it twice concurrently would waste far more than the
        #: serialization costs.
        self._cache_lock = threading.RLock()

    # ------------------------------------------------------------------
    # Machine / calibration / resource configuration
    # ------------------------------------------------------------------
    def with_machine(self, machine: PhysicalMachine) -> "ProblemBuilder":
        """Use a specific physical machine (before any calibration)."""
        if self._calibrations:
            raise ConfigurationError(
                "cannot change the physical machine after engines have been "
                "calibrated on it"
            )
        self.machine = machine
        if self._fixed_memory_mb is not None:
            # Re-derive only the fixed memory fraction against the new
            # machine (a cpu_only(fixed_memory_mb=...) request keeps meaning
            # MB) without touching the controlled-resource set.
            if not 0.0 < self._fixed_memory_mb <= machine.memory_mb:
                raise ConfigurationError(
                    f"the fixed memory grant of {self._fixed_memory_mb:g} MB "
                    f"does not fit the new machine's {machine.memory_mb:g} MB"
                )
            self._fixed_memory_fraction = self._fixed_memory_mb / machine.memory_mb
        return self

    def with_calibration(
        self, settings: Optional[CalibrationSettings] = None, **kwargs
    ) -> "ProblemBuilder":
        """Use specific calibration settings (or build them from kwargs)."""
        if settings is not None and kwargs:
            raise ConfigurationError(
                "pass either a CalibrationSettings instance or keyword "
                "arguments, not both"
            )
        if self._calibrations:
            raise ConfigurationError(
                "cannot change calibration settings after engines have been "
                "calibrated"
            )
        self.calibration_settings = settings or CalibrationSettings(**kwargs)
        return self

    def control(self, *resources: str) -> "ProblemBuilder":
        """Choose which resources the advisor allocates (``"cpu"``, ``"memory"``)."""
        if not resources:
            raise ConfigurationError("control() needs at least one resource name")
        for resource in resources:
            if resource not in RESOURCE_NAMES:
                raise ConfigurationError(
                    f"unknown resource {resource!r}; expected one of {RESOURCE_NAMES}"
                )
        self._resources = tuple(resources)
        return self

    def cpu_only(self, fixed_memory_mb: float = 512.0) -> "ProblemBuilder":
        """Allocate CPU only, giving every VM a fixed memory grant.

        This is the paper's CPU-only experimental setting (512 MB per VM).
        """
        if not 0.0 < fixed_memory_mb <= self.machine.memory_mb:
            raise ConfigurationError(
                f"fixed_memory_mb must be within (0, {self.machine.memory_mb:g}] "
                f"(the machine's physical memory), got {fixed_memory_mb:g}"
            )
        self._resources = (CPU,)
        self._fixed_memory_mb = fixed_memory_mb
        self._fixed_memory_fraction = fixed_memory_mb / self.machine.memory_mb
        return self

    def with_fixed_memory_fraction(self, fraction: float) -> "ProblemBuilder":
        """Memory fraction per VM when memory is not a controlled resource."""
        self._fixed_memory_fraction = fraction
        self._fixed_memory_mb = None
        return self

    # ------------------------------------------------------------------
    # Cached infrastructure accessors
    # ------------------------------------------------------------------
    def _key(
        self, engine: str, benchmark: str, scale: float, database_name: Optional[str]
    ) -> _SpecKey:
        return (engine, benchmark, float(scale), database_name)

    def database(
        self,
        engine: str,
        benchmark: str = "tpch",
        scale: float = 1.0,
        database_name: Optional[str] = None,
    ) -> Database:
        """The (cached) database catalog for one engine/benchmark/scale."""
        key = self._key(engine, benchmark, scale, database_name)
        with self._cache_lock:
            if key not in self._databases:
                name = database_name or f"{benchmark}_{engine}_{scale:g}"
                if benchmark == "tpch":
                    self._databases[key] = tpch_database(scale, name=name)
                elif benchmark == "tpcc":
                    self._databases[key] = tpcc_database(int(scale), name=name)
                else:
                    raise ConfigurationError(
                        f"unknown benchmark {benchmark!r}; expected 'tpch' or 'tpcc'"
                    )
            return self._databases[key]

    def engine(
        self,
        engine: str,
        benchmark: str = "tpch",
        scale: float = 1.0,
        database_name: Optional[str] = None,
    ) -> DatabaseEngine:
        """The (cached) engine instance for one engine/benchmark/scale."""
        key = self._key(engine, benchmark, scale, database_name)
        with self._cache_lock:
            if key not in self._engines:
                database = self.database(engine, benchmark, scale, database_name)
                if engine == "postgresql":
                    self._engines[key] = PostgreSQLEngine(database)
                elif engine == "db2":
                    self._engines[key] = DB2Engine(database)
                else:
                    raise ConfigurationError(
                        f"unknown engine {engine!r}; expected 'postgresql' or 'db2'"
                    )
            return self._engines[key]

    def calibration(
        self,
        engine: str,
        benchmark: str = "tpch",
        scale: float = 1.0,
        database_name: Optional[str] = None,
    ) -> EngineCalibration:
        """The (cached) calibration of one engine on the builder's machine."""
        key = self._key(engine, benchmark, scale, database_name)
        with self._cache_lock:
            if key not in self._calibrations:
                self._calibrations[key] = calibrate_engine(
                    self.engine(engine, benchmark, scale, database_name),
                    self.machine,
                    self.calibration_settings,
                )
            return self._calibrations[key]

    def queries(
        self,
        engine: str,
        benchmark: str = "tpch",
        scale: float = 1.0,
        database_name: Optional[str] = None,
    ) -> Dict[str, QuerySpec]:
        """The (cached) query/transaction templates for one database."""
        key = self._key(engine, benchmark, scale, database_name)
        with self._cache_lock:
            if key not in self._queries:
                database = self.database(engine, benchmark, scale, database_name)
                if benchmark == "tpch":
                    self._queries[key] = tpch_queries(database)
                else:
                    self._queries[key] = tpcc_transactions(database)
            return self._queries[key]

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def add_tenant(
        self,
        name: Optional[str] = None,
        engine: str = "postgresql",
        benchmark: str = "tpch",
        scale: float = 1.0,
        statements: Optional[Sequence[StatementSpec]] = None,
        workload: Optional[Workload] = None,
        calibration: Optional[EngineCalibration] = None,
        degradation_limit: Optional[float] = None,
        gain_factor: float = 1.0,
        database_name: Optional[str] = None,
    ) -> "ProblemBuilder":
        """Add one consolidated workload to the problem.

        Either supply ``statements`` — query names (with frequencies)
        resolved against the tenant's database templates — or a prebuilt
        ``workload`` (typically composed from :meth:`queries` of this same
        builder so the databases match); passing ``name`` alongside a
        workload renames it.  ``degradation_limit=None`` means unlimited.
        """
        if (statements is None) == (workload is None):
            raise ConfigurationError(
                "add_tenant() needs exactly one of 'statements' or 'workload'"
            )
        if workload is not None and name is not None:
            workload = workload.with_name(name)
        if workload is None:
            if name is None:
                name = f"tenant-{len(self._tenants) + 1}"
            templates = self.queries(engine, benchmark, scale, database_name)
            built: List[WorkloadStatement] = []
            for spec in statements:
                query_name, frequency = _normalize_statement(spec)
                if query_name not in templates:
                    raise ConfigurationError(
                        f"tenant {name!r} references unknown query "
                        f"{query_name!r}; available: {', '.join(sorted(templates))}"
                    )
                built.append(
                    WorkloadStatement(query=templates[query_name], frequency=frequency)
                )
            workload = Workload(name=name, statements=tuple(built))
        if calibration is None:
            calibration = self.calibration(engine, benchmark, scale, database_name)
        self._tenants.append(
            ConsolidatedWorkload(
                workload=workload,
                calibration=calibration,
                degradation_limit=(
                    UNLIMITED_DEGRADATION if degradation_limit is None
                    else degradation_limit
                ),
                gain_factor=gain_factor,
            )
        )
        return self

    def consolidated(self, spec) -> ConsolidatedWorkload:
        """Materialize one declarative tenant spec, without adding it.

        ``spec`` is any :class:`~repro.api.scenario.TenantSpec`-shaped
        object (``name``, ``engine``, ``benchmark``, ``scale``,
        ``statements``, ``degradation_limit``, ``gain_factor``); statement
        names are resolved against the spec's (cached) query templates and
        the engine's (cached) calibration is attached.  This is the shared
        materialization path of the fleet advisor and the trace replayer,
        which build tenants per machine / per period rather than per
        problem.

        Materializations are memoized by the spec's value, so asking for an
        equal spec again returns the *same* consolidated workload object
        (and therefore the same shared-cost-cache identity) — including
        from concurrent solver-backend threads, which the memo's lock keeps
        from materializing one spec twice.
        """
        limit = getattr(spec, "degradation_limit", None)
        gain = getattr(spec, "gain_factor", 1.0)
        memo_key = (
            spec.name,
            spec.engine,
            spec.benchmark,
            float(spec.scale),
            tuple(spec.statements),
            limit,
            gain,
        )
        with self._cache_lock:
            memoized = self._consolidated_memo.get(memo_key)
            if memoized is not None:
                self._consolidated_memo.move_to_end(memo_key)
                return memoized
            templates = self.queries(spec.engine, spec.benchmark, spec.scale)
            statements: List[WorkloadStatement] = []
            for query_name, frequency in spec.statements:
                if query_name not in templates:
                    raise ConfigurationError(
                        f"tenant {spec.name!r} references unknown query "
                        f"{query_name!r}; available: {', '.join(sorted(templates))}"
                    )
                statements.append(
                    WorkloadStatement(query=templates[query_name], frequency=frequency)
                )
            consolidated = ConsolidatedWorkload(
                workload=Workload(name=spec.name, statements=tuple(statements)),
                calibration=self.calibration(spec.engine, spec.benchmark, spec.scale),
                degradation_limit=UNLIMITED_DEGRADATION if limit is None else limit,
                gain_factor=gain,
            )
            self._consolidated_memo[memo_key] = consolidated
            while len(self._consolidated_memo) > _CONSOLIDATED_MEMO_SIZE:
                self._consolidated_memo.popitem(last=False)
            return consolidated

    def clear_tenants(self) -> "ProblemBuilder":
        """Drop the tenants added so far (calibration caches are kept)."""
        self._tenants = []
        return self

    @property
    def n_tenants(self) -> int:
        """Number of tenants added so far."""
        return len(self._tenants)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> VirtualizationDesignProblem:
        """Assemble the immutable design problem."""
        if not self._tenants:
            raise ConfigurationError(
                "add at least one tenant (add_tenant) before build()"
            )
        return VirtualizationDesignProblem(
            tenants=tuple(self._tenants),
            resources=self._resources,
            fixed_memory_fraction=self._fixed_memory_fraction,
        )
