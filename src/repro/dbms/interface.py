"""Abstract interface shared by the simulated database engines.

Each engine (PostgreSQL-like, DB2-like) provides:

* an :class:`EngineConfiguration` — the optimizer parameter vector ``P_i``
  of the paper, combining descriptive parameters (CPU and I/O costs as seen
  by the optimizer) and prescriptive parameters (buffer pool and sort/work
  memory) — plus the ability to derive the *true* configuration for a VM
  environment (what a perfectly calibrated installation would use);
* an :class:`EngineCostModel` that converts a plan's logical resource usage
  into a cost expressed in the engine's native unit (PostgreSQL's
  sequential-page-read units, DB2's timerons);
* ``optimize``/``estimate_query`` methods implementing the "what-if" mode:
  given a configuration, choose a plan and report its estimated cost.

The advisor never executes queries through this interface — actual run
times come from :mod:`repro.dbms.execution` — which mirrors the paper's
separation between cost estimation (optimizer calls only) and measurement.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..exceptions import EstimationError
from ..units import MB
from ..virt.vm import VMEnvironment
from .catalog import Database
from .memory import MemoryConfiguration, MemoryPolicy
from .plans import PlanBuildContext, QueryPlan, ResourceUsage
from .planner import Planner
from .query import QuerySpec


#: Bound on the plans one engine caches.  When full, the plan cache is
#: dropped wholesale (the planner's operator memo policy); a benchmark run
#: stays far below it, and a long-lived service cannot grow without limit.
_MAX_CACHED_PLANS = 100_000


class EngineConfiguration:
    """Optimizer parameter vector ``P_i`` of one engine.

    Concrete configurations are frozen dataclasses providing at least:

    * ``work_mem_mb`` — memory available to each sort/hash operator, and
    * ``cache_mb`` — memory the optimizer believes is available for caching
      data pages.

    Being frozen dataclasses makes them hashable, so they can be used as
    cache keys for plan/cost caching (the optimization Section 4.5 of the
    paper suggests for the greedy search).  Only the two memory parameters
    shape the operators a plan is built from (they form its
    :class:`~repro.dbms.plans.PlanBuildContext`); the descriptive CPU and
    I/O parameters only weight the operators' usage when the optimizer
    chooses among them.  Configurations that differ only in CPU parameters
    therefore get plans built from the same, shared operator nodes.
    """

    work_mem_mb: float
    cache_mb: float


class EngineCostModel(ABC):
    """Converts plan resource usage into engine-native cost units."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size

    @property
    def cache_pages(self) -> float:
        """Pages the optimizer believes can be cached."""
        return self.cache_mb * MB / self.page_size

    @property
    @abstractmethod
    def cache_mb(self) -> float:
        """Cache size, in MB, assumed by this cost model."""

    @abstractmethod
    def plan_cost(self, usage: ResourceUsage) -> float:
        """Native-unit cost of a plan with the given resource usage."""


class DatabaseEngine(ABC):
    """A simulated DBMS instance bound to one database catalog."""

    #: Engine name used in reports (e.g. ``"postgresql"`` or ``"db2"``).
    name: str = "engine"
    #: Human-readable name of the engine's native cost unit.
    native_unit: str = "cost"
    #: Relative CPU efficiency of this engine's runtime (1.0 = the physical
    #: machine's nominal work-unit rate).  Calibration recovers this
    #: implicitly because it measures real probe/query times.
    cpu_efficiency: float = 1.0

    def __init__(self, database: Database, memory_policy: MemoryPolicy) -> None:
        self.database = database
        self.memory_policy = memory_policy
        self.planner = Planner(database)
        self._plan_cache: Dict[Tuple[str, EngineConfiguration], Tuple[QueryPlan, float]] = {}
        self._plan_cache_hits = 0
        self._optimizer_calls = 0
        self._plan_cache_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Abstract engine-specific pieces
    # ------------------------------------------------------------------
    @abstractmethod
    def true_configuration(self, env: VMEnvironment) -> EngineConfiguration:
        """Configuration a perfectly calibrated installation would use.

        The descriptive parameters are derived directly from the ground
        truth environment; the prescriptive parameters follow the engine's
        memory policy.  This is the configuration the engine uses to choose
        plans when workloads actually execute.
        """

    @abstractmethod
    def make_cost_model(self, configuration: EngineConfiguration) -> EngineCostModel:
        """Return the cost model parameterized by ``configuration``."""

    # ------------------------------------------------------------------
    # Shared behaviour
    # ------------------------------------------------------------------
    def seconds_per_work_unit(self, env: VMEnvironment) -> float:
        """Ground-truth seconds per CPU work unit for this engine in ``env``."""
        return env.seconds_per_work_unit * self.cpu_efficiency

    def memory_configuration(self, dbms_memory_mb: float) -> MemoryConfiguration:
        """Apply this engine's memory policy to the given DBMS memory."""
        return self.memory_policy.configure(dbms_memory_mb)

    def build_context(
        self, query: QuerySpec, configuration: EngineConfiguration
    ) -> PlanBuildContext:
        """Plan-build context implied by a configuration for one query."""
        return PlanBuildContext(
            database=self.database,
            work_mem_mb=configuration.work_mem_mb,
            cache_mb=configuration.cache_mb,
            cpu_work_per_tuple=query.cpu_work_per_tuple,
        )

    def optimize(
        self, query: QuerySpec, configuration: EngineConfiguration
    ) -> QueryPlan:
        """Choose the cheapest plan for ``query`` under ``configuration``."""
        plan, _ = self.estimate_query(query, configuration)
        return plan

    def estimate_query(
        self, query: QuerySpec, configuration: EngineConfiguration
    ) -> Tuple[QueryPlan, float]:
        """What-if call: plan and native-unit cost under ``configuration``.

        Answers are cached per ``(query, configuration)``.  The cache is
        read without a lock and written under one, which keeps it within
        :data:`_MAX_CACHED_PLANS` plans (it is dropped wholesale when full).
        Two threads may optimize the same key at once: both build equal
        answers, the cache keeps the first, and only that one is counted.
        """
        if query.database != self.database.name:
            raise EstimationError(
                f"query {query.name!r} targets database {query.database!r}, but this "
                f"{self.name} instance hosts {self.database.name!r}"
            )
        key = (query.name, configuration)
        plan_cache = self._plan_cache
        cached = plan_cache.get(key)
        if cached is not None:
            self._plan_cache_hits += 1
            return cached
        cost_model = self.make_cost_model(configuration)
        context = self.build_context(query, configuration)
        plan = self.planner.build_plan(query, context, cost_model)
        answer = (plan, cost_model.plan_cost(plan.usage))
        with self._plan_cache_lock:
            if len(plan_cache) >= _MAX_CACHED_PLANS:
                plan_cache.clear()
            kept = plan_cache.setdefault(key, answer)
            if kept is answer:
                self._optimizer_calls += 1
        return kept

    def estimate_statements(
        self,
        statements: Iterable[Tuple[QuerySpec, float]],
        configuration: EngineConfiguration,
    ) -> float:
        """Total native-unit cost of weighted statements under a configuration."""
        total = 0.0
        for query, frequency in statements:
            if frequency < 0:
                raise EstimationError(
                    f"statement frequency must not be negative (query {query.name!r})"
                )
            _, cost = self.estimate_query(query, configuration)
            total += cost * frequency
        return total

    def optimizer_call_count(self) -> int:
        """What-if calls that ran the optimizer (monotonic counter).

        Each counted call cached a new ``(query, configuration)`` plan, so
        until the plan cache first fills this equals the number of plans
        cached; unlike that number it never falls when the cache is dropped.
        """
        return self._optimizer_calls

    def plan_cache_hit_count(self) -> int:
        """What-if calls answered from the plan cache (monotonic counter)."""
        return self._plan_cache_hits

    def clear_plan_cache(self) -> None:
        """Drop all cached plans and costs, and zero the optimizer-call count."""
        with self._plan_cache_lock:
            self._plan_cache.clear()
            self._optimizer_calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(database={self.database.name!r})"
