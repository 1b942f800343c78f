"""The one memo of cost-function evaluations.

Every phase of the advisor pipeline — greedy enumeration, exhaustive
search, degradation reporting, online refinement — asks the same question:
``Cost(W_i, R_i)``.  The what-if estimator answers it by invoking the
calibrated query optimizer, which is the dominant cost of a recommendation
(Section 7.2 of the paper measures it).  The cost functions of
:mod:`repro.core.cost_estimator` evaluate on every call; this module is
where an answer is remembered.

:class:`CostCache` is a cache that can be shared across cost-function
instances, problems, and phases.  It is keyed on the *identity* of a
tenant's ``(workload, calibration)`` pair plus the allocation vector,
because the cost of a tenant depends on nothing else: degradation limits
and gain factors are applied outside the raw cost, and the physical
machine is part of the calibration.  Experiment drivers re-wrap the same
workload and calibration objects into fresh tenants and problems on every
sweep step, and :meth:`repro.api.builder.ProblemBuilder.consolidated` hands
out one workload object per tenant-spec value, so a problem built afresh
for every request still reuses every estimate made for an equal one.

:class:`CachedCostFunction` is a cheap view of one problem over a (possibly
shared) :class:`CostCache`; it exposes the same surface as
:class:`repro.core.cost_estimator.CostFunction` so enumerators, refinement,
and reports can use it interchangeably.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cost_estimator import _CACHE_DECIMALS, CostFunction
from ..core.problem import (
    ConsolidatedWorkload,
    ResourceAllocation,
    VirtualizationDesignProblem,
)
from ..exceptions import EstimationError

#: Cache keys: ((namespace, workload id, calibration id), (cpu, memory)).
#: The namespace identifies the cost semantics (cost-function family and
#: its parameters) so one cache shared across differently-configured cost
#: functions cannot serve a value computed under other parameters.  Shares
#: are rounded exactly as :func:`~repro.core.cost_estimator.quantize_allocation`
#: rounds the allocation a cost function evaluates, so a cached value is
#: always the cost of the quantized allocation its key names.  Stored keys
#: share one interned prefix per tenant and one interned share pair per
#: grid point, so each cached cost adds one small tuple and its value.
_Key = Tuple[Tuple[str, int, int], Tuple[float, float]]


#: Default bound on cached values (~tens of MB at worst); far above what a
#: full benchmark session uses, but it keeps a long-lived advisor service
#: from growing without limit.
DEFAULT_MAX_ENTRIES = 100_000


class CostCache:
    """A memoizing cost cache shareable across problems and phases.

    The cache keeps strong references to the workload and calibration
    objects appearing in its keys so that Python cannot recycle their
    ``id()`` for a different object while the cache is alive.

    Memory is bounded by ``max_entries`` via a generational reset: when the
    bound is reached the values *and* the pinned objects are dropped
    wholesale (partial eviction would need per-object reference counts to
    keep the pins sound).  The hit/miss counters survive the reset so
    in-flight statistics deltas stay monotonic.

    The cache is thread-safe: lookups, stores, counter updates, and the
    generational reset all happen under one internal lock, so concurrent
    per-machine solves (the async-fleet direction) can share a cache
    without torn counters or a reset racing a store.  The lock is never
    held while a cost is being *evaluated* — only around the dictionary
    operations — so contention stays negligible next to an optimizer call.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._values: Dict[_Key, float] = {}
        self._pins: Dict[int, object] = {}
        self._interned: Dict[tuple, tuple] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _keys(
        namespace: str,
        tenant: ConsolidatedWorkload,
        allocations: Sequence[ResourceAllocation],
    ) -> List[_Key]:
        prefix = (namespace, id(tenant.workload), id(tenant.calibration))
        return [
            (
                prefix,
                (
                    round(allocation.cpu_share, _CACHE_DECIMALS),
                    round(allocation.memory_fraction, _CACHE_DECIMALS),
                ),
            )
            for allocation in allocations
        ]

    def get(
        self,
        namespace: str,
        tenant: ConsolidatedWorkload,
        allocation: ResourceAllocation,
    ) -> Optional[float]:
        """Cached cost of ``tenant`` under ``allocation``, or ``None``."""
        (key,) = self._keys(namespace, tenant, (allocation,))
        with self._lock:
            value = self._values.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            return value

    def get_many(
        self,
        namespace: str,
        tenant: ConsolidatedWorkload,
        allocations: Sequence[ResourceAllocation],
    ) -> Tuple[List[_Key], List[Optional[float]]]:
        """Keys and cached costs (``None`` if missing) of a batch, aligned.

        Each key is built once and the lock is taken once.  The counters
        move as a :meth:`get`/:meth:`put` loop over the batch would move
        them: one miss per distinct missing key, a hit for everything else
        (a repeat of a missing key finds the first occurrence's value).
        """
        keys = self._keys(namespace, tenant, allocations)
        with self._lock:
            lookup = self._values.get
            values = [lookup(key) for key in keys]
            misses = len({key for key, value in zip(keys, values) if value is None})
            self.misses += misses
            self.hits += len(keys) - misses
        return keys, values

    def put(
        self,
        namespace: str,
        tenant: ConsolidatedWorkload,
        allocation: ResourceAllocation,
        value: float,
    ) -> None:
        """Store the cost of ``tenant`` under ``allocation``."""
        (key,) = self._keys(namespace, tenant, (allocation,))
        self.put_many(tenant, {key: value})

    def put_many(self, tenant: ConsolidatedWorkload, values: Dict[_Key, float]) -> None:
        """Store costs of ``tenant`` under keys :meth:`get_many` returned."""
        with self._lock:
            intern = self._interned.setdefault
            for key, value in values.items():
                if key not in self._values and len(self._values) >= self.max_entries:
                    self._values.clear()
                    self._pins.clear()
                    self._interned.clear()
                prefix, shares = key
                self._values[(intern(prefix, prefix), intern(shares, shares))] = value
            self._pins.setdefault(id(tenant.workload), tenant.workload)
            self._pins.setdefault(id(tenant.calibration), tenant.calibration)

    @property
    def size(self) -> int:
        """Number of cached cost values."""
        with self._lock:
            return len(self._values)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached values and reset the counters."""
        with self._lock:
            self._values.clear()
            self._pins.clear()
            self._interned.clear()
            self.hits = 0
            self.misses = 0


class CachedCostFunction(CostFunction):
    """A cost function memoized through a (shareable) :class:`CostCache`.

    Wraps any :class:`~repro.core.cost_estimator.CostFunction`; lookups hit
    the shared cache first and only fall through to the wrapped function on
    a miss.  ``call_count`` mirrors the wrapped function's, i.e. it counts
    *actual evaluations*, which is what
    :class:`~repro.core.enumerator.EnumerationResult` reports as
    ``cost_calls``.  The derived totals (``weighted_cost``, ``total_cost``,
    ``degradation``, ...) are inherited from the base class and route
    through the cached :meth:`cost`.

    Cache entries are namespaced by the wrapped function's
    ``cache_namespace`` (its family plus cost-relevant parameters), so one
    cache shared across differently-configured cost functions stays sound.
    """

    def __init__(
        self,
        problem: VirtualizationDesignProblem,
        inner: CostFunction,
        cache: Optional[CostCache] = None,
    ) -> None:
        # Deliberately no super().__init__(): ``call_count`` is a read-only
        # mirror of the wrapped function's counter here, not an attribute.
        self.problem = problem
        self.inner = inner
        self.cache = cache if cache is not None else CostCache()
        self._namespace = getattr(inner, "cache_namespace", type(inner).__name__)
        batch = getattr(inner, "cost_many", None)
        if callable(batch):
            self._evaluate_many = batch
        else:
            self._evaluate_many = lambda index, allocations: [
                inner.cost(index, allocation) for allocation in allocations
            ]

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def call_count(self) -> int:
        """Underlying cost evaluations performed (cache hits excluded)."""
        return self.inner.call_count

    #: Alias used by the report's cost-call statistics.
    @property
    def evaluations(self) -> int:
        return self.inner.call_count

    # ------------------------------------------------------------------
    # CostFunction surface
    # ------------------------------------------------------------------
    def _cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        raise NotImplementedError(  # pragma: no cover - cost() never calls this
            "CachedCostFunction delegates to its wrapped cost function"
        )

    def cost(self, tenant_index: int, allocation: ResourceAllocation) -> float:
        """Cost (seconds) of tenant ``tenant_index`` under ``allocation``."""
        if not 0 <= tenant_index < self.problem.n_workloads:
            raise EstimationError(f"tenant index {tenant_index} out of range")
        tenant = self.problem.tenant(tenant_index)
        cached = self.cache.get(self._namespace, tenant, allocation)
        if cached is not None:
            return cached
        value = self.inner.cost(tenant_index, allocation)
        self.cache.put(self._namespace, tenant, allocation, value)
        return value

    def cost_many(
        self, tenant_index: int, allocations: Sequence[ResourceAllocation]
    ) -> List[float]:
        """Batch counterpart of :meth:`cost` over the shared cache.

        Misses are deduplicated within the batch and evaluated in one call
        through the wrapped function's batch path; hit/miss accounting
        matches what the equivalent sequence of :meth:`cost` calls would
        record (a repeated allocation counts as a hit).
        """
        if not 0 <= tenant_index < self.problem.n_workloads:
            raise EstimationError(f"tenant index {tenant_index} out of range")
        tenant = self.problem.tenant(tenant_index)
        keys, values = self.cache.get_many(self._namespace, tenant, allocations)
        missing: Dict[_Key, ResourceAllocation] = {}
        for key, allocation, value in zip(keys, allocations, values):
            if value is None:
                missing.setdefault(key, allocation)
        if not missing:
            return values
        fresh = dict(
            zip(missing, self._evaluate_many(tenant_index, list(missing.values())))
        )
        self.cache.put_many(tenant, fresh)
        return [fresh[key] if value is None else value for key, value in zip(keys, values)]
