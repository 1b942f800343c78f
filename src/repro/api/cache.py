"""The one memo of cost-function evaluations.

Every phase of the advisor pipeline — greedy enumeration, exhaustive
search, degradation reporting, online refinement — asks the same question:
``Cost(W_i, R_i)``.  The what-if estimator answers it by invoking the
calibrated query optimizer, which is the dominant cost of a recommendation
(Section 7.2 of the paper measures it).  The cost functions of
:mod:`repro.core.cost_estimator` evaluate on every call; this module is
where an answer is remembered.

:class:`CostCache` is a cache that can be shared across cost-function
instances, problems, and phases; an :class:`~repro.api.Advisor` keeps one
behind all of its cost functions.  It keeps one row of costs per tenant
and cost namespace, keyed on the *identity* of the tenant's ``(workload,
calibration)`` pair, and a row maps the allocation vector to its cost,
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

from ..core.cost_estimator import CostFunction, quantize_shares
from ..core.problem import (
    ConsolidatedWorkload,
    ResourceAllocation,
    VirtualizationDesignProblem,
)
from ..exceptions import EstimationError

#: A tenant's row key: (namespace, workload id, calibration id).  The
#: namespace identifies the cost semantics (cost-function family and its
#: parameters) so one cache shared across differently-configured cost
#: functions cannot serve a value computed under other parameters.
_RowKey = Tuple[str, int, int]

#: A row maps canonical (cpu, memory) share pairs to costs.  A pair is made
#: canonical by :func:`~repro.core.cost_estimator.quantize_shares`, the
#: rounding :func:`~repro.core.cost_estimator.quantize_allocation` applies
#: to the allocation a cost function evaluates, so a cached value is always
#: the cost of the quantized allocation its key names.  Canonical pairs are
#: interned across rows (every tenant walks the same grid), so each cached
#: cost adds one row slot and its value.
_Shares = Tuple[float, float]
_Row = Dict[_Shares, float]


#: Default bound on cached values (~7 MB full when tenants walk a shared
#: grid, ~25 MB if no share pair repeated); far above what a full benchmark
#: run uses, but it keeps a long-lived advisor service from growing without
#: limit.
DEFAULT_MAX_ENTRIES = 100_000


class CostCache:
    """A memoizing cost cache shareable across problems and phases.

    Values live in one *row* per tenant, keyed by :data:`_RowKey` and
    mapping canonical share pairs to costs.  A :class:`CachedCostFunction`
    resolves each of its tenants' rows once (:meth:`row`) and answers a
    hit with one dictionary lookup in the row.

    Raw pairs carry ``±delta`` float noise, and rounding one was the
    costliest step of a hit, so a *key map* (:meth:`keys`) maps each raw
    pair the cache has been asked about to its canonical pair; a canonical
    pair maps to itself, which interns it.  The map holds at most
    ``max_entries`` pairs and is dropped wholesale when full.

    The cache keeps strong references to the workload and calibration
    objects appearing in its row keys so that Python cannot recycle their
    ``id()`` for a different object while the cache is alive.

    Memory is bounded by ``max_entries`` via a generational reset: when the
    bound is reached the rows, the pinned objects *and* the key map are
    dropped wholesale (partial eviction would need per-object reference
    counts to keep the pins sound).  The hit/miss counters survive the
    reset so in-flight statistics deltas stay monotonic.

    The cache is thread-safe.  Stores, key-map inserts, counter updates,
    row creation and the generational reset happen under one internal
    lock, which is never held while a cost is being *evaluated*.  Reading
    a row or the key map takes no lock: a row is a plain dict that only
    ever gains keys, each stored once with the one cost its key names
    (costs are pure functions of the key), and a reset drops rows from the
    cache instead of emptying them, so a lock-free ``row.get`` finds
    either the right cost or nothing; a key-map read likewise finds the
    one canonical pair or nothing.
    A row dropped by a reset stays readable by whoever resolved it (their
    problem keeps the tenant's objects, and so their ids, alive) but is
    never grown again: :meth:`store` re-resolves it, so ``size`` counts
    every value the cache holds and never exceeds ``max_entries``.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._rows: Dict[_RowKey, _Row] = {}
        self._pins: Dict[int, object] = {}
        #: Raw share pair -> its canonical pair (see :meth:`keys`).
        self._keys: Dict[_Shares, _Shares] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0

    def row(self, namespace: str, tenant: ConsolidatedWorkload) -> _Row:
        """``tenant``'s current row of cached costs (created if missing).

        An existing row is one dictionary read, without the lock: rows are
        created under it and never emptied, and the pins keep the ids in
        the key naming the caller's objects.  Callers read the row without
        the lock too (see the class docstring), count their lookups with
        :meth:`count`, and grow it only through :meth:`store`.
        """
        key = (namespace, id(tenant.workload), id(tenant.calibration))
        row = self._rows.get(key)
        if row is None:
            with self._lock:
                row = self._current_row(key, tenant)
        return row

    def _current_row(self, key: _RowKey, tenant: ConsolidatedWorkload) -> _Row:
        """The row cached under ``key``, created and pinned if missing (lock held)."""
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = {}
            self._pins.setdefault(id(tenant.workload), tenant.workload)
            self._pins.setdefault(id(tenant.calibration), tenant.calibration)
        return row

    def keys(self, shares: Sequence[_Shares]) -> List[_Shares]:
        """The canonical row keys of raw ``(cpu, memory)`` share pairs.

        A pair the key map knows is answered without rounding; the others
        are rounded by :func:`~repro.core.cost_estimator.quantize_shares`
        and entered, with their canonical pairs, under the lock.
        """
        key_map = self._keys
        keys = list(map(key_map.get, shares))
        if None not in keys:
            return keys
        fresh = {
            pair: quantize_shares(*pair)
            for pair, key in zip(shares, keys)
            if key is None
        }
        with self._lock:
            for pair, key in fresh.items():
                # Room for the canonical pair and the raw one.
                if len(key_map) + 2 > self.max_entries:
                    key_map.clear()
                key = fresh[pair] = key_map.setdefault(key, key)
                if len(key_map) < self.max_entries:
                    key_map[pair] = key
        return [fresh[pair] if key is None else key for pair, key in zip(shares, keys)]

    def count(self, hits: int, misses: int) -> None:
        """Record ``hits`` lookups answered from a row and ``misses`` not."""
        with self._lock:
            self.hits += hits
            self.misses += misses

    def store(
        self,
        namespace: str,
        tenant: ConsolidatedWorkload,
        row: _Row,
        values: Dict[_Shares, float],
    ) -> _Row:
        """Store costs of ``tenant`` by share pair; returns its current row.

        ``row`` is the row the caller resolved with :meth:`row`.  If a
        generational reset has dropped it since, or one happens while
        storing, the values go to a freshly resolved row, which the caller
        should read from then on.  A share pair another thread stored
        first keeps its (identical) value.  The pairs of ``values`` are
        stored as given: canonical pairs from :meth:`keys` arrive interned.
        """
        key = (namespace, id(tenant.workload), id(tenant.calibration))
        with self._lock:
            if self._rows.get(key) is not row:
                row = self._current_row(key, tenant)
            for shares, value in values.items():
                if shares in row:
                    continue
                if self._size >= self.max_entries:
                    self._reset()
                    row = self._current_row(key, tenant)
                row[shares] = value
                self._size += 1
        return row

    def _reset(self) -> None:
        """Drop the rows, the pins and the key map (lock held)."""
        self._rows.clear()
        self._pins.clear()
        self._keys.clear()
        self._size = 0

    @property
    def size(self) -> int:
        """Number of cached cost values."""
        with self._lock:
            return self._size

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached values and reset the counters."""
        with self._lock:
            self._reset()
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

    Cache rows are namespaced by the wrapped function's ``cache_namespace``
    (its family plus cost-relevant parameters), so one cache shared across
    differently-configured cost functions stays sound.  Each tenant's row
    is resolved on its first lookup (:meth:`CostCache.row`) and kept for
    the life of this view (one view serves one problem), so a hit is one
    lookup in that row.

    :meth:`cost`, :meth:`cost_many` and :meth:`cost_shares` (the greedy
    enumerator's ``(cpu, memory)`` share pairs) are one keyed lookup,
    :meth:`_lookup`; a cached pair is answered without building an
    allocation.
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
        #: Each tenant's cache row by tenant index, ``None`` until first use.
        self._rows: List[Optional[_Row]] = [None] * problem.n_workloads

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
        shares = ((allocation.cpu_share, allocation.memory_fraction),)
        return self._lookup(tenant_index, shares)[0]

    def cost_many(
        self, tenant_index: int, allocations: Sequence[ResourceAllocation]
    ) -> List[float]:
        """Batch counterpart of :meth:`cost` over the shared cache.

        Misses are deduplicated within the batch and evaluated in one call
        through the wrapped function's batch path; hit/miss accounting
        matches what the equivalent sequence of :meth:`cost` calls would
        record (a repeated allocation counts as a hit).
        """
        shares = [
            (allocation.cpu_share, allocation.memory_fraction)
            for allocation in allocations
        ]
        return self._lookup(tenant_index, shares)

    def cost_shares(self, tenant_index: int, shares: Sequence[_Shares]) -> List[float]:
        """:meth:`cost_many` at ``(cpu_share, memory_fraction)`` pairs."""
        return self._lookup(tenant_index, shares)

    def _lookup(self, tenant_index: int, shares: Sequence[_Shares]) -> List[float]:
        """Costs of one tenant at share pairs: the one keyed lookup path.

        Each raw pair is keyed by its canonical pair (:meth:`CostCache.keys`
        rounds only pairs it has not seen).  Only a miss builds an
        allocation, at the canonical pair its key names, and the wrapped
        function evaluates the batch's distinct misses at once.
        """
        rows = self._rows
        if not 0 <= tenant_index < len(rows):
            raise EstimationError(f"tenant index {tenant_index} out of range")
        row = rows[tenant_index]
        if row is None:
            row = rows[tenant_index] = self.cache.row(
                self._namespace, self.problem.tenant(tenant_index)
            )
        keys = self.cache.keys(shares)
        values = list(map(row.get, keys))
        if None not in values:
            self.cache.count(len(values), 0)
            return values
        missing = list(
            dict.fromkeys(key for key, value in zip(keys, values) if value is None)
        )
        self.cache.count(len(keys) - len(missing), len(missing))
        allocations = [ResourceAllocation(cpu, memory) for cpu, memory in missing]
        fresh = dict(zip(missing, self.inner.cost_many(tenant_index, allocations)))
        rows[tenant_index] = self.cache.store(
            self._namespace, self.problem.tenant(tenant_index), row, fresh
        )
        return [fresh[key] if value is None else value for key, value in zip(keys, values)]
