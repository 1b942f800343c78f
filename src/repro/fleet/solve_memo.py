"""The fleet solve-memo: whole per-machine solve results, cached by value.

The cost layer already memoizes aggressively — the shared
:class:`~repro.api.cache.CostCache` never re-evaluates a (workload,
calibration, allocation) question — but a placement *probe* still re-runs
the per-machine enumerator's search over those cached values every time it
prices a candidate co-location.  On a warm fleet advisor that search is
the dominant cost of a probe: greedy placement prices every (tenant,
machine) pair, the local-search improver re-prices the same tenant sets
across rounds, and machines sharing a ``hardware_key`` re-solve identical
candidate sets from scratch.

:class:`SolveMemo` closes that gap by caching the *entire solve result* —
the chosen allocation (as a :class:`~repro.api.report.RecommendationReport`)
plus its gain-weighted cost — keyed by the value of everything the answer
depends on: the machine's hardware shape (+ calibration overrides), the
tenant-set spec digest, and the problem's resource/memory-model knobs (see
``FleetAdvisor._solve_key``).  Each fleet advisor owns its memo and keeps
one inner advisor for life, so answers never cross advisor configurations.
A memo hit turns a repeat probe into one dictionary lookup.  Infeasible co-locations (the enumerator raised
:class:`~repro.exceptions.OptimizationError`) are memoized too, as the
error message, so repeatedly probing a QoS-blocked candidate never re-runs
the search either.

The memo follows the fleet advisor's house rules for memoized state: a
single lock guards every access (probes arrive concurrently from the
thread/asyncio backends), it is LRU-bounded like the problem memo
(eviction never affects correctness — an evicted entry is simply re-solved
through the cost cache), and it keeps hit/miss counters that surface as
``placement_solve_hits`` in :class:`~repro.api.report.CostCallStats` and
in the service's ``/stats`` payload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from ..exceptions import ConfigurationError
from ..telemetry.instruments import MEMO_HITS, MEMO_MISSES

#: Bound on retained solve results.  A greedy+local-search run over a
#: T-tenant × M-machine fleet touches O(T·M + T²) distinct tenant sets;
#: this comfortably covers repeated runs over several distinct fleets.
DEFAULT_SOLVE_MEMO_SIZE = 4096


class Infeasible:
    """Memoized outcome of a solve the enumerator proved infeasible.

    Stores the original :class:`~repro.exceptions.OptimizationError`
    message so a repeat ask can raise an equivalent error without
    re-running the search.
    """

    __slots__ = ("message",)

    def __init__(self, message: str) -> None:
        self.message = message

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Infeasible({self.message!r})"


class SolveMemo:
    """Thread-safe, LRU-bounded memo of whole per-machine solve results.

    Values are either ``(report, weighted_cost)`` tuples or
    :class:`Infeasible` markers; keys are opaque hashables built by the
    fleet advisor.  All statistics are monotone counters over the memo's
    lifetime (:meth:`clear` resets them with the entries).
    """

    def __init__(self, max_entries: int = DEFAULT_SOLVE_MEMO_SIZE) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable) -> Optional[Any]:
        """The memoized result for ``key``, or ``None`` (counted as a miss).

        A hit refreshes the entry's LRU position and increments
        :attr:`hits`; the caller distinguishes feasible results (a
        ``(report, weighted)`` tuple) from :class:`Infeasible` markers.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
            else:
                self._entries.move_to_end(key)
                self._hits += 1
        # Outside the memo lock: the process-wide counters have their own.
        if entry is None:
            MEMO_MISSES.inc()
            return None
        MEMO_HITS.inc()
        return entry

    def put(self, key: Hashable, value: Any) -> None:
        """Store a solve result (or :class:`Infeasible`), evicting LRU-first."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    def stats(self) -> Dict[str, Any]:
        """A JSON-safe statistics snapshot (the ``/stats`` payload shape)."""
        with self._lock:
            hits, misses, entries = self._hits, self._misses, len(self._entries)
        lookups = hits + misses
        return {
            "entries": entries,
            "max_entries": self.max_entries,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / lookups if lookups else 0.0,
        }


SolveResult = Tuple[Any, float]
