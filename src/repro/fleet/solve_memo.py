"""The fleet solve-memo: whole per-machine solve results, cached by value.

The cost layer already memoizes aggressively — the shared
:class:`~repro.api.cache.CostCache` never re-evaluates a (workload,
calibration, allocation) question — but a placement *probe* still re-runs
the per-machine enumerator's search over those cached values every time it
prices a candidate co-location.  On a warm fleet advisor that search is
the dominant cost of a probe: a re-solved fleet, a served ``/fleet``
request or a replayed trace period asks again about tenant sets an
earlier run already solved, and machines sharing a ``hardware_key``
share their candidate sets.

:class:`SolveMemo` closes that gap by caching the *entire solve result*
keyed by the value of everything the answer depends on: the machine's
hardware shape (+ calibration overrides), the tenant-set spec digest, and
the problem's resource/memory-model knobs (see ``FleetAdvisor._solve_key``).
An entry (:class:`Solved`) holds the per-machine
:class:`~repro.api.advisor.Search` and its gain-weighted cost — all a
placement probe reads — and, once a placement commits to the machine,
the :class:`~repro.api.report.RecommendationReport` assembled from that
search.  A placement prices many tenant sets but commits to at most one
per machine, so the sets it only probes never pay for a report, and a
warm repeat of a committed machine is still one lookup.  Each fleet
advisor owns its memo and keeps one inner advisor for life, so answers
never cross advisor configurations.
A memo hit turns a repeat probe into one dictionary lookup.  Within one
placement run the fleet solver asks the memo only once per (hardware
shape, tenant set) and answers repeat asks from its own per-run cost
table, so the memo's hits come from across runs (warm re-solves, served
``/fleet`` requests, trace replay) and from the committed solves that
follow a run's probes.  Infeasible co-locations (the enumerator raised
:class:`~repro.exceptions.OptimizationError`) are memoized too, as the
error message, so repeatedly probing a QoS-blocked candidate never re-runs
the search either.

The memo follows the fleet advisor's house rules for memoized state: a
single lock guards every access (probes arrive concurrently from the
thread/asyncio backends), it is LRU-bounded like the builder's
``consolidated`` memo (eviction never affects correctness — an evicted
entry is simply re-solved through the cost cache), and it keeps hit/miss
counters that surface as ``placement_solve_hits`` in
:class:`~repro.api.report.CostCallStats` and in the service's ``/stats``
payload.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional

from ..api.advisor import Search
from ..api.report import RecommendationReport
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


class Solved:
    """Memoized outcome of a feasible per-machine solve.

    ``search`` and its gain-weighted cost are set when the solve is first
    made; ``report`` stays ``None`` until a placement commits to the
    machine and the fleet advisor assembles it from ``search``.  Two
    threads committing at once may both assemble it: the reports are
    equal, and the entry keeps whichever is stored last.
    """

    __slots__ = ("search", "weighted_cost", "report")

    def __init__(self, search: Search, weighted_cost: float) -> None:
        self.search = search
        self.weighted_cost = weighted_cost
        self.report: Optional[RecommendationReport] = None


class SolveMemo:
    """Thread-safe, LRU-bounded memo of whole per-machine solve results.

    Values are either :class:`Solved` entries or :class:`Infeasible`
    markers; keys are opaque hashables built by the
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
        :attr:`hits`; the caller distinguishes feasible results
        (:class:`Solved` entries) from :class:`Infeasible` markers.
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
        """Store a solve result (:class:`Solved` or :class:`Infeasible`), evicting LRU-first."""
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

