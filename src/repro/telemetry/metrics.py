"""A process-wide metrics registry with Prometheus-text exposition.

Counters, gauges, and fixed-bucket histograms, zero dependencies.  Every
instrument is a *family* — a metric name plus a fixed tuple of label
names — whose labeled children hold the actual values::

    REQUESTS = REGISTRY.counter(
        "repro_requests_total", "Requests served.", labelnames=("endpoint",)
    )
    REQUESTS.labels(endpoint="fleet").inc()

A family with no label names acts as its own single child (``inc`` /
``set`` / ``observe`` directly on it), which it binds once at
registration.  All updates are lock-guarded per family, so concurrent
solver threads produce exact totals; hot call sites of labeled families
bind their child once at import time (``labels()`` is memoized) so an
update is one lock acquisition and one addition.

:func:`MetricsRegistry.render` emits the standard Prometheus text
format (``text/plain; version=0.0.4``) with families and children in
sorted order — deterministic output for tests and diffing.  Metrics are
always on: unlike tracing there is no enable switch, because the
instruments live on paths where one counter bump is noise (a solve, a
request, a memo lookup — never the per-allocation cost inner loop).
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..exceptions import TelemetryError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "quantile_from_buckets",
    "LATENCY_BUCKETS",
]

#: Upper bounds (seconds) shared by every latency histogram: sub-ms
#: memo-served probes up through multi-second exact searches.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_METRIC_KINDS = ("counter", "gauge", "histogram")


def _format_value(value: float) -> str:
    """Prometheus sample formatting: integers without a trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def quantile_from_buckets(
    cumulative: Sequence[Tuple[float, int]], q: float
) -> Optional[float]:
    """Estimate the ``q``-quantile from cumulative ``(bound, count)`` pairs.

    The estimator every latency SLI in the system shares: it works on the
    exposition-format data — cumulative bucket counts with ascending upper
    bounds, ``+Inf`` last — so it applies equally to a live
    :class:`Histogram`, a scraped ``/metrics`` family, or the *difference*
    of two scrapes (a load step's server-side latency).  Linear
    interpolation within the bucket that crosses the target rank, with the
    first bucket anchored at 0 (every instrumented quantity here is
    non-negative).  A rank landing in the ``+Inf`` bucket clamps to the
    highest finite bound (the standard Prometheus behaviour), and an empty
    histogram has no quantiles (``None``).
    """
    if not 0.0 <= q <= 1.0:
        raise TelemetryError(f"quantile must be in [0, 1], got {q}")
    if not cumulative:
        return None
    total = cumulative[-1][1]
    if total <= 0:
        return None
    rank = q * total
    lower_bound = 0.0
    previous_count = 0
    for bound, count in cumulative:
        if count >= rank and count > previous_count:
            if bound == math.inf:
                # No finite upper edge to interpolate toward: clamp.
                return lower_bound
            in_bucket = count - previous_count
            fraction = (rank - previous_count) / in_bucket
            return lower_bound + (bound - lower_bound) * max(0.0, fraction)
        if bound != math.inf:
            lower_bound = bound
        previous_count = count
    return lower_bound


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _label_suffix(labelnames: Sequence[str], labelvalues: Sequence[str]) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Child:
    """Shared plumbing for one labeled child of a metric family."""

    __slots__ = ("_family", "_labelvalues")

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        self._family = family
        self._labelvalues = labelvalues


class Counter(_Child):
    """A monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        super().__init__(family, labelvalues)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self._family.name!r} cannot decrease (inc({amount}))"
            )
        with self._family._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._family._lock:
            return self._value

    def _samples(self) -> List[Tuple[str, str, float]]:
        suffix = _label_suffix(self._family.labelnames, self._labelvalues)
        return [(self._family.name, suffix, self.value)]


class Gauge(_Child):
    """A value that can go up and down — or track a live callback."""

    __slots__ = ("_value", "_callback")

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        super().__init__(family, labelvalues)
        self._value = 0.0
        self._callback: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._family._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, callback: Callable[[], float]) -> None:
        """Read ``callback()`` at exposition time instead of a stored value.

        The bridge for values other objects already track (e.g. the fleet
        solve-memo's hit ratio): the registry stays the single scrape
        surface without double-counting state.
        """
        with self._family._lock:
            self._callback = callback

    @property
    def value(self) -> float:
        with self._family._lock:
            callback = self._callback
            if callback is None:
                return self._value
        return float(callback())

    def _samples(self) -> List[Tuple[str, str, float]]:
        suffix = _label_suffix(self._family.labelnames, self._labelvalues)
        return [(self._family.name, suffix, self.value)]


class Histogram(_Child):
    """Observations bucketed by fixed upper bounds (plus ``+Inf``)."""

    __slots__ = ("_counts", "_sum", "_count")

    def __init__(self, family: "_Family", labelvalues: Tuple[str, ...]) -> None:
        super().__init__(family, labelvalues)
        self._counts = [0] * (len(family.buckets) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self._family.buckets, value)
        with self._family._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._family._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._family._lock:
            return self._sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ``+Inf`` last.

        Cumulative by construction, so counts are monotonically
        non-decreasing across ascending bounds.
        """
        with self._family._lock:
            counts = list(self._counts)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip((*self._family.buckets, math.inf), counts):
            running += count
            cumulative.append((bound, running))
        return cumulative

    def quantile(self, q: float) -> Optional[float]:
        """The estimated ``q``-quantile of the observations so far.

        Cumulative-bucket linear interpolation via
        :func:`quantile_from_buckets`; ``None`` while the histogram is
        empty.  Resolution is bounded by the bucket layout — the estimate
        is exact only at bucket edges — which is the trade every
        fixed-bucket SLI makes.
        """
        return quantile_from_buckets(self.bucket_counts(), q)

    def _samples(self) -> List[Tuple[str, str, float]]:
        family = self._family
        names = family.labelnames
        samples: List[Tuple[str, str, float]] = []
        for bound, count in self.bucket_counts():
            suffix = _label_suffix(
                (*names, "le"), (*self._labelvalues, _format_value(bound))
            )
            samples.append((family.name + "_bucket", suffix, float(count)))
        suffix = _label_suffix(names, self._labelvalues)
        samples.append((family.name + "_sum", suffix, self.sum))
        samples.append((family.name + "_count", suffix, float(self.count)))
        return samples


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _NeedsLabels:
    """The default child of a labeled family: any use of it raises."""

    __slots__ = ("_family",)

    def __init__(self, family: "_Family") -> None:
        self._family = family

    def __getattr__(self, name: str) -> Any:
        family = self._family
        raise TelemetryError(
            f"metric {family.name!r} has labels {list(family.labelnames)}; "
            f"use .labels(...) to pick a child"
        )


class _Family:
    """One metric name: kind, help text, label names, labeled children."""

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...] = (),
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        #: The child the unlabeled methods below act on, bound once.
        self._child = self.labels() if not labelnames else _NeedsLabels(self)

    def labels(self, **labelvalues: Any) -> Any:
        """The child for one label-value combination (memoized)."""
        if set(labelvalues) != set(self.labelnames):
            raise TelemetryError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labelvalues)}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _CHILD_TYPES[self.kind](self, key)
                self._children[key] = child
            return child

    # Unlabeled families act as their own child.
    def inc(self, amount: float = 1.0) -> None:
        self._child.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._child.dec(amount)

    def set(self, value: float) -> None:
        self._child.set(value)

    def set_function(self, callback: Callable[[], float]) -> None:
        self._child.set_function(callback)

    def observe(self, value: float) -> None:
        self._child.observe(value)

    @property
    def value(self) -> float:
        return self._child.value

    @property
    def count(self) -> int:
        return self._child.count

    @property
    def sum(self) -> float:
        return self._child.sum

    def bucket_counts(self) -> List[Tuple[float, int]]:
        return self._child.bucket_counts()

    def quantile(self, q: float) -> Optional[float]:
        return self._child.quantile(q)

    def children(self) -> List[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> List[str]:
        lines = [
            f"# HELP {self.name} {_escape_help(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for _key, child in self.children():
            for name, suffix, value in child._samples():
                lines.append(f"{name}{suffix} {_format_value(value)}")
        return lines


class MetricsRegistry:
    """Creates and renders metric families; process-wide via :data:`REGISTRY`.

    Registration is idempotent — asking for an existing name returns the
    existing family — but re-registering under a different kind, label
    set, or bucket layout raises :class:`~repro.exceptions.TelemetryError`
    (two call sites disagreeing about a metric is a bug, not a race to
    win).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Iterable[str],
        buckets: Tuple[float, ...] = (),
    ) -> _Family:
        names = tuple(labelnames)
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if (
                    family.kind != kind
                    or family.labelnames != names
                    or family.buckets != buckets
                ):
                    raise TelemetryError(
                        f"metric {name!r} already registered as a "
                        f"{family.kind} with labels {list(family.labelnames)}"
                    )
                return family
            family = _Family(name, kind, help, names, buckets)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> _Family:
        return self._register(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> _Family:
        return self._register(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labelnames: Iterable[str] = (),
    ) -> _Family:
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name!r} needs at least one bucket")
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} buckets must be strictly increasing: {bounds}"
            )
        return self._register(name, "histogram", help, labelnames, bounds)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def render(self) -> str:
        """The full registry in Prometheus text format (version 0.0.4)."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + "\n"


#: The process-wide registry every instrument registers into.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return REGISTRY
