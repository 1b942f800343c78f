"""Zero-dependency structured tracing for the solve pipeline.

A :class:`Tracer` produces nested :class:`Span`\\ s — name, wall and CPU
time, free-form attributes, timestamped events — and emits every
*completed* trace (the tree under a root span) to pluggable sinks: an
in-memory ring buffer the HTTP server reads for ``GET /trace/<id>``, and
an optional :class:`JsonlSink` appending one JSON document per trace.

Design rules, in priority order:

* **Pay for what you use.**  A disabled tracer's :meth:`Tracer.span` is
  a single attribute lookup returning a shared no-op span; none of the
  instrumentation sites allocate anything until tracing is enabled.
* **Never touch the answer.**  Spans observe solves; they are not part
  of any report and can never enter ``canonical_dict()``.
* **Context survives the backends.**  The current span lives in
  thread-local storage; :meth:`Tracer.bind` re-homes a callable under
  the submitting thread's span so thread/asyncio pool workers attach
  their spans to the right parent.

Span trees are kept deliberately coarse: hot inner loops (the
branch-and-bound search, the greedy probe rounds) run under a single
``leaf=True`` span that *suppresses* descendant spans and records
periodic :meth:`Span.event`\\ s instead — a 150k-node search must not
allocate 150k spans.  That is also what makes the tree's accounting
meaningful: leaf spans wrap contiguous work, so their wall time tiles
the root's (see :func:`leaf_wall_fraction`).
"""

from __future__ import annotations

import io
import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

from ..exceptions import TelemetryError

__all__ = [
    "Span",
    "Tracer",
    "InMemorySink",
    "JsonlSink",
    "get_tracer",
    "configure_tracing",
    "disable_tracing",
    "leaf_wall_fraction",
    "span_table",
    "format_profile",
]

#: How many completed traces the tracer's ring buffer retains.
DEFAULT_RING_SIZE = 64


class _NoopSpan:
    """The span handed out when tracing is off (or suppressed): does nothing.

    A single shared instance; every method is a no-op so call sites never
    branch on whether tracing is enabled.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        return False

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    @property
    def recording(self) -> bool:
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """One timed phase of a trace: name, attributes, events, children.

    Spans are context managers::

        with tracer.span("fleet.recommend", tenants=12) as span:
            ...
            span.set_attribute("evaluations", stats.evaluations)

    Wall time comes from :func:`time.perf_counter`, CPU time from
    :func:`time.thread_time` (the executing thread's CPU clock — spans
    never span threads; cross-thread work gets its own span via
    :meth:`Tracer.bind`).  Mutation is single-threaded by construction
    (a span is current on exactly one thread) except child attachment,
    which the tracer serializes under its lock.
    """

    __slots__ = (
        "name",
        "tracer",
        "parent",
        "span_id",
        "trace_id",
        "leaf",
        "attributes",
        "events",
        "children",
        "start_unix",
        "_perf_start",
        "_cpu_start",
        "wall_seconds",
        "cpu_seconds",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Optional["Span"],
        span_id: int,
        trace_id: str,
        leaf: bool = False,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.parent = parent
        self.span_id = span_id
        self.trace_id = trace_id
        self.leaf = leaf
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []
        self.start_unix = time.time()
        self._perf_start = time.perf_counter()
        self._cpu_start = time.thread_time()
        self.wall_seconds: Optional[float] = None
        self.cpu_seconds: Optional[float] = None

    # -- recording -----------------------------------------------------
    @property
    def recording(self) -> bool:
        return True

    def set_attribute(self, name: str, value: Any) -> None:
        self.attributes[name] = value

    def set_attributes(self, **attributes: Any) -> None:
        self.attributes.update(attributes)

    def event(self, name: str, **fields: Any) -> None:
        """Record a timestamped point event on this span.

        This is the progress channel for ``leaf=True`` spans wrapping hot
        loops (e.g. the branch-and-bound search emits ``progress`` events
        with node/incumbent counts instead of per-node spans).
        """
        self.events.append(
            {
                "name": name,
                "elapsed_seconds": time.perf_counter() - self._perf_start,
                **fields,
            }
        )

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        self.end()
        return False

    def end(self) -> None:
        if self.wall_seconds is None:
            self.wall_seconds = time.perf_counter() - self._perf_start
            self.cpu_seconds = time.thread_time() - self._cpu_start
        self.tracer._pop(self)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe tree rooted at this span (children recursively)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "start_unix": self.start_unix,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        if self.events:
            data["events"] = list(self.events)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data


class InMemorySink:
    """A bounded ring of recent completed traces, addressable by id."""

    def __init__(self, max_traces: int = DEFAULT_RING_SIZE) -> None:
        if max_traces < 1:
            raise TelemetryError(f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = max_traces
        self._traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._lock = threading.Lock()

    def emit(self, trace: Dict[str, Any]) -> None:
        with self._lock:
            self._traces[trace["trace_id"]] = trace
            while len(self._traces) > self.max_traces:
                self._traces.popitem(last=False)

    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._traces.get(trace_id)

    def trace_ids(self) -> List[str]:
        """Retained trace ids, most recent last."""
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


class JsonlSink:
    """Appends one JSON document per completed trace to a file.

    The path is opened eagerly so a misconfigured ``--trace-out`` fails at
    setup with a :class:`~repro.exceptions.TelemetryError` (a
    :class:`~repro.exceptions.ReproError`, so the CLI's error path prints
    it cleanly) instead of surfacing a raw :class:`OSError` mid-solve.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        try:
            self._handle: Optional[io.TextIOWrapper] = open(
                self.path, "a", encoding="utf-8"
            )
        except OSError as error:
            raise TelemetryError(
                f"cannot open trace output file {self.path!r}: {error}"
            ) from error
        self._lock = threading.Lock()

    def emit(self, trace: Dict[str, Any]) -> None:
        line = json.dumps(trace, sort_keys=True)
        with self._lock:
            if self._handle is None:
                return
            try:
                self._handle.write(line + "\n")
                self._handle.flush()
            except OSError as error:
                raise TelemetryError(
                    f"cannot write trace to {self.path!r}: {error}"
                ) from error

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class Tracer:
    """Produces spans, tracks the current one per thread, emits traces.

    ``enabled`` gates everything: while ``False`` (the default for the
    process-wide tracer), :meth:`span` returns the shared no-op span and
    :meth:`bind` returns its argument unchanged.
    """

    def __init__(self, ring_size: int = DEFAULT_RING_SIZE) -> None:
        self.enabled = False
        self.ring = InMemorySink(ring_size)
        self._sinks: List[Any] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    # -- configuration -------------------------------------------------
    def enable(self, *sinks: Any) -> None:
        """Turn tracing on, optionally attaching extra sinks to the ring."""
        with self._lock:
            for sink in sinks:
                self._sinks.append(sink)
            self.enabled = True

    def disable(self) -> None:
        """Turn tracing off and detach (closing, where supported) all sinks."""
        with self._lock:
            self.enabled = False
            sinks, self._sinks = self._sinks, []
        for sink in sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()

    # -- the current-span stack ----------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    @property
    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # unbalanced exit: drop through to it
            del stack[stack.index(span) :]
        if span.parent is None:
            self._finish(span)

    # -- span creation -------------------------------------------------
    def span(self, name: str, leaf: bool = False, **attributes: Any):
        """A new span under the current one (context manager).

        Returns the no-op span when tracing is disabled, or when the
        current span is a ``leaf=True`` region (hot loops suppress
        descendant spans; see the module docstring).
        """
        if not self.enabled:
            return NOOP_SPAN
        parent = self.current
        if parent is not None and parent.leaf:
            return NOOP_SPAN
        with self._lock:
            span_id = next(self._ids)
        if parent is None:
            trace_id = f"{os.getpid():x}-{span_id:x}"
        else:
            trace_id = parent.trace_id
        span = Span(
            tracer=self,
            name=name,
            parent=parent,
            span_id=span_id,
            trace_id=trace_id,
            leaf=leaf,
            attributes=attributes,
        )
        if parent is not None:
            with self._lock:
                parent.children.append(span)
        return span

    def _finish(self, root: Span) -> None:
        """A root span ended: emit its completed trace to every sink."""
        from .instruments import TRACES_EMITTED

        trace = root.to_dict()
        self.ring.emit(trace)
        with self._lock:
            sinks = list(self._sinks)
        for sink in sinks:
            sink.emit(trace)
        TRACES_EMITTED.inc()

    # -- cross-backend propagation -------------------------------------
    def bind(self, call: Callable[[], Any]) -> Callable[[], Any]:
        """Re-home ``call`` under the submitting thread's current span.

        Thread-pool workers (thread/asyncio backends) have an empty span
        stack; binding at submission captures the submitter's current
        span so worker-side spans attach to the right parent.  Returns
        ``call`` unchanged when there is nothing to propagate.
        """
        if not self.enabled:
            return call
        parent = self.current
        if parent is None:
            return call

        def bound() -> Any:
            saved = getattr(self._local, "stack", None)
            self._local.stack = [parent]
            try:
                return call()
            finally:
                self._local.stack = saved if saved is not None else []

        return bound


#: The process-wide tracer every instrumentation site uses.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled until :func:`configure_tracing`)."""
    return _TRACER


def configure_tracing(
    trace_out: Optional[str] = None, ring_size: Optional[int] = None
) -> Tracer:
    """Enable the process-wide tracer; optionally attach a JSONL file sink.

    Raises :class:`~repro.exceptions.TelemetryError` (never a raw
    :class:`OSError`) when ``trace_out`` cannot be opened for append.
    """
    tracer = get_tracer()
    if ring_size is not None:
        tracer.ring = InMemorySink(ring_size)
    sinks = [JsonlSink(trace_out)] if trace_out else []
    tracer.enable(*sinks)
    return tracer


def disable_tracing() -> None:
    """Disable the process-wide tracer and close its file sinks."""
    get_tracer().disable()


# ----------------------------------------------------------------------
# Trace analysis (the --profile table and the leaf-coverage accounting)
# ----------------------------------------------------------------------
def _walk(span: Dict[str, Any]):
    yield span
    for child in span.get("children", ()):
        yield from _walk(child)


def leaf_wall_fraction(trace: Dict[str, Any]) -> float:
    """The fraction of the root's wall time covered by leaf spans.

    Leaf spans (no children) wrap contiguous work; summing their wall
    time against the root's answers "how much of this trace is
    accounted for?".  Parallel backends can push this above 1.0 (leaves
    on concurrent threads overlap the root's wall clock).
    """
    root_wall = trace.get("wall_seconds") or 0.0
    if root_wall <= 0.0:
        return 0.0
    leaf_wall = sum(
        span.get("wall_seconds") or 0.0
        for span in _walk(trace)
        if not span.get("children")
    )
    return leaf_wall / root_wall


def span_table(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per-span-name aggregates over a trace: count, wall and CPU totals.

    Rows are sorted by total wall time, descending — the shape of the
    CLI's ``--profile`` breakdown.
    """
    rows: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
    for span in _walk(trace):
        row = rows.setdefault(
            span["name"],
            {"name": span["name"], "count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0},
        )
        row["count"] += 1
        row["wall_seconds"] += span.get("wall_seconds") or 0.0
        row["cpu_seconds"] += span.get("cpu_seconds") or 0.0
    return sorted(rows.values(), key=lambda row: -row["wall_seconds"])


def format_profile(trace: Dict[str, Any]) -> str:
    """The ``--profile`` table: phase, count, wall, CPU, share of root."""
    root_wall = trace.get("wall_seconds") or 0.0
    lines = [
        f"{'phase':<28} {'count':>6} {'wall_s':>10} {'cpu_s':>10} {'share':>7}"
    ]
    lines.append("-" * len(lines[0]))
    for row in span_table(trace):
        share = row["wall_seconds"] / root_wall if root_wall > 0 else 0.0
        lines.append(
            f"{row['name']:<28} {row['count']:>6} "
            f"{row['wall_seconds']:>10.4f} {row['cpu_seconds']:>10.4f} "
            f"{share:>6.1%}"
        )
    return "\n".join(lines)
