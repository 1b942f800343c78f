"""Span recording from outside the program: timing wrappers, self time.

The benchmark never edits the program.  :class:`SpanRecorder` replaces
chosen public functions and methods with wrappers that time each call on
a thread-local span stack; a layer's *self time* is its span's duration
minus the part of that interval its child spans cover, where children
include work a span handed to another thread (a solver backend's tasks
are re-parented onto the ``run`` / ``submit`` span that dispatched them).
Per-name totals (calls, total, self, errors, items) are exact; span
records are kept in memory up to a cap and written out when the run
ends.  Spans of one operation share the operation's identifier
(:data:`OP_ID`).

Wrapping is undone by :meth:`SpanRecorder.uninstall`, so one process can
alternate traced and untraced operations to measure the tracing overhead.
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
import functools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Identifier of the operation (fleet solve, served request) a span belongs
#: to.  Context variables follow ``asyncio.to_thread`` hops, which is how a
#: served request's id reaches the worker thread that solves it.
OP_ID: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_op", default=None
)

#: The span a coroutine is running under (see :meth:`SpanRecorder.span_async`);
#: a thread with an empty stack parents its first span here.
PARENT: "contextvars.ContextVar[Optional[_Frame]]" = contextvars.ContextVar(
    "perfbench_parent", default=None
)

#: Span records kept per run; totals stay exact past the cap.
DEFAULT_KEEP = 20_000

#: Marks a wrapped attribute the owner inherited rather than defined.
_INHERITED = object()


class _Frame:
    __slots__ = ("name", "start", "parent", "children")

    def __init__(self, name: str, start: float, parent: Optional["_Frame"]) -> None:
        self.name = name
        self.start = start
        self.parent = parent
        self.children: List[Tuple[float, float]] = []


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanRecorder:
    """Thread-safe span stack, per-name totals and a capped record list."""

    def __init__(self, keep: int = DEFAULT_KEEP) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, total seconds, self seconds, errors, items]
        self.totals: Dict[str, List[float]] = {}
        self.records: List[Tuple[Any, ...]] = []
        self.keep = keep
        self.dropped = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[_Frame]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _enter(self, name: str, parent: Optional[_Frame] = None) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif parent is None:
            parent = PARENT.get()
        frame = _Frame(name, time.perf_counter(), parent)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, failed: bool, items: int = 0) -> None:
        end = time.perf_counter()
        self._stack().pop()
        duration = end - frame.start
        with self._lock:
            children = frame.children
            self_time = duration - (_covered(children) if children else 0.0)
            parent = frame.parent
            if parent is not None:
                parent.children.append((frame.start, end))
            self._add(frame.name, duration, self_time, failed, items)
            if len(self.records) < self.keep:
                self.records.append(
                    (
                        frame.name,
                        frame.start,
                        end,
                        self_time,
                        parent.name if parent is not None else None,
                        OP_ID.get(),
                    )
                )
            else:
                self.dropped += 1

    def _add(
        self, name: str, duration: float, self_time: float, failed: bool, items: int
    ) -> None:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0, 0.0, 0.0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += self_time
        entry[3] += 1 if failed else 0
        entry[4] += items

    async def span_async(self, name: str, awaitable: Any) -> Any:
        """Time a coroutine as a span.

        A coroutine cannot sit on a thread's stack, so its frame travels in
        :data:`PARENT` instead: work it hands to a thread through
        ``asyncio.to_thread`` (which copies the context) becomes its child.
        """
        frame = _Frame(name, time.perf_counter(), PARENT.get())
        token = PARENT.set(frame)
        failed = True
        try:
            result = await awaitable
            failed = False
            return result
        finally:
            PARENT.reset(token)
            end = time.perf_counter()
            with self._lock:
                covered = _covered(frame.children) if frame.children else 0.0
                if frame.parent is not None:
                    frame.parent.children.append((frame.start, end))
                self._add(name, end - frame.start, end - frame.start - covered, failed, 0)

    def count(self, name: str) -> None:
        """Count a call without timing it (for the hottest instruments)."""
        with self._lock:
            self._add(name, 0.0, 0.0, False, 0)

    def bind(self, call: Callable[[], Any], name: str) -> Callable[[], Any]:
        """``call`` as a child span of the current span, on whatever thread runs it."""
        dispatcher = self.current()
        op = OP_ID.get()

        def bound() -> Any:
            token = OP_ID.set(op)
            frame = self._enter(name, dispatcher)
            failed = True
            try:
                result = call()
                failed = False
                return result
            finally:
                self._exit(frame, failed)
                OP_ID.reset(token)

        return bound

    def snapshot(self) -> Dict[str, List[float]]:
        with self._lock:
            return {name: list(entry) for name, entry in self.totals.items()}

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        when: Optional[Callable[[tuple], bool]] = None,
        count_only: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (a function, method or classmethod) by a timed one.

        ``when(args)`` limits timing to some calls (others pass straight
        through); ``count_only`` counts calls without timing them.
        """
        raw = vars(owner).get(attr, _INHERITED)
        rewrap: Callable[[Any], Any] = lambda function: function  # noqa: E731
        function = getattr(owner, attr) if raw is _INHERITED else raw
        if isinstance(raw, classmethod):
            function, rewrap = raw.__func__, classmethod
        recorder = self

        if count_only:

            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                recorder.count(name)
                return function(*args, **kwargs)

        elif asyncio.iscoroutinefunction(function):

            @functools.wraps(function)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                return await recorder.span_async(name, function(*args, **kwargs))

        else:

            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if when is not None and not when(args):
                    return function(*args, **kwargs)
                frame = recorder._enter(name)
                failed = True
                try:
                    result = function(*args, **kwargs)
                    failed = False
                    return result
                finally:
                    recorder._exit(frame, failed)

        setattr(owner, attr, rewrap(wrapper))
        self._undo.append((owner, attr, raw))

    def wrap_dispatch(self, owner: Any, attr: str, name: str, task_name: str) -> None:
        """Time a solver backend's ``run(tasks)`` / ``submit(task)``.

        Each task's ``call`` is re-bound as a ``task_name`` child of the
        dispatching span, so work a pool thread does for the dispatcher is
        subtracted from the dispatcher's self time.
        """
        raw = vars(owner)[attr]
        recorder = self

        def rebind(task: Any) -> Any:
            return dataclasses.replace(task, call=recorder.bind(task.call, task_name))

        @functools.wraps(raw)
        def wrapper(backend: Any, tasks: Any) -> Any:
            frame = recorder._enter(name)
            batch = isinstance(tasks, (list, tuple))
            failed = True
            try:
                if batch:
                    result = raw(backend, [rebind(task) for task in tasks])
                else:
                    result = raw(backend, rebind(tasks))
                failed = False
                return result
            finally:
                recorder._exit(frame, failed, len(tasks) if batch else 1)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped, first restored)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write the kept span records, one JSON object per line.

        Times are ``time.perf_counter()`` seconds; a last ``{"dropped": n}``
        line counts the records past the cap (their totals still count).
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "self", "parent", "op")
        with path.open("w", encoding="utf-8") as out:
            for record in self.records:
                out.write(json.dumps(dict(zip(fields, record))) + "\n")
            out.write(json.dumps({"dropped": self.dropped}) + "\n")


def delta(
    after: Dict[str, List[float]], before: Dict[str, List[float]]
) -> Dict[str, List[float]]:
    """Per-name totals accumulated between two snapshots."""
    out = {}
    for name, entry in after.items():
        base = before.get(name, [0, 0.0, 0.0, 0, 0])
        out[name] = [value - base[index] for index, value in enumerate(entry)]
    return out
