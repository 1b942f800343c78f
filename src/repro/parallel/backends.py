"""Pluggable solver-execution backends: serial and thread pool.

The fleet layer and the trace replayer issue many *independent* solves —
per-machine divisions, greedy-cost placement probes, per-machine dynamic
manager steps — and until this subsystem existed they ran one after
another.  A :class:`SolverBackend` executes a batch of such solves; the
drivers describe each solve as a :class:`SolveTask` and reassemble the
results in deterministic order, so every backend returns the *same answer*
as the serial baseline (see ``FleetReport.canonical_dict``) and differs
only in wall-clock time and cache-traffic accounting.

Backends live behind the same open
:class:`~repro.api.strategies.StrategyRegistry` pattern as the enumerator
/ cost-function / placement registries:

* ``"serial"`` — run tasks inline, in order; the default, and byte-for-byte
  the pre-subsystem behavior.
* ``"thread"`` — a :class:`concurrent.futures.ThreadPoolExecutor`.  All
  state is shared, so solves cooperate through the same solve-memo and
  the thread-safe :class:`~repro.api.cache.CostCache`.  Real speedup
  requires the per-solve work to release the GIL — which the production
  deployment's what-if calls do (they are RPCs to a DBMS optimizer; see
  :mod:`repro.parallel.simulated`).

:mod:`repro.parallel.aio` registers a third, ``"asyncio"``, for callers
inside an event loop.  Every backend runs its tasks in this process, on shared
objects: a task is a closure, and its side effects (cache traffic, trace
spans) land where the caller can see them.

Besides the batch-with-a-barrier :meth:`SolverBackend.run`, every built-in
backend keeps ``submit(task)``: enqueue *one* task now, collect its result
later via the returned :class:`TaskHandle`.  On pooled backends a
submitted task starts immediately; on the serial backend the handle is
*lazy* — the task runs on first :meth:`TaskHandle.result` call.  Nothing
in :mod:`repro` calls ``submit``; it stays because the repository
benchmark's traced mode wraps each built-in backend's ``submit`` by name.
"""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Protocol, Sequence, Union, runtime_checkable

from ..api.strategies import StrategyRegistry
from ..exceptions import ConfigurationError
from ..telemetry.trace import get_tracer

#: Default worker count when ``jobs`` is not given.  Threads overlap
#: latency (RPC-shaped what-if calls) regardless of core count, so the
#: default is a small constant.
DEFAULT_THREAD_JOBS = 4


@dataclass
class SolveTask:
    """One independent solve.

    Attributes:
        call: zero-argument closure computing the result.
    """

    call: Callable[[], Any]


class TaskHandle:
    """Deferred result of one submitted task: the task runs on demand.

    The base class is the *lazy* handle the serial backend returns:
    nothing executes until :meth:`result` is first called.  Pooled
    backends return :class:`FutureTaskHandle` instead, whose task started
    executing at submission.
    """

    __slots__ = ("_call", "_done", "_value")

    def __init__(self, call: Callable[[], Any]) -> None:
        self._call = call
        self._done = False
        self._value: Any = None

    def result(self) -> Any:
        """The task's result (computing it now if it never ran)."""
        if not self._done:
            self._value = self._call()
            self._done = True
        return self._value


class FutureTaskHandle(TaskHandle):
    """Handle over a :class:`concurrent.futures.Future` already running."""

    __slots__ = ("_future",)

    def __init__(self, future: Future) -> None:
        self._future = future

    def result(self) -> Any:
        return self._future.result()


@runtime_checkable
class SolverBackend(Protocol):
    """Executes a batch of independent solve tasks.

    Built-in backends additionally offer ``submit(task) -> TaskHandle``
    (enqueue one task, collect later); it is not part of the protocol, and
    nothing in :mod:`repro` calls it.
    """

    name: str
    jobs: int

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Run every task and return their results in task order."""
        ...

    def close(self) -> None:
        """Release pooled workers (idempotent)."""
        ...


#: Registry of solver-execution backends (``backend=`` on the drivers).
BACKENDS = StrategyRegistry("solver backend")

BackendSpec = Union[str, SolverBackend]


def _check_jobs(jobs: int) -> int:
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    return jobs


class SerialBackend:
    """Run tasks inline, in order — the pre-subsystem behavior."""

    name = "serial"

    def __init__(self, jobs: Optional[int] = None, **_ignored: Any) -> None:
        # A serial backend runs one task at a time; silently dropping an
        # explicit worker count (e.g. ``--jobs 8`` without ``--backend``)
        # would let a user believe they requested parallelism.
        if jobs is not None and jobs != 1:
            raise ConfigurationError(
                f"the serial backend runs one task at a time; jobs={jobs} "
                f"needs a parallel backend (e.g. backend='thread')"
            )
        self.jobs = 1

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Run every task inline, in submission order."""
        return [task.call() for task in tasks]

    def submit(self, task: SolveTask) -> TaskHandle:
        """A lazy handle: the task runs on first ``result()`` call."""
        return TaskHandle(task.call)

    def close(self) -> None:
        """Nothing pooled; nothing to release."""

    def __enter__(self) -> "SerialBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ThreadBackend:
    """Run tasks on a shared :class:`ThreadPoolExecutor`.

    The pool is created lazily on first use and reused across calls, so a
    long-lived :class:`~repro.fleet.FleetAdvisor` does not re-spawn threads
    per recommendation.  Tasks share all in-process state; the thread-safety
    pass across the advisor's memos (and the lock-guarded
    :class:`~repro.api.cache.CostCache`) is what makes that sound.
    """

    name = "thread"

    def __init__(self, jobs: Optional[int] = None, **_ignored: Any) -> None:
        self.jobs = _check_jobs(jobs if jobs is not None else DEFAULT_THREAD_JOBS)
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-solver"
            )
        return self._pool

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Run every task on the pool; results come back in task order."""
        if len(tasks) <= 1:
            # One task gains nothing from a dispatch round-trip.
            return [task.call() for task in tasks]
        pool = self._ensure_pool()
        # bind() re-homes each call under the submitting thread's current
        # trace span (a no-op pass-through while tracing is disabled), so
        # pool-thread spans attach to the right parent.
        bind = get_tracer().bind
        futures: List[Future] = [pool.submit(bind(task.call)) for task in tasks]
        return [future.result() for future in futures]

    def submit(self, task: SolveTask) -> TaskHandle:
        """Start the task on the pool now; collect via the handle later."""
        return FutureTaskHandle(
            self._ensure_pool().submit(get_tracer().bind(task.call))
        )

    def close(self) -> None:
        """Shut the pool down (idempotent; a later run() re-creates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ThreadBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


BACKENDS.register("serial", lambda jobs=None, **_ignored: SerialBackend(jobs=jobs))
BACKENDS.register("thread", lambda jobs=None, **_ignored: ThreadBackend(jobs=jobs))


def resolve_backend(
    spec: Optional[BackendSpec], jobs: Optional[int] = None
) -> SolverBackend:
    """Resolve a backend spec (name, instance, or ``None`` → serial).

    ``jobs`` is forwarded to named backends; passing it alongside an
    instance is rejected (the instance already fixed its width).
    """
    if spec is None:
        spec = "serial"
    if isinstance(spec, str):
        return BACKENDS.create(spec, jobs=jobs)
    if jobs is not None:
        raise ConfigurationError(
            "pass jobs with a backend *name*; a backend instance already "
            "fixed its worker count"
        )
    if not callable(getattr(spec, "run", None)):
        raise ConfigurationError(
            f"backend must be a registered name or provide a run(tasks) "
            f"method; got {type(spec).__name__}"
        )
    return spec
