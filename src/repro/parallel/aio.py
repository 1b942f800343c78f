"""The ``asyncio`` solver backend: semaphore-bounded async multiplexing.

The serving tier (:mod:`repro.service`) hosts the advisor inside an event
loop, where solves must be *awaitable*: an HTTP handler cannot block a
loop thread on a fleet solve without starving every other request.  This
backend makes a batch of :class:`~repro.parallel.backends.SolveTask`\\ s a
first-class coroutine: :meth:`AsyncioBackend.run_async` multiplexes the
tasks over an :class:`asyncio.Semaphore` of width ``jobs``, executing each
task's closure on a dedicated thread-pool executor so RPC-shaped what-if
calls (:mod:`repro.parallel.simulated`) overlap their latency exactly as
they do on the thread backend — while the event loop stays free to accept
more work.

The synchronous :meth:`~AsyncioBackend.run` face (what the fleet advisor
and the replayers call) spins up a private event loop per batch via
:func:`asyncio.run`, so the backend drops into every existing ``backend=``
seam — ``FleetAdvisor(backend="asyncio")`` works from plain synchronous
code and returns the serial answer bit for bit, like every other backend
(see ``docs/parallel.md`` for the determinism contract).  Calling ``run``
*from inside* a running loop is rejected with a pointer at ``run_async``:
blocking the loop is precisely the failure mode this backend exists to
avoid.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Sequence

from ..exceptions import ConfigurationError
from ..telemetry.trace import get_tracer
from .backends import (
    BACKENDS,
    DEFAULT_THREAD_JOBS,
    FutureTaskHandle,
    SolveTask,
    TaskHandle,
    _check_jobs,
)


class AsyncioBackend:
    """Run tasks as awaitable coroutines over a bounded semaphore.

    The executor threads are created lazily and reused across batches (and
    across event loops — each ``run`` call may own a different loop), so a
    long-lived server does not re-spawn threads per request.  Tasks share
    all in-process state, like the thread backend; the thread-safety pass
    across the advisor memos and the :class:`~repro.api.cache.CostCache`
    is what makes that sound.
    """

    name = "asyncio"

    def __init__(self, jobs: Optional[int] = None, **_ignored: Any) -> None:
        self.jobs = _check_jobs(jobs if jobs is not None else DEFAULT_THREAD_JOBS)
        self._executor: Optional[ThreadPoolExecutor] = None

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.jobs, thread_name_prefix="repro-aio"
            )
        return self._executor

    async def run_async(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Await every task; results come back in task order.

        At most ``jobs`` tasks execute at once — the semaphore admits the
        rest as slots free up, so a burst of concurrent solves cannot
        oversubscribe the executor.
        """
        if not tasks:
            return []
        loop = asyncio.get_running_loop()
        executor = self._ensure_executor()
        # The semaphore must belong to the *running* loop, so it is per
        # batch rather than per backend (one backend may serve many loops).
        semaphore = asyncio.Semaphore(self.jobs)
        # Trace context is captured on the submitting thread, before the
        # calls hop to executor threads (no-op while tracing is disabled).
        bind = get_tracer().bind
        calls = [bind(task.call) for task in tasks]

        async def bounded(call: Any) -> Any:
            async with semaphore:
                return await loop.run_in_executor(executor, call)

        return list(await asyncio.gather(*(bounded(call) for call in calls)))

    def run(self, tasks: Sequence[SolveTask]) -> List[Any]:
        """Run a batch from synchronous code (a private loop per batch)."""
        if len(tasks) <= 1:
            # One task gains nothing from an event-loop round-trip.
            return [task.call() for task in tasks]
        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self.run_async(tasks))
        raise ConfigurationError(
            "AsyncioBackend.run() would block the running event loop; "
            "await run_async(tasks) instead"
        )

    def submit(self, task: SolveTask) -> TaskHandle:
        """Start the task on the executor now; collect via the handle later.

        Submission goes straight to the executor (no event loop needed):
        the ``jobs``-wide executor bounds concurrency exactly as the
        per-batch semaphore does, and the synchronous handle works from
        outside any loop, as it does on the thread backend.
        """
        return FutureTaskHandle(
            self._ensure_executor().submit(get_tracer().bind(task.call))
        )

    def close(self) -> None:
        """Shut the executor down (idempotent; a later run re-creates it)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "AsyncioBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


if "asyncio" not in BACKENDS:
    BACKENDS.register("asyncio", lambda jobs=None, **_ignored: AsyncioBackend(jobs=jobs))
