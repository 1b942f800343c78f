"""Parallel solver execution: pluggable backends for independent solves.

The fleet advisor, the trace replayers, and the CLI fan their independent
per-machine solves out through a :class:`~repro.parallel.backends.SolverBackend`
selected by name from the open
:data:`~repro.parallel.backends.BACKENDS` registry — see
``docs/parallel.md`` for the subsystem guide and the determinism contract
(every backend returns the serial answer, bit for bit, under
``canonical_dict()``).  The ``asyncio`` backend additionally exposes an
awaitable face (:meth:`~repro.parallel.aio.AsyncioBackend.run_async`) for
callers inside an event loop.
"""

from .aio import AsyncioBackend
from .backends import (
    BACKENDS,
    DEFAULT_THREAD_JOBS,
    BackendSpec,
    SerialBackend,
    SolveTask,
    SolverBackend,
    ThreadBackend,
    resolve_backend,
)
from .simulated import DEFAULT_RPC_LATENCY_SECONDS, SimulatedRpcWhatIfEstimator

__all__ = [
    "AsyncioBackend",
    "BACKENDS",
    "BackendSpec",
    "DEFAULT_RPC_LATENCY_SECONDS",
    "DEFAULT_THREAD_JOBS",
    "SerialBackend",
    "SimulatedRpcWhatIfEstimator",
    "SolveTask",
    "SolverBackend",
    "ThreadBackend",
    "resolve_backend",
]
