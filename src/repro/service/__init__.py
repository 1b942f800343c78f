"""The serving tier: the advisor hosted for concurrent callers.

The paper frames the advisor as a *service* the virtualization layer
consults — §7.2's what-if calls are RPC-shaped — and this package is that
deployment shape, one tier above the execution layer:

* :class:`AdvisorService` — the shared engine.  One process-wide
  :class:`~repro.api.cache.CostCache` pool, pooled calibrated
  :class:`~repro.api.ProblemBuilder`\\ s per hardware profile, and one
  long-lived :class:`~repro.fleet.FleetAdvisor`; each request gets a
  *fresh* short-lived :class:`~repro.api.Advisor` over the shared pool
  (the factory-per-worker ownership pattern), so no request ever holds
  another's mutable state.
* :class:`AdvisorHTTPServer` / :func:`serve` — a stdlib-only HTTP server
  (``python -m repro serve``): POST ``/recommend`` / ``/fleet`` /
  ``/replay`` accept the existing Scenario / FleetProblem / trace JSON
  documents and are solved on the connection's own thread under an
  admission bound; GET ``/healthz`` and ``/stats`` report liveness,
  cache hit rates, and in-flight requests.
* :class:`AsyncAdvisorService` — an awaitable face of the engine, bounded
  by a semaphore.  Nothing in the library calls it; it stays because the
  repository benchmark wraps it.  Inside an event loop, a library advisor
  needs no wrapper: ``await asyncio.to_thread(advisor.recommend, problem)``.

Every served answer is the library answer: a response body differs from
the corresponding direct call only in run artifacts (timing, cache
traffic), never under ``canonical_dict()`` — the same contract the solver
backends honour.  See ``docs/service.md``.
"""

from .async_api import AsyncAdvisorService
from .engine import AdvisorService
from .http import (
    DEFAULT_HOST,
    DEFAULT_MAX_CONCURRENCY,
    DEFAULT_PORT,
    AdvisorHTTPServer,
    serve,
)

__all__ = [
    "AdvisorHTTPServer",
    "AdvisorService",
    "AsyncAdvisorService",
    "DEFAULT_HOST",
    "DEFAULT_MAX_CONCURRENCY",
    "DEFAULT_PORT",
    "serve",
]
