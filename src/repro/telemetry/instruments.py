"""The solve pipeline's well-known instruments, bound once at import.

Every hot path shares these module-level handles instead of re-resolving
``REGISTRY.counter(...)`` per call: an update is one lock acquisition.
The registry is process-wide, so a served tier, an embedded advisor, and
a CLI run all land in the same families — and ``GET /metrics`` exposes
exactly this set (plus whatever else registered).
"""

from __future__ import annotations

from .metrics import LATENCY_BUCKETS, REGISTRY

__all__ = [
    "SOLVE_LATENCY",
    "PROBE_LATENCY",
    "REQUEST_LATENCY",
    "REQUESTS_TOTAL",
    "IN_FLIGHT",
    "HTTP_REQUESTS_TOTAL",
    "MEMO_LOOKUPS",
    "MEMO_HITS",
    "MEMO_MISSES",
    "MEMO_HIT_RATIO",
    "BNB_NODES",
    "BNB_PRUNED",
    "PLACEMENT_PROBES",
    "TRACES_EMITTED",
    "LOADGEN_REQUESTS_TOTAL",
    "LOADGEN_LATENCY",
]

#: Enumerator searches (``Advisor.search``; fleet solve-memo hits and
#: report assembly excluded).
SOLVE_LATENCY = REGISTRY.histogram(
    "repro_solve_latency_seconds",
    "Wall time of advisor enumerator searches (fleet: solve-memo misses only).",
    buckets=LATENCY_BUCKETS,
)

#: Placement probes — the first ask of each candidate co-location in a
#: placement run (memo hits included); repeat asks are answered from the
#: run's cost table and only counted by PLACEMENT_PROBES.
PROBE_LATENCY = REGISTRY.histogram(
    "repro_probe_latency_seconds",
    "Wall time of placement probes (first ask per run of each candidate co-location).",
    buckets=LATENCY_BUCKETS,
)

#: Service-level request latency, labeled by logical endpoint.
REQUEST_LATENCY = REGISTRY.histogram(
    "repro_request_latency_seconds",
    "Wall time of advisor service requests by endpoint.",
    buckets=LATENCY_BUCKETS,
    labelnames=("endpoint",),
)

REQUESTS_TOTAL = REGISTRY.counter(
    "repro_requests_total",
    "Advisor service requests served, by endpoint.",
    labelnames=("endpoint",),
)

IN_FLIGHT = REGISTRY.gauge(
    "repro_in_flight_requests",
    "Advisor service requests currently executing.",
)

#: HTTP-layer accounting (status included; 4xx/5xx visible).
HTTP_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests handled, by endpoint and status code.",
    labelnames=("endpoint", "status"),
)

MEMO_LOOKUPS = REGISTRY.counter(
    "repro_solve_memo_lookups_total",
    "Fleet solve-memo lookups, by result.",
    labelnames=("result",),
)

#: Pre-bound children: the memo's get() is the hottest instrumented path.
MEMO_HITS = MEMO_LOOKUPS.labels(result="hit")
MEMO_MISSES = MEMO_LOOKUPS.labels(result="miss")

MEMO_HIT_RATIO = REGISTRY.gauge(
    "repro_solve_memo_hit_ratio",
    "Fraction of fleet solve-memo lookups served from the memo.",
)


def _memo_hit_ratio() -> float:
    hits = MEMO_HITS.value
    lookups = hits + MEMO_MISSES.value
    return hits / lookups if lookups else 0.0


MEMO_HIT_RATIO.set_function(_memo_hit_ratio)

BNB_NODES = REGISTRY.counter(
    "repro_bnb_nodes_total",
    "Branch-and-bound placement nodes explored.",
)

BNB_PRUNED = REGISTRY.counter(
    "repro_bnb_pruned_total",
    "Branch-and-bound placement nodes pruned by the bound.",
)

PLACEMENT_PROBES = REGISTRY.counter(
    "repro_placement_probes_total",
    "Candidate co-locations priced during placement.",
)

TRACES_EMITTED = REGISTRY.counter(
    "repro_traces_emitted_total",
    "Completed traces emitted to sinks.",
)

#: Black-box load-generator accounting (client side of repro.loadgen).
#: Statuses are HTTP codes plus "error" for transport failures, so the
#: label space stays bounded.
LOADGEN_REQUESTS_TOTAL = REGISTRY.counter(
    "repro_loadgen_requests_total",
    "Load-generator requests fired, by endpoint and status.",
    labelnames=("endpoint", "status"),
)

#: Client-side latency measured from the *scheduled* arrival time (open
#: workload: queueing delay anywhere — client pool or server — counts).
LOADGEN_LATENCY = REGISTRY.histogram(
    "repro_loadgen_request_latency_seconds",
    "Client-observed latency from scheduled arrival to response.",
    buckets=LATENCY_BUCKETS,
    labelnames=("endpoint", "status"),
)
