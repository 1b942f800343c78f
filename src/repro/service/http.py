"""A stdlib-only HTTP face for the advisor: ``python -m repro serve``.

The wire format *is* the library's: ``POST /recommend`` takes a
:class:`~repro.api.Scenario` JSON document, ``POST /fleet`` a
:class:`~repro.fleet.FleetProblem` (bare, or wrapped as ``{"fleet": ...,
"placement": ..., "local_search": ..., "max_nodes": ..., "max_seconds":
...}`` to pick a placement strategy, a local-search round budget, or
``bnb-fleet`` search budgets — a budget-exhausted exact search degrades
to its best incumbent and says so in the response's
``placement_provenance``), ``POST /replay`` a
:class:`~repro.traces.WorkloadTrace` (bare, or wrapped as ``{"trace": ...,
"fleet": ..., "policy": ...}``), and each responds with the corresponding
report's ``to_dict()`` body — byte-equal under ``canonical_dict()`` to the
direct library call.  ``GET /healthz`` answers liveness; ``GET /stats``
reports the process-wide cost-cache traffic (including placement
solve-memo hits) and in-flight requests; ``GET /metrics`` exposes the
process-wide metrics registry in Prometheus text format; ``GET
/trace/<id>`` returns one completed trace from the tracer's in-memory
ring (enable tracing with ``--trace`` or ``--trace-out``; 404 when
tracing is off or the id has aged out).

Threading model: :class:`AdvisorHTTPServer` is a
:class:`~http.server.ThreadingHTTPServer`, one handler thread per
connection, and each request is served synchronously on its
connection's own thread: parse, solve through the shared
:class:`~repro.service.engine.AdvisorService`, serialize.  The server's
:class:`threading.BoundedSemaphore` of ``max_concurrency`` slots is the
admission bound: however many connection threads pile up, at most that
many solves run at once, while ``GET`` endpoints never wait for a slot.
Responses go out with Nagle's algorithm off, so a keep-alive client is
not stalled waiting for its own delayed ACK of the response headers.

Errors map to JSON bodies: malformed documents are ``400 {"error": ...}``
(:class:`~repro.exceptions.ReproError`, bad JSON, an invalid
``Content-Length``, after which the connection closes), a declared body
over :data:`MAX_BODY_BYTES` is ``413`` (unread, and the connection
closes), unknown paths ``404``, wrong verbs ``405``, anything unexpected
``500``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, TextIO, Tuple

from .. import __version__
from ..exceptions import ConfigurationError, ReproError
from ..telemetry.instruments import HTTP_REQUESTS_TOTAL
from ..telemetry.metrics import get_registry
from ..telemetry.trace import get_tracer
from .engine import AdvisorService

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8008
#: Default admission bound: how many solves the server runs at once.
DEFAULT_MAX_CONCURRENCY = 8
#: Largest request body the server reads; a larger declared
#: ``Content-Length`` is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 8 * 1024 * 1024


class _BodyTooLarge(Exception):
    """A declared request body over :data:`MAX_BODY_BYTES` (answered 413)."""


class AdvisorHTTPServer(ThreadingHTTPServer):
    """The advisor bound to a socket; at most ``max_concurrency`` solves run at once."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int] = (DEFAULT_HOST, DEFAULT_PORT),
        service: Optional[AdvisorService] = None,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        verbose: bool = False,
    ) -> None:
        # Checked here: a zero-slot semaphore would block every POST forever.
        if max_concurrency < 1:
            raise ConfigurationError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.service = service if service is not None else AdvisorService()
        #: The admission bound: one slot per concurrently running solve.
        self.admission = threading.BoundedSemaphore(max_concurrency)
        self.verbose = verbose
        self._closed = False
        super().__init__(address, AdvisorRequestHandler)

    def submit(self, coroutine: Any) -> Any:
        """Run a coroutine to completion on a fresh event loop; return its result.

        The handler does not call this; the repository benchmark
        (``perfbench/``) wraps it by name.
        """
        return asyncio.run(coroutine)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def server_close(self) -> None:  # called after shutdown()
        super().server_close()
        if not self._closed:
            self._closed = True
            self.service.close()


class AdvisorRequestHandler(BaseHTTPRequestHandler):
    """Routes the five endpoints; everything else is a JSON error."""

    server: AdvisorHTTPServer
    server_version = f"repro-advisor/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two sends; with Nagle on, the body waits
    # for the client's delayed ACK of the headers (~40 ms per response).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    _GET_PATHS = ("/healthz", "/stats", "/metrics")
    #: POST path -> the :class:`AdvisorService` method that answers it.
    _SOLVERS = {
        "/recommend": "recommend",
        "/fleet": "fleet_document",
        "/replay": "replay_document",
    }
    _POST_PATHS = tuple(_SOLVERS)

    @classmethod
    def _route(cls, path: str) -> str:
        """The bounded endpoint label for a request path.

        Known routes label as themselves, trace lookups collapse to one
        label, and everything else is ``"other"`` — so client typos can
        never grow the ``repro_http_requests_total`` label space.
        """
        if path in cls._GET_PATHS or path in cls._POST_PATHS:
            return path
        if path.startswith("/trace/"):
            return "/trace/<id>"
        return "other"

    def do_GET(self) -> None:
        path = self.path.split("?", 1)[0]
        self._endpoint = self._route(path)
        with get_tracer().span(
            "http.request", method="GET", endpoint=self._endpoint
        ) as span:
            self._span = span
            self._routed_get(path)

    def _routed_get(self, path: str) -> None:
        if path == "/healthz":
            self._send(200, {"status": "ok", "version": __version__})
        elif path == "/stats":
            self._send(200, self.server.service.stats())
        elif path == "/metrics":
            self._send_bytes(
                200,
                get_registry().render().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path.startswith("/trace/"):
            trace_id = path[len("/trace/"):]
            trace = get_tracer().ring.get(trace_id)
            if trace is None:
                self._send(
                    404,
                    {
                        "error": f"no trace {trace_id!r} in the ring "
                        f"(tracing disabled, or the trace aged out)"
                    },
                )
            else:
                self._send(200, trace)
        elif path in self._POST_PATHS:
            self._method_not_allowed("POST")
        else:
            self._send(404, {"error": f"unknown path {path!r}"})

    def do_POST(self) -> None:
        path = self.path.split("?", 1)[0]
        self._endpoint = self._route(path)
        with get_tracer().span(
            "http.request", method="POST", endpoint=self._endpoint
        ) as span:
            self._span = span
            self._routed_post(path)

    def _routed_post(self, path: str) -> None:
        if path in self._GET_PATHS or path.startswith("/trace/"):
            self._method_not_allowed("GET")
            return
        if path not in self._POST_PATHS:
            self._send(404, {"error": f"unknown path {path!r}"})
            return
        try:
            document = self._read_document()
            solve = getattr(self.server.service, self._SOLVERS[path])
            with self.server.admission:
                report = solve(document)
        except _BodyTooLarge as error:
            self._send(413, {"error": str(error)})
            return
        except (ReproError, json.JSONDecodeError, UnicodeDecodeError) as error:
            self._send(400, {"error": str(error)})
            return
        except Exception as error:  # noqa: BLE001 — a handler must not die
            self._send(500, {"error": f"{type(error).__name__}: {error}"})
            return
        self._send(200, report.to_dict())

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_document(self) -> Any:
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            # The body's end is unknowable, so the connection cannot carry
            # another request: answer 400, then close it (RFC 9112 §6.3).
            self.close_connection = True
            raise ReproError(f"invalid Content-Length header: {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            # Unread, the body would be parsed as the next request.
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        if length == 0:
            raise json.JSONDecodeError("empty request body", "", 0)
        body = self.rfile.read(length).decode("utf-8")
        return json.loads(body)

    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        self._send_bytes(status, json.dumps(payload).encode("utf-8"), "application/json")

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Tuple[Tuple[str, str], ...] = (),
    ) -> None:
        # Count the request before the response goes out: a client holding
        # its response must already see it in /metrics.
        endpoint = getattr(self, "_endpoint", "other")
        HTTP_REQUESTS_TOTAL.labels(endpoint=endpoint, status=str(status)).inc()
        span = getattr(self, "_span", None)
        if span is not None:
            span.set_attribute("status", status)
        self.send_response(status)
        for name, value in extra_headers:
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _method_not_allowed(self, allowed: str) -> None:
        self._send_bytes(
            405,
            json.dumps({"error": f"use {allowed} for {self.path}"}).encode("utf-8"),
            "application/json",
            extra_headers=(("Allow", allowed),),
        )

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)


def serve(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    service: Optional[AdvisorService] = None,
    max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
    verbose: bool = False,
    ready_stream: Optional[TextIO] = None,
) -> None:
    """Serve the advisor until interrupted (SIGINT/SIGTERM), then exit clean.

    ``port=0`` binds an ephemeral port; either way the bound address is
    announced on ``ready_stream`` (stderr by default) as
    ``serving on http://host:port`` so wrappers can wait for readiness.
    """
    server = AdvisorHTTPServer(
        (host, port),
        service=service,
        max_concurrency=max_concurrency,
        verbose=verbose,
    )
    stream = ready_stream if ready_stream is not None else sys.stderr
    print(f"serving on {server.url}", file=stream, flush=True)

    def request_shutdown(signum: int, frame: Any) -> None:
        # shutdown() blocks until serve_forever() exits, so it must run off
        # the main thread (which is *inside* serve_forever right now).
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous = None
    try:
        previous = signal.signal(signal.SIGTERM, request_shutdown)
    except ValueError:  # not on the main thread (e.g. under a test runner)
        pass
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)
        server.server_close()
