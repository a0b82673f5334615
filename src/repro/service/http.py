"""Stdlib HTTP front end for the simulation service.

A thin JSON transport over :class:`~repro.service.daemon.
SimulationService` — no framework, just ``http.server``:

========  ======================  =====================================
Method    Path                    Meaning
========  ======================  =====================================
POST      ``/v1/jobs``            Submit one job entry, a bare list, or
                                  ``{"jobs": [...], "defaults": {...},
                                  "priority": N}`` (a job file's shape).
                                  Returns one submission per entry;
                                  identical content keys dedupe and
                                  cache-served submissions come back
                                  already ``done``.
GET       ``/v1/jobs/<id>``       Job status + stats when done.
GET       ``/v1/jobs?state=...``  Listing (optionally one state).
DELETE    ``/v1/jobs/<id>``       Cancel a *queued* job (409 once it
                                  left the queue).
GET       ``/v1/metrics``         Queue depth, worker utilisation,
                                  cache hit-rate, jobs/sec.  With
                                  ``?format=prometheus``: the telemetry
                                  registry in text exposition format
                                  for standard scrapers.
GET       ``/v1/health``          Liveness probe plus queue depth,
                                  busy/total workers and a ``degraded``
                                  flag when crash retries are climbing.
========  ======================  =====================================

Errors are JSON too: ``{"error": ...}`` with 400 for malformed
requests (:class:`~repro.errors.JobError`), 413 for a body over
:data:`MAX_BODY_BYTES`, 404/409 for state conflicts, 500 for genuine
bugs.  The server is a
``ThreadingHTTPServer``: each request runs on its own thread against
the thread-safe service, which is what makes concurrent submissions
race safely onto one execution.
"""

from __future__ import annotations

import json
import multiprocessing.util
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple
from urllib.parse import parse_qs, urlparse

from repro.errors import ReproError, RequestError, RequestTooLarge
from repro.obs import metrics as obs_metrics
from repro.service.daemon import SimulationService

__all__ = ["MAX_BODY_BYTES", "ServiceHTTPServer", "ServiceHandler",
           "serve_in_thread"]

#: Largest request body the service reads, far above any job file it
#: serves; a larger one is answered with 413 and never read.
MAX_BODY_BYTES = 16 * 1024 * 1024


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes ``/v1/...`` requests onto the owning server's service."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------
    def _send(self, code: int, payload: object) -> None:
        body = json.dumps(payload, indent=2).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str,
                   content_type: str) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        if not 0 <= length <= MAX_BODY_BYTES:
            # read(-1) would block until the client hangs up and an
            # oversized read would buffer the whole body; the body is
            # left unread, so the connection cannot be reused.
            self.close_connection = True
            if length < 0:
                raise RequestError(f"negative Content-Length {length}")
            raise RequestTooLarge(
                f"Content-Length {length} exceeds the "
                f"{MAX_BODY_BYTES}-byte request cap")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestError("empty request body")
        return json.loads(raw.decode())

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._route("DELETE")

    def _route(self, method: str) -> None:
        service: SimulationService = self.server.service
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        started = time.perf_counter()
        try:
            return self._dispatch(method, service, parsed, parts)
        finally:
            endpoint = parts[1] if len(parts) > 1 else "other"
            if endpoint in ("health", "metrics", "jobs"):
                obs_metrics.get_registry().histogram(
                    f"repro_http_{endpoint}_request_seconds",
                    f"Request latency of the /v1/{endpoint} endpoint"
                ).observe(time.perf_counter() - started)

    def _dispatch(self, method: str, service: SimulationService,
                  parsed, parts) -> None:
        try:
            if method == "GET" and parts == ["v1", "health"]:
                # "ok" stays first for pre-existing liveness probes;
                # the load/degradation detail rides along.
                return self._send(200, dict({"ok": True},
                                            **service.health()))
            if method == "GET" and parts == ["v1", "metrics"]:
                query = parse_qs(parsed.query)
                wanted = query.get("format", ["json"])[0]
                if wanted == "prometheus":
                    return self._send_text(
                        200,
                        obs_metrics.get_registry().to_prometheus(),
                        "text/plain; version=0.0.4; charset=utf-8")
                if wanted != "json":
                    return self._send(400, {
                        "error": f"unknown metrics format {wanted!r}"})
                return self._send(200, service.metrics())
            if parts[:2] == ["v1", "jobs"]:
                if len(parts) == 2:
                    if method == "POST":
                        return self._submit(service)
                    if method == "GET":
                        query = parse_qs(parsed.query)
                        state = query.get("state", [None])[0]
                        limit = query.get("limit", [None])[0]
                        return self._send(200, {
                            "jobs": service.list_jobs(
                                state=state,
                                limit=(int(limit) if limit else None)),
                        })
                elif len(parts) == 3:
                    job_id = parts[2]
                    if method == "GET":
                        detail = service.job_detail(job_id)
                        if detail is None:
                            return self._send(404, {
                                "error": f"unknown job {job_id!r}"})
                        return self._send(200, detail)
                    if method == "DELETE":
                        cancelled = service.cancel(job_id)
                        if cancelled is None:
                            return self._send(404, {
                                "error": f"unknown job {job_id!r}"})
                        if not cancelled:
                            return self._send(409, {
                                "error": "only queued jobs can be "
                                         "cancelled"})
                        return self._send(200, {"id": job_id,
                                                "cancelled": True})
            return self._send(404, {
                "error": f"no route {method} {parsed.path}"})
        except RequestTooLarge as exc:
            return self._send(413, {"error": str(exc)})
        except ReproError as exc:
            return self._send(400, {"error": str(exc)})
        except (ValueError, TypeError, KeyError) as exc:
            return self._send(400, {"error": f"bad request: {exc}"})
        except Exception as exc:  # noqa: BLE001 - keep the daemon up
            return self._send(500, {"error": f"internal error: {exc}"})

    def _submit(self, service: SimulationService) -> None:
        body = self._read_json()
        defaults = None
        priority = 0
        if isinstance(body, list):
            entries = body
        elif isinstance(body, dict) and "jobs" in body:
            entries = body["jobs"]
            defaults = body.get("defaults")
            priority = int(body.get("priority", 0))
        elif isinstance(body, dict):
            entries = [body]
        else:
            raise RequestError("body must be a job entry, a list of "
                               "entries, or a {'jobs': [...]} object")
        submissions = service.submit(entries, defaults=defaults,
                                     priority=priority)
        self._send(202, {"submissions": submissions})


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`SimulationService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 service: SimulationService,
                 verbose: bool = False) -> None:
        super().__init__(address, ServiceHandler)
        self.service = service
        self.verbose = verbose
        # Worker processes fork *after* the socket is bound and would
        # inherit the listening fd — an orphaned worker (daemon killed
        # with SIGKILL mid-job) would then hold the port and block the
        # restarted daemon's bind.  Close the inherited copy in every
        # forked child.
        multiprocessing.util.register_after_fork(
            self, ServiceHTTPServer._close_inherited_socket)

    @staticmethod
    def _close_inherited_socket(server: "ServiceHTTPServer") -> None:
        try:
            server.socket.close()
        except OSError:
            pass

    @property
    def url(self) -> str:
        """Base URL of the bound socket (useful with port 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve_in_thread(service: SimulationService,
                    host: str = "127.0.0.1", port: int = 0,
                    verbose: bool = False) -> ServiceHTTPServer:
    """Start the API on a background thread; returns the bound server.

    With ``port=0`` the OS picks a free port — read it back from
    ``server.url``.  Call ``server.shutdown()`` to stop serving (the
    service itself is stopped separately).
    """
    server = ServiceHTTPServer((host, port), service, verbose=verbose)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-http", daemon=True)
    thread.start()
    return server
