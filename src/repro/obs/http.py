"""Liveness/readiness probes and a ``/metrics`` scrape endpoint.

A production detection service needs three answers a load balancer (or a
human with ``curl``) can get without attaching a debugger:

* ``/healthz`` — liveness: the process is up and serving requests
  (200 always, by construction of answering at all);
* ``/readyz``  — readiness: the service is willing to take *new* work
  (200 when the readiness callback says yes, 503 with the refusal
  reason when it says no — e.g. tenant budget exhausted, overload
  ladder on the ``paused`` rung);
* ``/metrics`` — the active :class:`repro.obs.MetricsRegistry` in
  Prometheus text exposition format.

Stdlib-only (``http.server`` on a daemon thread); a missing registry
serves an empty exposition rather than failing the scrape.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional, Tuple

from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = ["ObsHttpServer"]

#: Returns ``(ready, reason)``; the reason is served in the 503 body.
ReadinessProbe = Callable[[], Tuple[bool, str]]


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        owner: "ObsHttpServer" = self.server.owner  # type: ignore[attr-defined]
        if self.path == "/healthz":
            self._respond(200, b"ok\n")
        elif self.path == "/readyz":
            ready, reason = owner.readiness()
            if ready:
                self._respond(200, b"ready\n")
            else:
                self._respond(503, f"not ready: {reason}\n".encode())
        elif self.path == "/metrics":
            registry = owner.registry or get_registry()
            body = b""
            if isinstance(registry, MetricsRegistry):
                body = render_prometheus(registry).encode()
            self._respond(200, body, content_type="text/plain; version=0.0.4")
        else:
            self._respond(404, b"not found\n")

    def log_message(self, format: str, *args: object) -> None:
        pass  # probes are high-frequency; stay silent

    def _respond(
        self, status: int, body: bytes, content_type: str = "text/plain"
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class ObsHttpServer:
    """Serve probes + metrics on a daemon thread.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after ``start()``).  ``readiness`` defaults to always-ready; the
    detection service installs its admission-based probe."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        readiness: Optional[ReadinessProbe] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.registry = registry
        self._readiness = readiness
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def readiness(self) -> Tuple[bool, str]:
        if self._readiness is None:
            return True, ""
        return self._readiness()

    def start(self) -> "ObsHttpServer":
        self._httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.owner = self  # type: ignore[attr-defined]
        self.port = self._httpd.server_address[1]
        # shutdown() waits for the serve loop's next poll: keep the poll
        # short so stopping the server is not a half-second stall.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="obs-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
