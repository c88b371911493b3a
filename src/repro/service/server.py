"""The always-on multi-tenant detection server.

One process, many tenants: each tenant ships WAL segments over TCP
(:mod:`repro.service.protocol`), the server spools them durably, a
per-tenant pump thread merges spooled segments into that tenant's
:class:`StreamingDetector` in global seq order, and a canonical report
is published when the tenant finalizes.  The moving parts:

* **admission control** — :class:`repro.analysis.governor.FleetBudget`
  decides whether a new ``hello`` fits (tenant count, RSS headroom);
  refusals are structured ``over_capacity`` errors with a
  ``retry_after_s`` the client honours;
* **credit-based backpressure** — every segment ACK carries the
  tenant's remaining queue credits (``queue_segments`` minus spooled-
  but-unpumped segments); at zero the next upload gets ``over_queue``
  + retry-after instead of unbounded buffering.  One carve-out keeps
  the scheme deadlock-free: a segment for a stream the merge is
  *starved* on is always admitted (even under ``paused``), because it
  is the only thing that lets the backlog drain;
* **overload ladder** — a monitor thread polls fleet pressure (RSS
  *and* aggregate queue depth) and walks every tenant along
  ``full -> sampled -> paused`` with hysteresis; ``sampled`` engages
  the PR-9 sampler (reports honestly say ``"sampled"``), ``paused``
  stops issuing credits until pressure drains;
* **circuit breaker** — per-tenant quarantine after a streak of
  torn/CRC-bad segment uploads, evidence preserved on disk;
* **crash recovery** — ingestion ACKs only after fsync+rename into the
  spool; the pump checkpoints its detector with a raw-merge watermark;
  on restart every tenant directory is recovered and resumed.  Because
  the merge order is deterministic, ``kill -9`` + restart loses no
  acknowledged segment and re-produces byte-identical reports.

The transport is real TCP on localhost rather than the simulated
``repro.runtime.sockets`` layer: crash recovery must survive an OS
``kill -9``, which requires the server to be a real process reachable
across process boundaries.  The *discipline* is inherited, though —
verb-tagged frames and WAL-grade CRC framing on every message.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Dict, Optional, Tuple

from repro import obs
from repro.analysis.governor import (
    FleetBudget,
    OVERLOAD_LADDER,
    maybe_stall,
)
from repro.hb.model import FULL_MODEL, HBModel
from repro.obs.http import ObsHttpServer
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.service import protocol
from repro.service.protocol import error_frame, ok_frame
from repro.service.tenants import DEFAULT_CHECKPOINT_EVERY, Tenant
from repro.trace.wal import verify_segment_bytes

__all__ = ["DetectionServer", "SERVICE_FILE", "load_service_file"]

SERVICE_FILE = "service.json"

#: Suggested client sleep for each transient refusal, seconds.
RETRY_AFTER = {"over_capacity": 1.0, "over_queue": 0.1, "paused": 0.2,
               "not_ready": 0.1}

#: Raw records one pump() call may advance before yielding (keeps the
#: pump preemptible for checkpoints and, with ``pump_delay_s``, gives
#: the overload benchmark a way to make ingest outrun detection).
PUMP_BATCH = 4096


def load_service_file(data_dir: str) -> Dict[str, object]:
    with open(os.path.join(data_dir, SERVICE_FILE)) as fh:
        return json.load(fh)


class DetectionServer:
    """Long-running detection service over a data directory."""

    def __init__(
        self,
        data_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[FleetBudget] = None,
        model: HBModel = FULL_MODEL,
        window: Optional[int] = None,
        max_bad_segments: int = 3,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        overload_poll_s: float = 0.1,
        pump_delay_s: float = 0.0,
        http_port: Optional[int] = None,
    ) -> None:
        self.data_dir = os.path.abspath(data_dir)
        self.host = host
        self.port = port
        self.limits = limits if limits is not None else FleetBudget()
        self.model = model
        self.window = window
        self.max_bad_segments = max_bad_segments
        self.checkpoint_every = checkpoint_every
        self.overload_poll_s = overload_poll_s
        #: Artificial per-batch pump delay — the overload benchmark's
        #: "detection is slower than ingest" injection knob.
        self.pump_delay_s = pump_delay_s
        self.http_port = http_port
        self.overload_level = "full"
        self.tenants: Dict[str, Tenant] = {}
        self._pumps: Dict[str, threading.Thread] = {}
        self._lock = threading.RLock()
        self._stopping = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._threads: list = []
        self.http: Optional[ObsHttpServer] = None
        self.registry = MetricsRegistry()

    # -- lifecycle ---------------------------------------------------------

    @property
    def tenants_dir(self) -> str:
        return os.path.join(self.data_dir, "tenants")

    def start(self) -> "DetectionServer":
        os.makedirs(self.tenants_dir, exist_ok=True)
        set_registry(self.registry)
        self._recover_tenants()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self.port))
        self._listener.listen(64)
        self.port = self._listener.getsockname()[1]
        if self.http_port is not None:
            self.http = ObsHttpServer(
                host=self.host,
                port=self.http_port,
                readiness=self._readiness,
                registry=self.registry,
            ).start()
        self._write_service_file()
        accept = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        accept.start()
        monitor = threading.Thread(
            target=self._overload_loop, name="service-overload", daemon=True
        )
        monitor.start()
        self._threads = [accept, monitor]
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            # on Linux; shutdown() does, so the join below is immediate.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._lock:
            tenants = list(self.tenants.values())
            pumps = list(self._pumps.values())
        for tenant in tenants:
            tenant.wakeup.set()
        for pump in pumps:
            pump.join(timeout=10)
        for tenant in tenants:
            if not tenant.done:
                with tenant.lock:
                    tenant.maybe_checkpoint(force=True)
        if self.http is not None:
            self.http.stop()
            self.http = None
        for thread in self._threads:
            thread.join(timeout=5)
        self._threads = []

    @property
    def stopping(self) -> bool:
        return self._stopping.is_set()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` (used by the CLI ``serve``)."""
        while not self._stopping.is_set():
            time.sleep(0.2)

    def _write_service_file(self) -> None:
        doc = {
            "format": "repro-service",
            "version": protocol.PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "http_port": self.http.port if self.http is not None else None,
            "data_dir": self.data_dir,
        }
        path = os.path.join(self.data_dir, SERVICE_FILE)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        os.replace(tmp, path)

    # -- recovery ----------------------------------------------------------

    def _recover_tenants(self) -> None:
        """Rebuild every tenant found under the data directory and
        restart pumps for the unfinished ones.  The spool (durable,
        ACK-ordered) is the source of truth; see ``Tenant.recover``."""
        for entry in sorted(os.listdir(self.tenants_dir)):
            root = os.path.join(self.tenants_dir, entry)
            if not os.path.isfile(os.path.join(root, "state.json")):
                continue
            try:
                tenant = Tenant.recover(
                    entry,
                    root,
                    model=self.model,
                    window=self.window,
                    max_bad_segments=self.max_bad_segments,
                    checkpoint_every=self.checkpoint_every,
                )
            except (OSError, ValueError, KeyError) as exc:
                obs.counter(
                    "service_recover_failures_total",
                    "tenant directories that failed recovery",
                ).labels(tenant=entry).inc()
                # Leave the directory for the operator; do not serve it.
                print(f"service: tenant {entry} failed recovery: {exc}")
                continue
            self.tenants[entry] = tenant
            obs.counter(
                "service_tenants_recovered_total",
                "tenants rebuilt from disk at startup",
            ).inc()
            if not tenant.done and not tenant.breaker.quarantined:
                self._start_pump(tenant)

    # -- pumps -------------------------------------------------------------

    def _start_pump(self, tenant: Tenant) -> None:
        thread = threading.Thread(
            target=self._pump_loop,
            args=(tenant,),
            name=f"pump-{tenant.tenant_id}",
            daemon=True,
        )
        self._pumps[tenant.tenant_id] = thread
        thread.start()

    def _pump_loop(self, tenant: Tenant) -> None:
        while not self._stopping.is_set():
            if tenant.breaker.quarantined:
                return
            with tenant.lock:
                advanced = tenant.pump(limit=PUMP_BATCH)
                tenant.maybe_checkpoint()
                drained = tenant.drained
            maybe_stall("service_pump")
            if self.pump_delay_s and advanced:
                time.sleep(self.pump_delay_s)
            if drained:
                with tenant.lock:
                    tenant.write_report()
                return
            if advanced == 0:
                tenant.wakeup.wait(0.05)
                tenant.wakeup.clear()

    # -- overload ladder ---------------------------------------------------

    def _active_tenants(self) -> list:
        return [
            t
            for t in self.tenants.values()
            if not t.done and not t.breaker.quarantined
        ]

    def _overload_loop(self) -> None:
        gauge = obs.gauge(
            "service_overload_level",
            "fleet overload ladder rung (0=full 1=sampled 2=paused)",
        )
        pending_gauge = obs.gauge(
            "service_pending_segments",
            "spooled-but-unpumped segments across the fleet",
        )
        while not self._stopping.is_set():
            with self._lock:
                active = self._active_tenants()
            pending = sum(t.pending_segments() for t in active)
            pending_gauge.set(pending)
            level = self.limits.overload_level(
                self.overload_level,
                pending_segments=pending,
                active_tenants=max(1, len(active)),
            )
            if level != self.overload_level:
                self.overload_level = level
                gauge.set(OVERLOAD_LADDER.index(level))
                for tenant in active:
                    tenant.set_mode(level)
            else:
                # Late joiners inherit the current rung.
                for tenant in active:
                    if tenant.mode != level:
                        tenant.set_mode(level)
            self._stopping.wait(self.overload_poll_s)

    def _readiness(self) -> Tuple[bool, str]:
        if self._stopping.is_set():
            return False, "shutting down"
        if self.overload_level == "paused":
            return False, "overload ladder: paused"
        with self._lock:
            refusal = self.limits.admit_tenant(len(self._active_tenants()))
        if refusal:
            return False, refusal
        return True, ""

    # -- connections -------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener  # stop() clears the attribute
        while not self._stopping.is_set():
            try:
                conn, _addr = listener.accept()
            except OSError:
                return  # listener shut down
            conn.settimeout(60.0)
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            thread = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            while not self._stopping.is_set():
                try:
                    frame = protocol.recv_frame(rfile)
                except protocol.ProtocolError as exc:
                    try:
                        protocol.send_frame(
                            wfile, error_frame("protocol", str(exc))
                        )
                    except OSError:
                        pass
                    return
                except (OSError, socket.timeout):
                    return
                if frame is None:
                    return
                doc, body = frame
                started = time.perf_counter()
                response = self._dispatch(doc, body)
                obs.histogram(
                    "service_request_seconds",
                    "server-side request handling latency",
                ).labels(verb=str(doc.get("verb", "?"))).observe(
                    time.perf_counter() - started
                )
                try:
                    protocol.send_frame(wfile, response)
                except (OSError, socket.timeout):
                    return
                if doc.get("verb") == "shutdown" and response.get("ok"):
                    self._stopping.set()
                    if self._listener is not None:
                        try:
                            self._listener.close()
                        except OSError:
                            pass
                    return
        finally:
            for closer in (rfile.close, wfile.close, conn.close):
                try:
                    closer()
                except OSError:
                    pass

    # -- verb handlers -----------------------------------------------------

    def _dispatch(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        verb = doc.get("verb")
        handler = {
            "hello": self._handle_hello,
            "segment": self._handle_segment,
            "finalize": self._handle_finalize,
            "report": self._handle_report,
            "status": self._handle_status,
            "shutdown": lambda d, b: ok_frame(stopping=True),
        }.get(verb)  # type: ignore[arg-type]
        if handler is None:
            return error_frame("bad_request", f"unknown verb {verb!r}")
        try:
            return handler(doc, body)
        except Exception as exc:  # never kill the connection loop
            obs.counter(
                "service_handler_errors_total",
                "unexpected exceptions inside verb handlers",
            ).labels(verb=str(verb)).inc()
            return error_frame("internal", f"{type(exc).__name__}: {exc}")

    def _tenant_or_error(
        self, doc: Dict[str, object]
    ) -> Tuple[Optional[Tenant], Optional[Dict[str, object]]]:
        tenant_id = doc.get("tenant")
        if not isinstance(tenant_id, str) or not protocol.valid_tenant_id(
            tenant_id
        ):
            return None, error_frame("bad_request", "bad tenant id")
        tenant = self.tenants.get(tenant_id)
        if tenant is None:
            return None, error_frame(
                "bad_request", f"unknown tenant {tenant_id!r}; hello first"
            )
        return tenant, None

    def _credits(self, tenant: Tenant) -> int:
        if tenant.mode == "paused":
            return 0
        return max(
            0, self.limits.queue_segments - tenant.pending_segments()
        )

    def _session_fields(self, tenant: Tenant) -> Dict[str, object]:
        return {
            "credits": self._credits(tenant),
            "mode": tenant.mode,
            "overload_level": self.overload_level,
        }

    def _handle_hello(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        tenant_id = doc.get("tenant")
        if not isinstance(tenant_id, str) or not protocol.valid_tenant_id(
            tenant_id
        ):
            return error_frame("bad_request", "bad tenant id")
        raw_streams = doc.get("streams")
        if not isinstance(raw_streams, list) or not raw_streams:
            return error_frame(
                "bad_request", "hello must declare streams=[[node, tid], ...]"
            )
        try:
            streams = sorted((str(n), int(t)) for n, t in raw_streams)
        except (TypeError, ValueError):
            return error_frame("bad_request", "malformed stream declaration")
        raw_totals = doc.get("totals") or {}
        if not isinstance(raw_totals, dict):
            return error_frame("bad_request", "malformed totals declaration")
        try:
            totals = {str(k): int(v) for k, v in raw_totals.items()}
        except (TypeError, ValueError):
            return error_frame("bad_request", "malformed totals declaration")
        with self._lock:
            tenant = self.tenants.get(tenant_id)
            if tenant is not None:
                if tenant.breaker.quarantined:
                    return error_frame(
                        "quarantined",
                        f"tenant {tenant_id} is quarantined "
                        f"(evidence under {tenant.breaker.quarantine_dir})",
                    )
                if streams != tenant.stream_keys():
                    return error_frame(
                        "bad_request",
                        "hello stream set does not match the existing "
                        "session (sessions are immutable once declared)",
                    )
                problem = tenant.declare_totals(totals)
                if problem is not None:
                    return error_frame("bad_request", problem)
                if totals:
                    tenant.save_state()
                    tenant.wakeup.set()
                return ok_frame(
                    resumed=True,
                    report_ready=tenant.done,
                    **self._session_fields(tenant),
                )
            refusal = self.limits.admit_tenant(len(self._active_tenants()))
            if refusal:
                obs.counter(
                    "service_admission_refusals_total",
                    "hello attempts refused by admission control",
                ).inc()
                return error_frame(
                    "over_capacity",
                    refusal,
                    retry_after_s=RETRY_AFTER["over_capacity"],
                )
            root = os.path.join(self.tenants_dir, tenant_id)
            os.makedirs(root, exist_ok=True)
            tenant = Tenant(
                tenant_id,
                root,
                model=self.model,
                window=self.window,
                max_bad_segments=self.max_bad_segments,
                checkpoint_every=self.checkpoint_every,
            )
            tenant.declare_streams(streams)
            tenant.declare_totals(totals)
            tenant.set_mode(self.overload_level)
            tenant.save_state()
            self.tenants[tenant_id] = tenant
            self._start_pump(tenant)
            obs.gauge(
                "service_tenants_active", "admitted, unfinished tenants"
            ).set(len(self._active_tenants()))
        return ok_frame(resumed=False, **self._session_fields(tenant))

    def _handle_segment(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        tenant, err = self._tenant_or_error(doc)
        if err is not None:
            return err
        if tenant.breaker.quarantined:
            return error_frame(
                "quarantined", f"tenant {tenant.tenant_id} is quarantined"
            )
        try:
            node = str(doc["node"])
            tid = int(doc["tid"])
            index = int(doc["index"])
        except (KeyError, TypeError, ValueError):
            return error_frame(
                "bad_request", "segment needs node, tid, index"
            )
        stream = tenant.streams.get((node, tid))
        if stream is None:
            return error_frame(
                "unknown_stream",
                f"stream {node}/{tid} was not declared in hello",
            )
        with tenant.lock:
            if index < stream.received:
                # Duplicate of a durably-spooled segment (client retried
                # across a lost ACK or a server restart): idempotent ok
                # even after finalize, so a full re-ship is always safe.
                return ok_frame(
                    duplicate=True, **self._session_fields(tenant)
                )
            if tenant.finalized:
                return error_frame(
                    "bad_request",
                    "tenant already finalized; no new segments",
                )
            if index > stream.received:
                return error_frame(
                    "out_of_order",
                    f"expected segment {stream.received} for "
                    f"{node}/{tid}, got {index}",
                    expected=stream.received,
                )
            if stream.declared is not None and index >= stream.declared:
                return error_frame(
                    "bad_request",
                    f"stream {node}/{tid} declared {stream.declared} "
                    f"segments; segment {index} is beyond that",
                )
            # Starvation relief bypasses backpressure AND the paused
            # rung: a segment the merge is starved on is the only way
            # the backlog can drain, so refusing it would deadlock the
            # tenant (the ladder would never recover).
            hungry = stream.hungry
        if not hungry:
            if tenant.mode == "paused":
                return error_frame(
                    "paused",
                    "ingestion paused by the overload ladder",
                    retry_after_s=RETRY_AFTER["paused"],
                )
            if tenant.pending_segments() >= self.limits.queue_segments:
                obs.counter(
                    "service_backpressure_total",
                    "segment uploads deferred by queue backpressure",
                ).labels(tenant=tenant.tenant_id).inc()
                return error_frame(
                    "over_queue",
                    "tenant ingest queue is full; wait for credits",
                    retry_after_s=RETRY_AFTER["over_queue"],
                )
        _count, sealed, reason = verify_segment_bytes(body)
        if reason is not None or not sealed:
            reason = reason or "unsealed segment on the wire"
            tripped = tenant.breaker.record_bad(
                f"{node}-{tid}-{index:04d}.wal", body, reason
            )
            if tripped:
                tenant.save_state()
                tenant.wakeup.set()
                return error_frame(
                    "quarantined",
                    f"tenant {tenant.tenant_id} quarantined after "
                    f"{tenant.breaker.bad_streak} damaged segments "
                    f"({reason})",
                )
            return error_frame("bad_segment", reason)
        tenant.breaker.record_good()
        started = time.perf_counter()
        with tenant.lock:
            if index < stream.received:  # raced with a duplicate
                return ok_frame(duplicate=True, **self._session_fields(tenant))
            os.makedirs(stream.directory, exist_ok=True)
            path = stream.segment_path(index)
            tmp = path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.write(body)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
            stream.received = index + 1
        tenant.wakeup.set()
        obs.counter(
            "service_segments_ingested_total",
            "WAL segments durably spooled",
        ).labels(tenant=tenant.tenant_id).inc()
        obs.histogram(
            "service_ingest_seconds",
            "durable spool latency per segment (server side)",
        ).labels(tenant=tenant.tenant_id).observe(
            time.perf_counter() - started
        )
        return ok_frame(**self._session_fields(tenant))

    def _handle_finalize(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        tenant, err = self._tenant_or_error(doc)
        if err is not None:
            return err
        if tenant.breaker.quarantined:
            return error_frame(
                "quarantined", f"tenant {tenant.tenant_id} is quarantined"
            )
        counts = doc.get("counts")
        if not isinstance(counts, dict):
            return error_frame(
                "bad_request", 'finalize needs counts={"node/tid": n}'
            )
        with tenant.lock:
            problem = tenant.finalize(
                {str(k): int(v) for k, v in counts.items()}
            )
        if problem is not None:
            return error_frame("incomplete", problem)
        tenant.wakeup.set()
        return ok_frame(**self._session_fields(tenant))

    def _handle_report(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        tenant, err = self._tenant_or_error(doc)
        if err is not None:
            return err
        if tenant.breaker.quarantined:
            return error_frame(
                "quarantined",
                f"tenant {tenant.tenant_id} is quarantined; no report",
            )
        if not tenant.done:
            return error_frame(
                "not_ready",
                "detection still running",
                retry_after_s=RETRY_AFTER["not_ready"],
            )
        with open(tenant.report_path) as fh:
            report = json.load(fh)
        return ok_frame(report=report)

    def _handle_status(
        self, doc: Dict[str, object], body: bytes
    ) -> Dict[str, object]:
        with self._lock:
            tenants = {
                t.tenant_id: {
                    "mode": t.mode,
                    "done": t.done,
                    "quarantined": t.breaker.quarantined,
                    "finalized": t.finalized,
                    "pending_segments": t.pending_segments(),
                    "received_segments": sum(
                        s.received for s in t.streams.values()
                    ),
                    "records_consumed": (
                        t.detector.records_consumed
                        if t.detector is not None
                        else 0
                    ),
                }
                for t in self.tenants.values()
            }
        return ok_frame(
            overload_level=self.overload_level,
            pid=os.getpid(),
            tenants=tenants,
        )
