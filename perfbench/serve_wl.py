"""serve-2tenant: two closed-loop tenants ship to a ``dcatch serve``
subprocess.

The benchmark process is the load generator: one thread and one
connection per tenant, each a real ``ServiceClient.ship_wal_dir`` that
waits for every segment ACK before sending the next, then polls for the
report.  The server runs pinned to one CPU and the load generator to the
other while the session is measured.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from typing import Dict, List, Optional, Sequence, Tuple

import common
import layers

LAUNCHER = str(common.BENCH_DIR / "serve_launcher.py")

#: Every segment gets a credit and the overload ladder never engages:
#: this workload measures full-confidence throughput, not degradation.
QUEUE_SEGMENTS = 1024

#: Minimum sessions per measured run (tenant ids ``<system>-<n>``, one
#: server); ``wall_s`` is their median.  A fresh server's first session
#: runs up to ~1.5x slower than the next ones, so two would not do.
SESSIONS = 3


class Server:
    """One ``dcatch serve`` subprocess over its own data directory."""

    def __init__(self, data_dir: str, cpu: Optional[int], ledger_out=None):
        self.data_dir = data_dir
        self.ledger_out = ledger_out
        os.makedirs(data_dir, exist_ok=True)
        argv = [sys.executable, LAUNCHER]
        if cpu is not None:
            argv += ["--cpu", str(cpu)]
        if ledger_out is not None:
            argv += ["--ledger", ledger_out]
        argv += [
            "serve", data_dir,
            "--window", str(common.WINDOW),
            "--queue-segments", str(QUEUE_SEGMENTS),
            "--http-port", "0",
        ]
        self._log = open(os.path.join(data_dir, "server.log"), "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=common.src_env(), stdout=self._log, stderr=self._log
        )
        self.doc = self._wait_ready()
        self.start_s = time.perf_counter() - started
        self.port = int(self.doc["port"])
        self.http_port = int(self.doc["http_port"])

    def _wait_ready(self) -> Dict[str, object]:
        from repro.service.server import load_service_file

        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            try:
                doc = load_service_file(self.data_dir)
                if doc.get("pid") == self.proc.pid:
                    return doc
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        self.kill()
        raise RuntimeError("server never became ready")

    def scrape(self) -> Dict[str, float]:
        """Unlabelled sums of every sample on ``/metrics``."""
        url = f"http://127.0.0.1:{self.http_port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            text = response.read().decode()
        totals: Dict[str, float] = {}
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            base = name.split("{", 1)[0]
            totals[base] = totals.get(base, 0.0) + float(value)
        return totals

    def terminate(self) -> float:
        """SIGTERM; seconds until the process has exited."""
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()
        return time.perf_counter() - started

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()

    def report_bytes(self, tenant: str) -> bytes:
        path = os.path.join(self.data_dir, "tenants", tenant, "report.json")
        with open(path, "rb") as fh:
            return fh.read()


def _ship(
    port: int, tenant: str, wal_dir: str, rec: Dict[str, object]
) -> None:
    from repro.service.client import ServiceClient

    try:
        with ServiceClient("127.0.0.1", port, tenant, retry_deadline_s=120) as client:
            send_segment = client.send_segment

            def counted(*args, **kwargs):
                response = send_segment(*args, **kwargs)
                rec["acks"] += 1
                return response

            client.send_segment = counted
            rec["start"] = time.perf_counter()
            result = client.ship_wal_dir(wal_dir)
            rec["finalized"] = time.perf_counter()
            rec["report"] = client.wait_report(timeout_s=150)
            rec["reported"] = time.perf_counter()
            rec["latencies"] = result.ingest_latencies_s
            rec["bytes"] = result.bytes_shipped
            rec["refusals"] = result.backpressure_waits + result.paused_waits
    except Exception as exc:  # the session's failure, counted by the caller
        rec["error"] = f"{type(exc).__name__}: {exc}"


def session(
    server: Server, inputs: Sequence[Dict[str, object]], tag: str
) -> Dict[str, Dict[str, object]]:
    """Ship every tenant concurrently as ``<system>-<tag>``, the load
    generator pinned to the CPU the server is not on."""
    recs = {
        f"{i['system']}-{tag}": {"acks": 0, "latencies": [], "bytes": 0,
                                 "refusals": 0, "item": i}
        for i in inputs
    }
    threads = [
        threading.Thread(
            target=_ship,
            args=(server.port, tenant, rec["item"]["wal_dir"], rec),
            name=f"ship-{tenant}",
        )
        for tenant, rec in recs.items()
    ]
    allowed = common.pin_to_one_cpu()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=170)
    finally:
        common.unpin(allowed)
    return recs


def _session_figures(recs: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    figures: Dict[str, object] = {
        "latencies": [s for r in recs.values() for s in r["latencies"]],
        "bytes": sum(int(r["bytes"]) for r in recs.values()),
        "refusals": sum(int(r["refusals"]) for r in recs.values()),
    }
    if all("reported" in r for r in recs.values()):
        start = min(float(r["start"]) for r in recs.values())
        figures["wall"] = max(float(r["reported"]) for r in recs.values()) - start
        figures["records"] = sum(int(r["report"]["records"]) for r in recs.values())
        figures["lag"] = max(
            float(r["reported"]) - float(r["finalized"]) for r in recs.values()
        )
    return figures


def _gate(
    outcome: common.Outcome,
    server: Server,
    recs: Dict[str, Dict[str, object]],
    oracles: Dict[str, bytes],
) -> None:
    for tenant, rec in recs.items():
        segments = int(rec["item"]["segments"])
        acked = min(int(rec["acks"]), segments)
        outcome.attempted += acked
        if acked < segments:
            outcome.fail(
                segments - acked,
                f"{tenant}: {segments - acked} segments never ACKed "
                f"({rec.get('error')})",
            )
        try:
            got = server.report_bytes(tenant)
        except OSError as exc:
            got = f"missing: {exc}".encode()
        outcome.check(
            "report" in rec
            and rec["report"].get("confidence") == "full"
            and got == oracles[tenant],
            f"{tenant}: report is not byte-identical to the offline pass",
        )


def _serve(
    server: Server,
    inputs: Sequence[Dict[str, object]],
    sessions: int,
    seconds: float,
    first_tag: int,
) -> Dict[str, object]:
    """``sessions`` sessions (more while under ``seconds``) on one
    server, then its scrape, peak RSS and shutdown."""
    runs: List[Dict[str, Dict[str, object]]] = []
    started = time.perf_counter()
    while len(runs) < sessions or time.perf_counter() - started < seconds:
        runs.append(session(server, inputs, str(first_tag + len(runs))))
    figures = [_session_figures(recs) for recs in runs]
    result: Dict[str, object] = {"runs": runs, "figures": figures}
    if server.ledger_out is not None:
        result["scrape"] = server.scrape()
    result["peak_rss_mb"] = common.peak_rss_mb(server.proc.pid)
    result["shutdown"] = server.terminate()
    return result


def _setup(
    systems: Sequence[str], shape: str, seed: int, work: str, attempt: int
) -> Tuple[float, List[Dict[str, object]], Server]:
    """Generate every tenant's input side by side, then start a server
    pinned to the highest allowed CPU."""
    from repro.trace.wal import list_stream_segments

    started = time.perf_counter()
    base = os.path.join(work, f"setup-{attempt}")
    procs = common.start_workers(
        [("generate", s, shape, str(seed), os.path.join(base, s)) for s in systems]
    )
    inputs = common.finish_workers(procs)
    server = Server(os.path.join(base, "data"), cpu=max(os.sched_getaffinity(0)))
    elapsed = time.perf_counter() - started
    for item in inputs:
        item["segments"] = sum(
            len(p) for p in list_stream_segments(str(item["wal_dir"])).values()
        )
    return elapsed, inputs, server


def _oracles(
    inputs: Sequence[Dict[str, object]], tenants: Sequence[str], work: str
) -> Dict[str, bytes]:
    """One offline single pass per input, side by side, rendered for
    every tenant id that shipped it."""
    prefix = os.path.join(work, "oracle-")
    procs = common.start_workers(
        [
            ("oracle", str(i["wal_dir"]), str(common.WINDOW), prefix,
             *[t for t in tenants if t.rsplit("-", 1)[0] == i["system"]])
            for i in inputs
        ]
    )
    common.finish_workers(procs)
    oracles = {}
    for tenant in tenants:
        with open(f"{prefix}{tenant}.json", "rb") as fh:
            oracles[tenant] = fh.read()
    return oracles


def _traced_metrics(
    server: Server,
    traced: Dict[str, object],
    untraced_wall: float,
    records: int,
) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics and ledger lines from the traced server's
    ledger file, its ``/metrics`` scrape and the traced session."""
    with open(server.ledger_out) as fh:
        ledger = json.load(fh)
    rows = ledger["layers"]
    counters = ledger["counters"]
    cpu = float(ledger["cpu_end"]) - float(ledger["first_hello_cpu"])
    session_cpu = float(ledger["last_report_cpu"]) - float(
        ledger["first_hello_cpu"]
    )
    session_wall = float(ledger["last_report_wall"]) - float(
        ledger["first_hello_wall"]
    )
    traced_figures = traced["figures"][0]
    scrape = traced["scrape"]
    ack_total = sum(traced_figures["latencies"]) or 1.0
    wire = traced_figures["bytes"] / records
    extra = {
        "trace.wal.bytes_per_record": wire,
        "trace.records.decoded": counters.get("decoded", 0),
        "detect.streaming.compactions": scrape.get("stream_compactions_total", 0),
        "detect.streaming.evictions": scrape.get(
            "stream_window_evictions_total", 0
        ),
        "detect.streaming.candidates": scrape.get("detect_candidates_total", 0),
        "hb.incremental.clock_entries": counters.get("clock_entries", 0),
        "service.protocol.wire_bytes_per_record": wire,
        "service.server.spool_ack_share": scrape.get(
            "service_ingest_seconds_sum", 0.0
        ) / ack_total,
        "service.server.lock_wait_ack_share": counters.get("lock_wait_s", 0.0)
        / ack_total,
        "service.server.refusals": traced_figures["refusals"],
        "service.server.stop_share": float(ledger["stop_wall_s"])
        / traced["shutdown"],
        "service.server.cpu_util": session_cpu / session_wall,
        "service.tenants.pump_batches": counters.get("pump_batches", 0),
        "service.tenants.checkpoints": counters.get("checkpoints", 0),
    }
    traced_wall = float(traced_figures.get("wall", 0.0))
    metrics = layers.per_layer_metrics(rows, cpu, traced_wall, untraced_wall, extra)
    table = layers.ledger_table(rows, cpu, "server CPU from first hello")
    table.append(
        f"server CPU utilisation in session: {session_cpu / session_wall:.1%}; "
        f"stop() {ledger['stop_wall_s']:.3f}s of {traced['shutdown']:.3f}s "
        f"shutdown; lock wait in segment handlers "
        f"{counters.get('lock_wait_s', 0.0):.3f}s"
    )
    table.append(
        f"tracing overhead: traced session {traced_wall:.3f}s vs untraced "
        f"{untraced_wall:.3f}s"
    )
    return metrics, table


def run(
    systems: Sequence[str], shape: str, seed: int, seconds: float, trace: bool
) -> None:
    outcome = common.Outcome()
    work = common.run_dir("serve")
    servers: List[Server] = []
    try:
        setups: List[float] = []
        for attempt in range(common.SETUP_REPEATS):
            elapsed, inputs, server = _setup(systems, shape, seed, work, attempt)
            servers.append(server)
            setups.append(elapsed)
            if attempt < common.SETUP_REPEATS - 1:
                # Only the last set-up is measured; the earlier ones
                # exist to time set-up and are discarded.
                server.kill()
                common.remove_tree(os.path.dirname(server.data_dir))
        records = sum(int(i["records"]) for i in inputs)
        untraced = _serve(
            server, inputs, 1 if trace else SESSIONS, 0.0 if trace else seconds, 0
        )
        served = [(server, untraced)]
        if trace:
            traced_server = Server(
                os.path.join(work, "traced-data"),
                cpu=max(os.sched_getaffinity(0)),
                ledger_out=os.path.join(work, "ledger.json"),
            )
            servers.append(traced_server)
            traced = _serve(traced_server, inputs, 1, 0.0, len(untraced["runs"]))
            served.append((traced_server, traced))
        tenants = [t for _, r in served for recs in r["runs"] for t in recs]
        oracles = _oracles(inputs, tenants, work)
        for srv, result in served:
            for recs in result["runs"]:
                _gate(outcome, srv, recs, oracles)

        figures = untraced["figures"]
        latencies = [s for f in figures for s in f["latencies"]]
        walls = [float(f["wall"]) for f in figures if "wall" in f]
        if len(walls) < len(figures):
            outcome.fail(len(figures) - len(walls), "a session did not finish")
        fingerprint = {
            "workload": "serve-2tenant",
            "seed": seed,
            "host": common.host_fingerprint(),
            "input": {
                "tenants": [
                    {
                        "system": i["system"],
                        "spec": i["spec"],
                        "records": i["records"],
                        "streams": i["streams"],
                        "segments": i["segments"],
                    }
                    for i in inputs
                ],
                "records": records,
            },
            "loop": "closed: one thread and one connection per tenant",
            "queue_segments": QUEUE_SEGMENTS,
            "sessions": len(figures),
        }
        lags = ", ".join(f"{float(f.get('lag', 0)):.3f}s" for f in figures)
        table = [
            f"setups: {', '.join(f'{s:.3f}s' for s in setups)}; "
            f"server start {server.start_s:.3f}s",
            f"sessions: {', '.join(f'{w:.3f}s' for w in walls)}; report lag "
            f"{lags} (client polls every 0.1s); "
            f"shutdown {untraced['shutdown']:.3f}s",
        ]
        if latencies:
            table.append(
                f"ack latency: p50 {common.percentile(latencies, 0.5) * 1e3:.2f}ms "
                f"p98 {common.percentile(latencies, 0.98) * 1e3:.2f}ms "
                f"over {len(latencies)} ACKs"
            )
        if not trace:
            wall = statistics.median(walls) if walls else 0.0
            metrics = {
                "setup_s": statistics.median(setups),
                "records_per_s": records / wall if wall else 0.0,
                "wall_s": wall,
                "peak_rss_mb": untraced["peak_rss_mb"],
            }
            common.emit(outcome, metrics, layers.END_TO_END, fingerprint, table)
            return
        metrics, lines = _traced_metrics(
            traced_server, traced, walls[0] if walls else 0.0, records
        )
        table += lines
        common.emit(outcome, metrics, layers.PER_LAYER, fingerprint, table)
    finally:
        for server in servers:
            server.kill()
        common.remove_tree(work)
