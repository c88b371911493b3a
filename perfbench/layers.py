"""Which public entry points make up each layer, and the metric catalogue.

Every traced run prints every per-layer metric; a layer a workload does
not exercise reads 0.  Layer time is reported as a share of the traced
run's time (its wall time; for the service, the server's CPU time from
the first ``hello``), so that a share can be compared across runs of
different length.  Absolute seconds are printed in the ledger table.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zlib
from types import ModuleType
from typing import Dict, List, Tuple

from ledger import Ledger, TimedLock

#: End-to-end metrics (every workload prints all of them).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Ledger layer -> per-layer share metric, in table order.
SHARE_METRICS: List[Tuple[str, str]] = [
    ("trace.wal.read", "trace.wal.read_share"),
    ("trace.wal.crc", "trace.wal.crc_share"),
    ("trace.records.decode", "trace.records.decode_share"),
    ("detect.streaming.merge", "detect.streaming.merge_share"),
    ("detect.streaming.enumerate", "detect.streaming.enumerate_share"),
    ("detect.streaming.compact", "detect.streaming.compact_share"),
    ("hb.incremental.observe", "hb.incremental.observe_share"),
    ("service.protocol.frame", "service.protocol.frame_share"),
    ("service.server.segment", "service.server.segment_share"),
    ("service.server.dispatch", "service.server.dispatch_share"),
    ("service.tenants.merge", "service.tenants.merge_share"),
    ("service.tenants.refill", "service.tenants.refill_share"),
    ("service.tenants.checkpoint", "service.tenants.checkpoint_share"),
    ("service.tenants.report", "service.tenants.report_share"),
    ("runtime.scheduler.base", "runtime.scheduler.base_share"),
    ("trace.tracer.traced", "trace.tracer.traced_share"),
    ("detect.races.analysis", "detect.races.analysis_share"),
    ("analysis.pruner.apply", "analysis.pruner.apply_share"),
    ("trigger.validate", "trigger.validate_share"),
]

#: Share of a traced unit the named layers must account for.
COVERAGE_FLOOR = 0.90

#: Layers that are entry points or benchmark probes, not program layers:
#: their self time is the uncovered remainder.
ROOT_LAYERS = ("detect.streaming.drive", "pipeline.run", "bench.probe")

PER_LAYER: Dict[str, str] = {name: "share" for _, name in SHARE_METRICS}
PER_LAYER.update(
    {
        "bench.uncovered_share": "share",
        "bench.traced_wall_s": "s",
        "bench.untraced_wall_s": "s",
        "bench.tracing_overhead": "ratio",
        "trace.wal.bytes_per_record": "B",
        "trace.records.decoded": "count",
        "detect.streaming.pairs_examined": "count",
        "detect.streaming.candidates": "count",
        "detect.streaming.hit_ratio": "ratio",
        "detect.streaming.compactions": "count",
        "detect.streaming.evictions": "count",
        "detect.streaming.active_high_water": "count",
        "hb.incremental.clock_entries": "count",
        "service.protocol.wire_bytes_per_record": "B",
        "service.server.spool_ack_share": "share",
        "service.server.lock_wait_ack_share": "share",
        "service.server.refusals": "count",
        "service.server.stop_share": "share",
        "service.server.cpu_util": "ratio",
        "service.tenants.pump_batches": "count",
        "service.tenants.checkpoints": "count",
        "runtime.scheduler.steps": "count",
        "runtime.scheduler.steps_per_s": "1/s",
        "trace.tracer.overhead_ratio": "ratio",
        "analysis.pruner.kept_ratio": "ratio",
        "trigger.reruns": "count",
        "trigger.confirmed": "count",
    }
)


def _proxy(module: ModuleType, **overrides) -> ModuleType:
    """A copy of ``module`` with some attributes replaced, to time a
    library call (``zlib.crc32``, ``json.loads``) for one caller only."""
    proxy = ModuleType(module.__name__)
    proxy.__dict__.update(module.__dict__)
    proxy.__dict__.update(overrides)
    return proxy


def _probe_clock_entries(ledger: Ledger, detector_cls) -> None:
    """Sample the HB state's clock + pending-snapshot entries after each
    compaction (high water).  Charged to ``bench.probe``."""
    compact = detector_cls.compact

    def probe(detector) -> None:
        stats = detector.state.stats()
        entries = stats["clock_entries"] + stats["pending_entries"]
        if entries > ledger.counters.get("clock_entries", 0):
            ledger.counters["clock_entries"] = entries

    timed_probe = ledger.timed("bench.probe", probe)

    def compact_and_probe(self):
        retired = compact(self)
        timed_probe(self)
        return retired

    ledger.patch(detector_cls, "compact", compact_and_probe)


def install_stream(ledger: Ledger) -> None:
    """Offline ``detect_races_streaming(wal_dir=...)``."""
    import repro.detect.streaming as st
    import repro.hb.incremental as inc

    decode = "trace.records.decode"
    ledger.wrap(st, "detect_races_streaming", "detect.streaming.drive")
    ledger.patch(
        st,
        "iter_wal_records",
        ledger.timed_iterator("detect.streaming.merge", st.iter_wal_records),
    )
    # One reader per stream; its generator reads lines, checks CRCs and
    # decodes.  Reading is its self time.
    ledger.wrap_iterator(st._WalStreamReader, "__iter__", "trace.wal.read")
    ledger.patch(
        st, "zlib", _proxy(zlib, crc32=ledger.timed("trace.wal.crc", zlib.crc32))
    )
    ledger.patch(st, "json", _proxy(json, loads=ledger.timed(decode, json.loads)))
    ledger.wrap(
        st, "record_from_dict", decode, on_result=lambda _: ledger.count("decoded")
    )
    ledger.wrap(st.StreamingDetector, "feed", "detect.streaming.enumerate")
    ledger.wrap(st.StreamingDetector, "compact", "detect.streaming.compact")
    _probe_clock_entries(ledger, st.StreamingDetector)
    ledger.wrap(inc.StreamingHBState, "observe", "hb.incremental.observe")


def install_taxdc(ledger: Ledger) -> None:
    """``DCatch(workload, PipelineConfig(trigger=True)).run()``."""
    import repro.pipeline as pl
    from repro.runtime.cluster import Cluster

    analysis = "detect.races.analysis"
    prune = "analysis.pruner.apply"
    ledger.wrap(pl.DCatch, "run", "pipeline.run")
    ledger.wrap(
        pl.DCatch,
        "run_base",
        "runtime.scheduler.base",
        on_result=lambda r: ledger.count("base_steps", r.steps),
    )
    ledger.wrap(pl.DCatch, "run_traced", "trace.tracer.traced")
    ledger.wrap(pl.HBGraph, "__init__", analysis)
    ledger.wrap(pl.HBGraph, "reach_stats", analysis)
    ledger.wrap(pl, "detect_races", analysis)
    ledger.wrap(pl.SourceIndex, "from_modules", prune)
    ledger.wrap(pl.StaticPruner, "for_trace", prune)
    ledger.wrap(pl.StaticPruner, "apply", prune)
    ledger.wrap(pl.PlacementAnalyzer, "__init__", "trigger.validate")
    ledger.wrap(pl.TriggerModule, "validate_report", "trigger.validate")
    run = Cluster.run

    def counted_run(self):
        result = run(self)
        ledger.count("cluster_runs")
        ledger.count("steps", result.steps)
        return result

    ledger.patch(Cluster, "run", counted_run)


class ServeSession:
    """Server-side bookkeeping the service layers need beyond the
    ledger rows: session bounds and the segment-handler flag."""

    def __init__(self) -> None:
        self.in_segment = threading.local()
        self.first_hello_wall = None
        self.first_hello_cpu = None
        self.last_report_wall = None
        self.last_report_cpu = None
        self.stop_wall_s = None

    def watched(self) -> bool:
        return getattr(self.in_segment, "on", False)


def install_serve(ledger: Ledger) -> ServeSession:
    """``dcatch serve``, inside the server process (thread CPU clock)."""
    import repro.detect.streaming as st
    import repro.hb.incremental as inc
    import repro.service.protocol as proto
    import repro.service.server as srv
    import repro.service.tenants as ten
    import repro.trace.wal as wal

    session = ServeSession()
    decode = "trace.records.decode"
    ledger.wrap(proto, "recv_frame", "service.protocol.frame")
    ledger.wrap(proto, "send_frame", "service.protocol.frame")
    ledger.wrap(srv, "verify_segment_bytes", "trace.wal.crc")
    ledger.wrap(srv.DetectionServer, "_dispatch", "service.server.dispatch")
    handle_segment = ledger.timed(
        "service.server.segment", srv.DetectionServer._handle_segment
    )

    def segment(self, doc, body):
        session.in_segment.on = True
        try:
            return handle_segment(self, doc, body)
        finally:
            session.in_segment.on = False

    ledger.patch(srv.DetectionServer, "_handle_segment", segment)
    hello = srv.DetectionServer._handle_hello

    def handle_hello(self, doc, body):
        if session.first_hello_wall is None:
            session.first_hello_wall = time.perf_counter()
            session.first_hello_cpu = time.process_time()
        return hello(self, doc, body)

    ledger.patch(srv.DetectionServer, "_handle_hello", handle_hello)
    stop = srv.DetectionServer.stop

    def timed_stop(self):
        started = time.perf_counter()
        try:
            return stop(self)
        finally:
            session.stop_wall_s = time.perf_counter() - started

    ledger.patch(srv.DetectionServer, "stop", timed_stop)
    init = ten.Tenant.__init__

    def tenant_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.lock = TimedLock(self.lock, ledger, "lock_wait_s", session.watched)

    ledger.patch(ten.Tenant, "__init__", tenant_init)
    ledger.wrap(
        ten.Tenant,
        "pump",
        "service.tenants.merge",
        on_result=lambda advanced: ledger.count("pump_batches"),
    )
    # ``_SpoolStream.refill`` runs O(streams) times per record; timing it
    # would cost more than the work.  Its parse step is timed instead.
    ledger.patch(
        ten,
        "iter_segment_records",
        ledger.timed_iterator("service.tenants.refill", ten.iter_segment_records),
    )
    ledger.patch(wal, "json", _proxy(json, loads=ledger.timed(decode, json.loads)))
    ledger.wrap(
        ten, "record_from_dict", decode, on_result=lambda _: ledger.count("decoded")
    )
    ledger.wrap(
        ten.Tenant,
        "maybe_checkpoint",
        "service.tenants.checkpoint",
        on_result=lambda saved: saved and ledger.count("checkpoints"),
    )
    write_report = ledger.timed("service.tenants.report", ten.Tenant.write_report)

    def report(self):
        doc = write_report(self)
        session.last_report_wall = time.perf_counter()
        session.last_report_cpu = time.process_time()
        return doc

    ledger.patch(ten.Tenant, "write_report", report)
    ledger.wrap(st.StreamingDetector, "feed", "detect.streaming.enumerate")
    ledger.wrap(st.StreamingDetector, "compact", "detect.streaming.compact")
    _probe_clock_entries(ledger, st.StreamingDetector)
    ledger.wrap(inc.StreamingHBState, "observe", "hb.incremental.observe")
    return session


# -- assembly ------------------------------------------------------------


def per_layer_metrics(
    layers: Dict[str, Dict[str, float]],
    basis_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Every per-layer metric: shares of ``basis_s`` for the timed
    layers, ``extra`` for the counts, 0 for layers not exercised."""
    metrics = {name: 0.0 for name in PER_LAYER}
    covered = 0.0
    for layer, name in SHARE_METRICS:
        self_s = layers.get(layer, {}).get("self_s", 0.0)
        metrics[name] = self_s / basis_s
        covered += self_s
    metrics["bench.uncovered_share"] = (basis_s - covered) / basis_s
    metrics["bench.traced_wall_s"] = traced_wall_s
    metrics["bench.untraced_wall_s"] = untraced_wall_s
    metrics["bench.tracing_overhead"] = traced_wall_s / untraced_wall_s - 1.0
    for name, value in extra.items():
        if name not in metrics:
            raise KeyError(f"unknown per-layer metric {name}")
        metrics[name] = value
    return metrics


def ledger_table(
    layers: Dict[str, Dict[str, float]], basis_s: float, basis: str
) -> List[str]:
    """Human-readable ledger: one line per layer, then the uncovered
    remainder on its own line."""
    lines = [f"ledger basis: {basis} {basis_s:.4f}s"]
    lines.append(f"  {'layer':34s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    covered = 0.0
    for layer, _ in SHARE_METRICS:
        row = layers.get(layer)
        if row is None:
            continue
        covered += row["self_s"]
        lines.append(
            f"  {layer:34s} {row['calls']:9d} {row['self_s']:10.4f} "
            f"{row['self_s'] / basis_s:7.1%}"
        )
    for layer in ROOT_LAYERS:
        row = layers.get(layer)
        if row is not None:
            lines.append(
                f"  ({layer} self, not a layer) {row['calls']:d} calls "
                f"{row['self_s']:.4f}s"
            )
    coverage = covered / basis_s
    lines.append(
        f"uncovered remainder: {basis_s - covered:.4f}s "
        f"({(basis_s - covered) / basis_s:.1%})"
    )
    verdict = "ok" if coverage >= COVERAGE_FLOOR else "BELOW THE FLOOR"
    lines.append(
        f"coverage check: named layers cover {coverage:.1%} of the basis "
        f"(floor {COVERAGE_FLOOR:.0%}: {verdict})"
    )
    return lines


def dir_bytes(root: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _dirs, files in os.walk(root)
        for name in files
    )
