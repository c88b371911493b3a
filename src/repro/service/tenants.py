"""Per-tenant state for the detection service.

Each admitted tenant owns a directory under ``<data_dir>/tenants/<id>``::

    state.json            durable session state (streams, finalize, mode)
    spool/<node>/thread-<tid>/seg-NNNN.wal    ingested segment bytes
    stream.ckpt           CRC-framed detector checkpoint (PR-7 format)
    report.json           canonical detection report, written once
    quarantine/           evidence bytes kept by the circuit breaker

The **spool is the WAL directory layout** — byte-for-byte the segments
the tenant's tracer wrote.  That is what makes the acceptance check
cheap: an offline ``repro stream <tenant>/spool`` pass over the spool
must produce the same canonical report the service did.

Ingestion is crash-ordered: a segment is ACKed only after its bytes are
durably in the spool (write-fsync-rename), and everything else —
``state.json``, the detector checkpoint — is reconstructible from the
spool plus the deterministic merge.  ``kill -9`` therefore loses
nothing that was ever acknowledged.

The merge is the correctness heart: :class:`StreamingDetector` requires
records in global ``seq`` order, but segments arrive interleaved across
streams.  :meth:`Tenant.pump` pops the min-``seq`` lookahead **only
when every open stream has one buffered** — so the pop order is the
total ``seq`` order regardless of arrival timing, which makes the
consumed prefix deterministic, which is what lets a raw-record-count
watermark in the checkpoint resume byte-identically after a crash.
"""

from __future__ import annotations

import json
import os
import threading
from collections import Counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro import obs
from repro.detect.streaming import (
    StreamingDetector,
    load_stream_checkpoint,
    save_stream_checkpoint,
    stream_fingerprint,
)
from repro.hb.model import FULL_MODEL, HBModel
from repro.runtime.ops import OpEvent
from repro.service.breaker import CircuitBreaker
from repro.service.report import build_report_doc, render_report
# Not called here; the per-layer benchmark ledger patches this name.
from repro.trace.records import record_from_dict  # noqa: F401
from repro.trace.sampling import Sampler, build_sampler
from repro.trace.wal import iter_segment_records, list_stream_segments

__all__ = ["Tenant", "StreamKey", "TENANT_STATE_FORMAT"]

StreamKey = Tuple[str, int]  # (node, tid)

TENANT_STATE_FORMAT = "repro-service-tenant"
TENANT_STATE_VERSION = 1

#: Sampling spec the overload ladder's ``sampled`` rung engages
#: (PR-9's budget+rate composite: cold locations whole, hot thinned).
OVERLOAD_SAMPLING_SPEC = "budget:8+rate:0.1"

#: Raw merged records between detector checkpoint saves.
DEFAULT_CHECKPOINT_EVERY = 20_000


def stream_key_str(key: StreamKey) -> str:
    return f"{key[0]}/{key[1]}"


class _SpoolStream:
    """One (node, tid) stream: spooled segment files plus the parse
    cursor feeding the merge."""

    def __init__(self, node: str, tid: int, directory: str) -> None:
        self.node = node
        self.tid = tid
        self.directory = directory
        #: Segments durably spooled (next expected upload index).
        self.received = 0
        #: Segments opened for decoding (the last may still hold records).
        self.consumed_segments = 0
        #: Final segment count, set by ``finalize``.
        self.declared: Optional[int] = None
        #: The next record in seq order, decoded but not yet merged.
        self.head: Optional[OpEvent] = None
        #: Lazy decoder over the segment being parsed.
        self._records: Optional[Iterator[OpEvent]] = None
        self.closed = False  # close_stream() delivered to the detector

    @property
    def key(self) -> StreamKey:
        return (self.node, self.tid)

    def segment_path(self, index: int) -> str:
        return os.path.join(self.directory, f"seg-{index:04d}.wal")

    def refill(self, damage: Counter) -> None:
        """Decode the next record into ``head``, opening the next
        spooled segment when the current one runs out (or leave
        ``head`` empty when the spool cursor has caught up).  Records
        are decoded one at a time, as the merge pulls them."""
        while self.head is None:
            if self._records is not None:
                self.head = next(self._records, None)
                if self.head is not None:
                    return
                self._records = None
            if self.consumed_segments >= self.received:
                return
            path = self.segment_path(self.consumed_segments)
            with open(path, "rb") as fh:
                data = fh.read()
            # Segment CRCs passed at ingest, so a record that fails to
            # decode is a schema problem, not corruption: count it and
            # continue.
            self._records = iter_segment_records(data, damage)
            self.consumed_segments += 1

    @property
    def buffered(self) -> bool:
        """A decoded record or a partly decoded segment is waiting."""
        return self.head is not None or self._records is not None

    @property
    def unparsed(self) -> int:
        """Spooled segments not yet opened for decoding."""
        return self.received - self.consumed_segments

    @property
    def hungry(self) -> bool:
        """Nothing buffered and nothing spooled to parse: the k-way
        merge may be starved on this stream, so backpressure must
        *never* refuse its next segment.  Without this carve-out a
        tenant with more streams than queue credits deadlocks — the
        credits fill with segments parked behind non-empty buffers
        while the merge starves on streams that were never allowed to
        ship, and the backlog can then never drain."""
        return not self.buffered and self.unparsed == 0 and not self.closed

    @property
    def exhausted(self) -> bool:
        """All declared segments parsed and drained."""
        return (
            self.declared is not None
            and self.consumed_segments >= self.declared
            and not self.buffered
        )

    @property
    def starved(self) -> bool:
        """Open (more data may come) but nothing decoded — the merge
        must stall rather than pop out of seq order."""
        return self.head is None and not self.exhausted


class Tenant:
    """One tenant's full lifecycle: ingest -> merge -> detect -> report."""

    def __init__(
        self,
        tenant_id: str,
        root: str,
        model: HBModel = FULL_MODEL,
        window: Optional[int] = None,
        max_bad_segments: int = 3,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        sampling_seed: int = 0,
    ) -> None:
        from repro.detect.streaming import DEFAULT_WINDOW

        self.tenant_id = tenant_id
        self.root = root
        self.model = model
        self.window = window if window is not None else DEFAULT_WINDOW
        self.checkpoint_every = checkpoint_every
        self.sampling_seed = sampling_seed
        self.streams: Dict[StreamKey, _SpoolStream] = {}
        self.finalized = False
        self.done = False
        #: Ingestion rung for this tenant ("full" | "sampled" | "paused").
        self.mode = "full"
        #: Sticky: the tenant's report must say "sampled" if the ladder
        #: ever thinned its stream, even if pressure later recovered.
        self.ever_sampled = False
        self.sampler: Optional[Sampler] = None
        self.damage: Counter = Counter()
        #: Raw merged records popped (kept *and* sampled-away) — the
        #: checkpoint watermark the deterministic merge resumes from.
        self.consumed_raw = 0
        self._skip_raw = 0
        self._last_checkpoint_raw = 0
        self.detector: Optional[StreamingDetector] = None
        self.breaker = CircuitBreaker(
            tenant=tenant_id,
            quarantine_dir=os.path.join(root, "quarantine"),
            max_bad_segments=max_bad_segments,
        )
        self.lock = threading.RLock()
        #: Pump wakeup: set on new segments / finalize / shutdown.
        self.wakeup = threading.Event()

    # -- paths -------------------------------------------------------------

    @property
    def spool_dir(self) -> str:
        return os.path.join(self.root, "spool")

    @property
    def state_path(self) -> str:
        return os.path.join(self.root, "state.json")

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.root, "stream.ckpt")

    @property
    def report_path(self) -> str:
        return os.path.join(self.root, "report.json")

    def _fingerprint(self) -> str:
        return stream_fingerprint(
            self.model, self.window, f"service:{self.tenant_id}"
        )

    # -- durable state -----------------------------------------------------

    def save_state(self) -> None:
        doc = {
            "format": TENANT_STATE_FORMAT,
            "version": TENANT_STATE_VERSION,
            "tenant": self.tenant_id,
            "streams": [[node, tid] for node, tid in sorted(self.streams)],
            "finalized": self.finalized,
            "declared": {
                stream_key_str(s.key): s.declared
                for s in self.streams.values()
                if s.declared is not None
            },
            "ever_sampled": self.ever_sampled,
            "quarantined": self.breaker.quarantined,
            "bad_total": self.breaker.bad_total,
            "window": self.window,
        }
        tmp = self.state_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.state_path)

    @classmethod
    def recover(cls, tenant_id: str, root: str, **kwargs: object) -> "Tenant":
        """Rebuild a tenant from its directory after a restart.

        ``state.json`` restores the session (streams, finalize,
        quarantine, sampling history); the **spool is the source of
        truth** for what was durably ingested — received counts are
        re-derived by listing it, never trusted from state.  The
        detector checkpoint, when present and fingerprint-matched, is
        loaded so resume skips already-retired work."""
        with open(os.path.join(root, "state.json")) as fh:
            doc = json.load(fh)
        if doc.get("format") != TENANT_STATE_FORMAT:
            raise ValueError(f"{root}: not a tenant state file")
        kwargs.setdefault("window", doc.get("window"))
        self = cls(tenant_id, root, **kwargs)  # type: ignore[arg-type]
        self.declare_streams(
            [(str(n), int(t)) for n, t in doc.get("streams", [])]
        )
        self.ever_sampled = bool(doc.get("ever_sampled"))
        if self.ever_sampled:
            self._engage_sampler()
        self.breaker.quarantined = bool(doc.get("quarantined"))
        self.breaker.bad_total = int(doc.get("bad_total", 0))
        spooled = (
            list_stream_segments(self.spool_dir)
            if os.path.isdir(self.spool_dir)
            else {}
        )
        for key, paths in spooled.items():
            stream = self.streams.get(key)
            if stream is not None:
                stream.received = len(paths)
        declared = {
            key: int(count)
            for key, count in (doc.get("declared") or {}).items()
        }
        # Totals may have been declared at hello, before finalize; they
        # gate mid-session stream closes, so restore them either way.
        self.declare_totals(declared)
        if doc.get("finalized"):
            self.finalize(
                {
                    stream_key_str(s.key): declared.get(
                        stream_key_str(s.key), s.received
                    )
                    for s in self.streams.values()
                },
                persist=False,
            )
        if os.path.exists(self.report_path):
            self.done = True
        elif os.path.exists(self.checkpoint_path):
            ckpt = load_stream_checkpoint(self.checkpoint_path)
            if ckpt.get("fingerprint") == self._fingerprint():
                self.detector = StreamingDetector.from_snapshot(
                    ckpt["snapshot"], self.model
                )
                extra = ckpt.get("extra") or {}
                self.consumed_raw = 0
                self._skip_raw = int(
                    extra.get("consumed_raw", self.detector.records_consumed)
                )
                self._last_checkpoint_raw = self._skip_raw
                self.damage.update(
                    {
                        str(k): int(v)
                        for k, v in (extra.get("damage") or {}).items()
                    }
                )
                if self.sampler is not None:
                    for k, v in (extra.get("sampled_dropped") or {}).items():
                        self.sampler.dropped[str(k)] = int(v)
        return self

    # -- session -----------------------------------------------------------

    def declare_streams(self, keys: List[StreamKey]) -> None:
        for node, tid in keys:
            key = (node, tid)
            if key in self.streams:
                continue
            directory = os.path.join(
                self.spool_dir, node, f"thread-{tid}"
            )
            self.streams[key] = _SpoolStream(node, tid, directory)

    def stream_keys(self) -> List[StreamKey]:
        return sorted(self.streams)

    def pending_segments(self) -> int:
        """Spooled-but-unparsed segments across all streams (the
        tenant's queue depth, governing credits)."""
        return sum(
            s.received - s.consumed_segments for s in self.streams.values()
        )

    def declare_totals(self, totals: Dict[str, int]) -> Optional[str]:
        """Record final per-stream segment counts announced at hello.

        Lets the merge close a fully-shipped stream without waiting
        for finalize — otherwise a short stream starves the merge (and
        freezes the queue drain) until every other stream finishes.
        Returns an error message on a conflicting re-declaration."""
        with self.lock:
            for stream in self.streams.values():
                total = totals.get(stream_key_str(stream.key))
                if total is None:
                    continue
                if total < 0:
                    return "negative segment total"
                if stream.declared is not None and stream.declared != total:
                    return (
                        f"stream {stream_key_str(stream.key)} total changed "
                        f"({stream.declared} -> {total}); sessions are "
                        "immutable once declared"
                    )
                stream.declared = total
        return None

    def finalize(
        self, counts: Dict[str, int], persist: bool = True
    ) -> Optional[str]:
        """Record the tenant's declared final segment counts.  Returns
        an error message when a declared stream is still missing
        segments (the client should re-ship and retry)."""
        for stream in self.streams.values():
            declared = counts.get(stream_key_str(stream.key))
            if declared is None:
                return f"finalize missing stream {stream_key_str(stream.key)}"
            if stream.received < declared:
                return (
                    f"stream {stream_key_str(stream.key)} has "
                    f"{stream.received}/{declared} segments; re-ship"
                )
        for stream in self.streams.values():
            stream.declared = counts[stream_key_str(stream.key)]
        self.finalized = True
        if persist:
            self.save_state()
        return None

    # -- overload ladder ---------------------------------------------------

    def _engage_sampler(self) -> None:
        if self.sampler is None:
            self.sampler = build_sampler(
                OVERLOAD_SAMPLING_SPEC, seed=self.sampling_seed
            )
        self.ever_sampled = True

    def set_mode(self, mode: str) -> bool:
        """Apply an overload-ladder rung; returns True on a change."""
        with self.lock:
            if mode == self.mode:
                return False
            previous = self.mode
            self.mode = mode
            if mode != "full" and not self.ever_sampled:
                self._engage_sampler()
                self.save_state()  # ever_sampled is report-affecting
            obs.counter(
                "service_overload_transitions_total",
                "per-tenant overload ladder transitions",
            ).labels(tenant=self.tenant_id, to=mode).inc()
            if previous == "paused":
                self.wakeup.set()
            return True

    # -- the pump ----------------------------------------------------------

    def _ensure_detector(self) -> StreamingDetector:
        if self.detector is None:
            self.detector = StreamingDetector(
                model=self.model,
                window=self.window,
                expected_streams=[tid for _, tid in self.streams],
            )
        return self.detector

    def pump(self, limit: Optional[int] = None) -> int:
        """Drain the merge into the detector as far as seq order
        allows, up to ``limit`` raw records (keeps the pump
        preemptible).  Returns the number of raw records advanced
        (0 means the merge is starved — waiting on more segments)."""
        detector = self._ensure_detector()
        advanced = 0
        while limit is None or advanced < limit:
            best: Optional[_SpoolStream] = None
            for stream in self.streams.values():
                if stream.closed:
                    continue
                stream.refill(self.damage)
                if stream.exhausted:
                    # Deliver close exactly once, and never during the
                    # resume replay (pre-watermark closes are already
                    # in the checkpoint snapshot).
                    if self.consumed_raw >= self._skip_raw:
                        detector.close_stream(stream.tid)
                    stream.closed = True
                    continue
                if stream.starved:
                    return advanced  # cannot pop without risking order
                if best is None or stream.head.seq < best.head.seq:
                    best = stream
            if best is None:
                return advanced
            event = best.head
            best.head = None
            self.consumed_raw += 1
            advanced += 1
            if self.consumed_raw <= self._skip_raw:
                # Resume replay: advance sampler state only; the
                # detector already holds this prefix.
                if self.sampler is not None:
                    self.sampler.observe(event)
                continue
            # "paused" is a superset of "sampled": the ladder is
            # monotone, so anything above the soft rung keeps the
            # detector on the sampler while it drains the backlog.
            if self.mode != "full" and self.sampler is not None:
                keep, _evictions = self.sampler.observe(event)
                if not keep:
                    continue
            detector.feed(event)

    def maybe_checkpoint(self, force: bool = False) -> bool:
        """Save the detector checkpoint (with the raw watermark) when
        the cadence says so."""
        if self.detector is None:
            return False
        raw = max(self.consumed_raw, self._skip_raw)
        if not force and raw - self._last_checkpoint_raw < self.checkpoint_every:
            return False
        extra: Dict[str, object] = {
            "consumed_raw": raw,
            "damage": dict(self.damage),
        }
        if self.sampler is not None:
            extra["sampled_dropped"] = dict(self.sampler.dropped)
        save_stream_checkpoint(
            self.checkpoint_path,
            self.detector,
            self._fingerprint(),
            extra=extra,
        )
        self._last_checkpoint_raw = raw
        obs.counter(
            "service_checkpoints_total", "per-tenant detector checkpoints"
        ).labels(tenant=self.tenant_id).inc()
        return True

    @property
    def drained(self) -> bool:
        """Every declared stream parsed, merged, and closed."""
        return self.finalized and all(
            s.closed for s in self.streams.values()
        )

    def write_report(self) -> Dict[str, object]:
        """Finish the detector and atomically publish the canonical
        report.  Idempotent: an existing report is returned as-is."""
        if os.path.exists(self.report_path):
            with open(self.report_path) as fh:
                return json.load(fh)
        detector = self._ensure_detector()
        for stream in self.streams.values():
            if stream.closed:
                # Idempotent: re-deliver closes the resume replay may
                # have skipped (they were already in the snapshot).
                detector.close_stream(stream.tid)
        detector.finish()
        self.maybe_checkpoint(force=True)
        confidence = "full"
        if self.damage or detector.state.rootless_segments:
            confidence = "partial"
        # Honesty cuts both ways: "sampled" iff records were actually
        # dropped.  A transient ladder flap that engaged the sampler
        # but thinned nothing must not taint a complete report.
        if self.sampler is not None and sum(self.sampler.dropped.values()):
            confidence = "sampled"
        doc = build_report_doc(
            tenant=self.tenant_id,
            model=detector.state.model.describe(),
            window=detector.window,
            records=detector.records_consumed,
            streams=detector.state.stats()["streams_started"],
            pairs=[
                (c.first.seq, c.second.seq) for c in detector.candidates
            ],
            confidence=confidence,
            damage=dict(self.damage),
            sampled_dropped=(
                dict(self.sampler.dropped) if self.sampler is not None else {}
            ),
        )
        tmp = self.report_path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(render_report(doc))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.report_path)
        self.done = True
        obs.counter(
            "service_reports_total", "tenant reports published"
        ).labels(tenant=self.tenant_id, confidence=confidence).inc()
        return doc
