"""Recover a ``Trace`` from a (possibly damaged) WAL directory.

Cloud runs end badly: nodes crash mid-write, disks tear records, files
go missing.  Salvage never raises on damage — every record that passes
its framing and CRC checks is recovered, everything else is quarantined
into a structured ``SalvageReport`` (what was lost, where, and why), and
the partial ``Trace`` is handed to the analysis pipeline, which degrades
to ``confidence: "partial"`` results instead of dying.

What counts as damage:

* **torn record** — an ``R`` line whose payload is shorter than its
  length prefix (a write interrupted mid-record);
* **CRC mismatch** — payload present but corrupted;
* **bad record** — payload passes its CRC but does not decode: bad
  JSON, malformed v2 fields, or a reference to an intern entry that a
  lost line of the same segment defined;
* **garbage line** — a line that is not ``H``/``R``/``S`` framed at all;
* **unsealed segment** — a segment file with no seal marker: its tail
  (and any records buffered but never flushed) is gone;
* **seal mismatch** — a seal whose count/CRC disagrees with the records
  actually read (silent loss *inside* a sealed segment);
* **missing segment** — a gap in the segment numbering.

**Live mode** (``live=True`` / ``dcatch salvage --live``): the WAL is
still being written — the tracer is running right now.  A growing
stream then *always* ends in an unsealed tail segment, and possibly a
half-flushed final record; calling that "damage" would make every
healthy live capture look broken.  In live mode the last segment of
each stream is allowed to be unsealed (``in_progress_segments``) and a
torn line at its EOF is ``records_in_progress`` — neither marks the
report damaged.  The same conditions *before* the tail are still real
damage, live or not.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TraceFormatError
from repro.runtime.ops import OpEvent
from repro.trace.store import Trace
from repro.trace.wal import (
    LINE_CRC,
    LINE_HEADER,
    LINE_RECORD,
    LINE_SEAL,
    LINE_TORN,
    RecordDecoder,
    scan_segment,
)


@dataclass
class QuarantinedRecord:
    """One damaged region of one WAL file."""

    path: str
    byte_start: int
    byte_end: int
    reason: str

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "byte_start": self.byte_start,
            "byte_end": self.byte_end,
            "reason": self.reason,
        }


@dataclass
class ThreadSalvage:
    """Per-stream (node/thread) recovery accounting."""

    node: str
    tid: int
    records_recovered: int = 0
    records_quarantined: int = 0
    sealed_segments: int = 0
    unsealed_segments: int = 0
    #: Live mode: the stream's growing tail segment (not damage).
    in_progress_segments: int = 0
    missing_segments: List[int] = field(default_factory=list)

    @property
    def damaged(self) -> bool:
        return bool(
            self.records_quarantined
            or self.unsealed_segments
            or self.missing_segments
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "tid": self.tid,
            "records_recovered": self.records_recovered,
            "records_quarantined": self.records_quarantined,
            "sealed_segments": self.sealed_segments,
            "unsealed_segments": self.unsealed_segments,
            "in_progress_segments": self.in_progress_segments,
            "missing_segments": self.missing_segments,
        }


@dataclass
class SalvageReport:
    """Everything salvage learned about one WAL directory."""

    directory: str
    records_recovered: int = 0
    records_quarantined: int = 0
    torn_records: int = 0
    crc_mismatches: int = 0
    bad_records: int = 0
    sealed_segments: int = 0
    unsealed_segments: int = 0
    seal_mismatches: int = 0
    #: Live mode only: growing tail segments / half-flushed tail
    #: records — expected for a WAL that is still being written.
    in_progress_segments: int = 0
    records_in_progress: int = 0
    missing_segments: List[str] = field(default_factory=list)
    quarantined: List[QuarantinedRecord] = field(default_factory=list)
    threads: Dict[str, ThreadSalvage] = field(default_factory=dict)

    @property
    def damaged(self) -> bool:
        """Did the WAL lose *anything*?  Drives ``Trace.partial``."""
        return bool(
            self.records_quarantined
            or self.unsealed_segments
            or self.seal_mismatches
            or self.missing_segments
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": "repro-salvage-report",
            "version": 1,
            "directory": self.directory,
            "damaged": self.damaged,
            "records_recovered": self.records_recovered,
            "records_quarantined": self.records_quarantined,
            "torn_records": self.torn_records,
            "crc_mismatches": self.crc_mismatches,
            "bad_records": self.bad_records,
            "sealed_segments": self.sealed_segments,
            "unsealed_segments": self.unsealed_segments,
            "seal_mismatches": self.seal_mismatches,
            "in_progress_segments": self.in_progress_segments,
            "records_in_progress": self.records_in_progress,
            "missing_segments": self.missing_segments,
            "quarantined": [q.to_dict() for q in self.quarantined],
            "threads": {
                key: t.to_dict() for key, t in sorted(self.threads.items())
            },
        }

    def render(self) -> str:
        lines = [
            f"salvage of {self.directory}: "
            + ("DAMAGED" if self.damaged else "clean")
        ]
        lines.append(
            f"  records: {self.records_recovered} recovered, "
            f"{self.records_quarantined} quarantined "
            f"({self.torn_records} torn, {self.crc_mismatches} CRC, "
            f"{self.bad_records} malformed)"
        )
        lines.append(
            f"  segments: {self.sealed_segments} sealed, "
            f"{self.unsealed_segments} unsealed, "
            f"{self.seal_mismatches} seal mismatches, "
            f"{len(self.missing_segments)} missing"
        )
        if self.in_progress_segments or self.records_in_progress:
            lines.append(
                f"  in progress (live): {self.in_progress_segments} "
                f"growing tail segment(s), {self.records_in_progress} "
                "half-flushed record(s)"
            )
        for key, thread in sorted(self.threads.items()):
            if thread.damaged:
                lines.append(
                    f"  {key}: {thread.records_recovered} recovered, "
                    f"{thread.records_quarantined} quarantined, "
                    f"{thread.unsealed_segments} unsealed segment(s)"
                )
        for q in self.quarantined[:20]:
            lines.append(
                f"  quarantined {q.path} bytes {q.byte_start}-{q.byte_end}: "
                f"{q.reason}"
            )
        if len(self.quarantined) > 20:
            lines.append(
                f"  ... and {len(self.quarantined) - 20} more quarantined regions"
            )
        return "\n".join(lines)


def _quarantine(
    report: SalvageReport,
    thread: ThreadSalvage,
    path: str,
    start: int,
    end: int,
    reason: str,
    kind: str,
) -> None:
    report.records_quarantined += 1
    thread.records_quarantined += 1
    if kind == "torn":
        report.torn_records += 1
    elif kind == "crc":
        report.crc_mismatches += 1
    else:
        report.bad_records += 1
    report.quarantined.append(
        QuarantinedRecord(path=path, byte_start=start, byte_end=end, reason=reason)
    )


#: Quarantine kind per damaged-line verdict of ``scan_segment``.
_DAMAGE_KIND = {LINE_TORN: "torn", LINE_CRC: "crc"}


def _salvage_segment(
    path: str,
    report: SalvageReport,
    thread: ThreadSalvage,
    records: List[OpEvent],
    live_tail: bool = False,
) -> None:
    """Scan one segment file line by line; recover what verifies.

    ``live_tail`` marks the stream's growing last segment during a live
    capture: an unterminated final line and a missing seal are then
    *in progress*, not damage."""
    sealed = False
    rel = os.path.relpath(path, report.directory)
    decoder = RecordDecoder()
    with open(path, "rb") as fh:
        for verdict, start, end, torn, value in scan_segment(fh):
            if torn and live_tail:
                # The writer is mid-append on this very line; it will be
                # complete (or sealed over) by the next look.
                report.records_in_progress += 1
            elif verdict == LINE_RECORD:
                try:
                    records.append(decoder.decode(value))
                except TraceFormatError as exc:
                    _quarantine(report, thread, rel, start, end, str(exc), "bad")
                else:
                    report.records_recovered += 1
                    thread.records_recovered += 1
            elif verdict == LINE_SEAL:
                sealed = True
                if value is not None:
                    report.seal_mismatches += 1
                    report.quarantined.append(
                        QuarantinedRecord(
                            path=rel, byte_start=start, byte_end=end, reason=value
                        )
                    )
            elif verdict != LINE_HEADER:
                # Later lines may refer to intern entries the lost line
                # defined: they must fail, not resolve to other values.
                decoder.freeze()
                kind = _DAMAGE_KIND.get(verdict, "torn" if torn else "bad")
                _quarantine(report, thread, rel, start, end, value, kind)
    if sealed:
        report.sealed_segments += 1
        thread.sealed_segments += 1
    elif live_tail:
        report.in_progress_segments += 1
        thread.in_progress_segments += 1
    else:
        report.unsealed_segments += 1
        thread.unsealed_segments += 1


def _segment_index(filename: str) -> Optional[int]:
    if filename.startswith("seg-") and filename.endswith(".wal"):
        try:
            return int(filename[4:-4])
        except ValueError:
            return None
    return None


def salvage_trace(
    directory: str, name: str = "salvaged", live: bool = False
) -> Tuple[Trace, SalvageReport]:
    """Rebuild a ``Trace`` from a WAL directory, quarantining damage.

    Never raises on damaged content — a WAL directory with no intact
    record at all yields an empty trace and a report that says so.
    Raises ``TraceFormatError`` only when ``directory`` is not a WAL
    directory at all (does not exist / contains no streams).

    ``live=True`` salvages a WAL that is *still being written*: each
    stream's growing tail segment may legitimately be unsealed and end
    mid-record; those are reported as in-progress, not damage, so a
    healthy live capture salvages clean."""
    if not os.path.isdir(directory):
        raise TraceFormatError(f"not a WAL directory: {directory}")
    report = SalvageReport(directory=directory)
    recovered: List[OpEvent] = []
    streams = 0
    for node in sorted(os.listdir(directory)):
        node_dir = os.path.join(directory, node)
        if not os.path.isdir(node_dir):
            continue
        for thread_entry in sorted(os.listdir(node_dir)):
            thread_dir = os.path.join(node_dir, thread_entry)
            if not os.path.isdir(thread_dir) or not thread_entry.startswith(
                "thread-"
            ):
                continue
            try:
                tid = int(thread_entry[len("thread-"):])
            except ValueError:
                continue
            streams += 1
            thread = ThreadSalvage(node=node, tid=tid)
            report.threads[f"{node}/thread-{tid}"] = thread
            indices = sorted(
                idx
                for entry in os.listdir(thread_dir)
                if (idx := _segment_index(entry)) is not None
            )
            if indices:
                # Gaps in the numbering are lost files, not lost tails.
                have = set(indices)
                for missing in range(indices[-1] + 1):
                    if missing not in have:
                        thread.missing_segments.append(missing)
                        report.missing_segments.append(
                            os.path.join(
                                node, thread_entry, f"seg-{missing:04d}.wal"
                            )
                        )
            for idx in indices:
                _salvage_segment(
                    os.path.join(thread_dir, f"seg-{idx:04d}.wal"),
                    report,
                    thread,
                    recovered,
                    live_tail=live and idx == indices[-1],
                )
    if streams == 0:
        raise TraceFormatError(
            f"no WAL streams under {directory} "
            "(expected <node>/thread-<tid>/seg-*.wal)"
        )

    trace = Trace(name)
    recovered.sort(key=lambda r: r.seq)
    for record in recovered:
        trace.append(record)
    trace.partial = report.damaged
    trace.salvage_report = report
    return trace, report
