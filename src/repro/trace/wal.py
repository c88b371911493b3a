"""Durable write-ahead trace log.

The paper's tracer writes one trace file per thread of every process
(Section 3.1); ours keeps traces in memory, which means a node crashed
by a fault campaign takes its whole trace with it.  This module is the
durable path: the tracer appends every record to a per-node, per-thread
*segmented* append-only log as the run executes, so a node killed
mid-run leaves a salvageable prefix on disk.

Layout (under one WAL directory)::

    <dir>/<node>/thread-<tid>/seg-0000.wal
    <dir>/<node>/thread-<tid>/seg-0001.wal
    ...

Each segment file is line-oriented so a reader can resynchronize after
damage.  Line grammar::

    H <json>                         header: node, tid, segment index, format
    R <len:08x> <crc:08x> <payload>  one record (len/CRC32 of the payload)
    S <count:08x> <crc:08x>          seal: record count + running CRC

The length prefix detects torn (partially written) records, the per-line
CRC detects bit rot, and the seal marker distinguishes a cleanly closed
segment from one whose tail was lost.  Records are buffered and flushed
every ``flush_every`` appends: the unflushed suffix is exactly what a
crash loses.  ``abandon()`` models the crash — it drops part of the
buffer and tears the last write mid-record, which is what the salvage
path (`repro.trace.salvage`) must recover from.

**Record payloads.**  A payload starting with ``{`` is a *v1* record:
the JSON object of :func:`repro.trace.records.record_to_dict`.  Every
other payload is a *v2* record — twelve tab-separated fields::

    seq  kind  tid  segment  observed_write  in_handler
    node  thread  stack  location  obj_id  extra

``seq``, ``tid``, ``segment`` and ``observed_write`` (empty for none)
are decimals, ``kind`` is the decimal index into :data:`KIND_CODES`
and ``in_handler`` is ``0``/``1``.  ``node`` and ``thread``, ``stack``,
``location`` (empty for none), ``extra`` (empty for ``{}``) and a
non-scalar ``obj_id`` are references into the segment's **intern
tables** (one per value class: names, stacks, locations, object ids,
extras).  A reference is either ``=<json>``, which defines the next
entry of its table, or the decimal index of an entry defined earlier
in the same segment.  Tables start empty in every segment, so each
segment decodes on its own — which is what the detection service and
salvage need.  A string ``obj_id`` without tabs or newlines is inline
as ``s<text>``, an ``int`` as ``i<decimal>``.  Readers pick the codec
per line, so v1 and v2 lines may share a segment, and v1 directories
written before v2 still decode.

On the read side :func:`scan_segment` is the one framing loop: it
classifies every line (verified record, seal, torn/CRC-bad/garbage
damage) and each caller applies its own damage policy — the streaming
detector truncates the stream, salvage quarantines and continues, the
service counts.  :class:`RecordDecoder` then turns verified payloads
into ``OpEvent``s one line at a time.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.errors import TraceFormatError
from repro.ids import CallStack, Frame
from repro.runtime.ops import OpEvent, OpKind
from repro.trace.records import (
    TRACE_SCHEMA_VERSION,
    _jsonable,
    _untuple,
    record_from_dict,
    record_to_dict,
)

#: Fires after a segment seals: ``(node, tid, segment_index, path)``.
#: This is the hook the detection-service client rides to ship sealed
#: segments as the run executes.
SealCallback = Callable[[str, int, int, str], None]

WAL_FORMAT = "repro-wal"
#: Segment format written by :class:`WalWriter`.  Version 2 segments
#: may hold v2 record payloads; version 1 segments hold only JSON.
WAL_VERSION = 2

#: Records per segment before rotation.  Small enough that a long run
#: seals many segments (so most of the trace survives a crash sealed),
#: large enough that rotation cost is negligible.
DEFAULT_SEGMENT_RECORDS = 256

#: Appends between flushes.  The buffered suffix is what a crash loses.
DEFAULT_FLUSH_EVERY = 32

#: v2 kind codes: a record's kind is its index here.  Append-only —
#: reordering would change the meaning of every written segment.
KIND_CODES: Tuple[OpKind, ...] = (
    OpKind.THREAD_CREATE,
    OpKind.THREAD_BEGIN,
    OpKind.THREAD_END,
    OpKind.THREAD_JOIN,
    OpKind.EVENT_CREATE,
    OpKind.EVENT_BEGIN,
    OpKind.EVENT_END,
    OpKind.RPC_CREATE,
    OpKind.RPC_BEGIN,
    OpKind.RPC_END,
    OpKind.RPC_JOIN,
    OpKind.SOCK_SEND,
    OpKind.SOCK_RECV,
    OpKind.ZK_UPDATE,
    OpKind.ZK_PUSHED,
    OpKind.MEM_READ,
    OpKind.MEM_WRITE,
    OpKind.LOCK_ACQUIRE,
    OpKind.LOCK_RELEASE,
)
_KIND_CODE = {kind: code for code, kind in enumerate(KIND_CODES)}


def _crc(payload: bytes, running: int = 0) -> int:
    return zlib.crc32(payload, running) & 0xFFFFFFFF


def encode_record_line(payload: bytes) -> bytes:
    """Frame one record payload as an ``R`` line."""
    return b"R %08x %08x " % (len(payload), _crc(payload)) + payload + b"\n"


def encode_seal_line(count: int, running_crc: int) -> bytes:
    return b"S %08x %08x\n" % (count, running_crc & 0xFFFFFFFF)


# -- record codec --------------------------------------------------------------


def _encode_v1(event: OpEvent) -> bytes:
    """The v1 payload: the record's canonical JSON object."""
    return json.dumps(record_to_dict(event), sort_keys=True).encode()


def _stack_text(stack: CallStack) -> str:
    return json.dumps([[f.path, f.func, f.line] for f in stack])


def _location_text(location: Any) -> str:
    return json.dumps(list(location))


def _same(value: Any) -> Any:
    return value


class RecordEncoder:
    """Encodes ``OpEvent``s as v2 payloads, one segment at a time.

    :meth:`reset` at every segment start.  A record the v2 fields
    cannot carry exactly (a non-``int`` seq, a non-``str`` node, a
    string the line encoding cannot hold) is written as a v1 payload
    instead; the intern tables are rolled back first so they stay in
    step with what a decoder will read."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._names: Dict[str, str] = {}
        self._stacks: Dict[Any, str] = {}
        self._locations: Dict[Any, str] = {}
        self._objs: Dict[str, str] = {}
        self._extras: Dict[str, str] = {}
        #: Tables that gained an entry while encoding the current record.
        self._grown: List[Dict[Any, str]] = []

    def _intern(
        self, table: Dict[Any, str], key: Any, text_of: Callable, value: Any
    ) -> str:
        """The reference to ``key``'s entry, defining it on first use."""
        ref = table.get(key)
        if ref is not None:
            return ref
        text = text_of(value)
        table[key] = str(len(table))
        self._grown.append(table)
        return "=" + text

    def encode(self, event: OpEvent) -> bytes:
        try:
            return self._encode(event)
        except Exception:  # noqa: BLE001 - v1 is the exact fallback
            for table in self._grown:
                table.popitem()  # newest entry first out
            # Raises for a record no codec can write, as v1 always did.
            return _encode_v1(event)
        finally:
            self._grown.clear()

    def _encode(self, event: OpEvent) -> bytes:
        seq = event.seq
        tid = event.tid
        segment = event.segment
        observed = event.observed_write
        handler = event.in_handler
        node = event.node
        thread = event.thread_name
        if (
            type(seq) is not int
            or type(tid) is not int
            or type(segment) is not int
            or (observed is not None and type(observed) is not int)
            or type(handler) is not bool
            or type(node) is not str
            or type(thread) is not str
        ):
            raise TypeError("record fields outside the v2 encoding")
        code = _KIND_CODE[event.kind]
        names = self._names
        node_ref = names.get(node) or self._intern(names, node, json.dumps, node)
        thread_ref = names.get(thread) or self._intern(
            names, thread, json.dumps, thread
        )
        # Stacks are keyed by value: frames compare by (path, func,
        # line), and a traced line number is always an int.
        stack = event.callstack
        stack_ref = self._stacks.get(stack) or self._intern(
            self._stacks, stack, _stack_text, stack
        )
        location = event.location
        if not location:
            location_ref = ""
        else:
            # Value-keyed when the value's JSON form is unambiguous;
            # otherwise keyed by that JSON text (e.g. 1 vs True).
            key = location
            if not (
                type(location) is tuple
                and len(location) == 2
                and type(location[0]) is int
                and type(location[1]) is str
            ):
                key = _location_text(location)
            location_ref = self._locations.get(key) or self._intern(
                self._locations, key, _location_text, location
            )
        obj = event.obj_id
        if type(obj) is str and "\t" not in obj and "\n" not in obj:
            obj_ref = "s" + obj
        elif type(obj) is int:
            obj_ref = "i%d" % obj
        else:
            text = json.dumps(_jsonable(obj), sort_keys=True)
            obj_ref = self._intern(self._objs, text, _same, text)
        extra = event.extra
        if extra:
            text = json.dumps(
                {k: _jsonable(v) for k, v in extra.items()}, sort_keys=True
            )
            extra_ref = self._intern(self._extras, text, _same, text)
        else:
            extra_ref = ""
        return (
            "%d\t%d\t%d\t%d\t%s\t%d\t%s\t%s\t%s\t%s\t%s\t%s"
            % (
                seq,
                code,
                tid,
                segment,
                "" if observed is None else observed,
                handler,
                node_ref,
                thread_ref,
                stack_ref,
                location_ref,
                obj_ref,
                extra_ref,
            )
        ).encode()


class _Reparse:
    """An interned value that holds mutable containers: every record
    that refers to it gets a fresh copy, parsed from its JSON text."""

    __slots__ = ("text", "untuple")

    def __init__(self, text: str, untuple: bool) -> None:
        self.text = text
        self.untuple = untuple

    def fresh(self) -> Any:
        value = json.loads(self.text)
        return _untuple(value) if self.untuple else value


def _immutable(value: Any) -> bool:
    if isinstance(value, (list, dict)):
        return False
    if isinstance(value, tuple):
        return all(_immutable(v) for v in value)
    return True


def _to_stack(text: str) -> CallStack:
    return CallStack(Frame(p, f, l) for p, f, l in json.loads(text))


def _to_location(text: str) -> Any:
    value = json.loads(text)
    return tuple(value) if value else None


def _to_obj(text: str) -> Any:
    value = _untuple(json.loads(text))
    return value if _immutable(value) else _Reparse(text, True)


def _to_extra(text: str) -> Any:
    value = json.loads(text)
    if type(value) is not dict:
        raise TypeError(f"extra is not an object: {text[:40]!r}")
    if any(isinstance(v, (list, dict)) for v in value.values()):
        return _Reparse(text, False)
    return value


def _decode_v1(payload: bytes) -> OpEvent:
    try:
        data = json.loads(payload)
    except ValueError as exc:
        raise TraceFormatError("payload is not valid JSON") from exc
    return record_from_dict(data)


class RecordDecoder:
    """Decodes one segment's record payloads, in line order.

    Holds the segment's intern tables.  When a line is lost (damaged,
    or it failed to decode) the definitions it carried are lost with
    it, so the numbering of later definitions is unknown: :meth:`freeze`
    stops the tables growing, and any later reference to an entry
    defined after the loss fails as a bad record rather than resolving
    to the wrong value."""

    __slots__ = ("_names", "_stacks", "_locations", "_objs", "_extras", "_frozen")

    def __init__(self) -> None:
        self._names: List[Any] = []
        self._stacks: List[Any] = []
        self._locations: List[Any] = []
        self._objs: List[Any] = []
        self._extras: List[Any] = []
        self._frozen = False

    def freeze(self) -> None:
        self._frozen = True

    def _define(self, table: List[Any], text: str, parse: Callable) -> Any:
        value = parse(text)
        if not self._frozen:
            table.append(value)
        return value

    def decode(self, payload: bytes) -> OpEvent:
        """One record from one verified ``R`` payload.  Raises
        ``TraceFormatError`` for a payload that is not a record."""
        if payload[:1] == b"{":
            return _decode_v1(payload)
        try:
            return self._decode_v2(payload)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            self._frozen = True
            raise TraceFormatError(
                f"malformed v2 record ({type(exc).__name__}: {exc})"
            ) from exc

    def _decode_v2(self, payload: bytes) -> OpEvent:
        (
            seq,
            kind,
            tid,
            segment,
            observed,
            handler,
            node,
            thread,
            stack,
            location,
            obj,
            extra,
        ) = payload.decode().split("\t")
        names = self._names
        if node[0] == "=":
            node = self._define(names, node[1:], json.loads)
        else:
            node = names[int(node)]
        if thread[0] == "=":
            thread = self._define(names, thread[1:], json.loads)
        else:
            thread = names[int(thread)]
        if stack[0] == "=":
            stack = self._define(self._stacks, stack[1:], _to_stack)
        else:
            stack = self._stacks[int(stack)]
        if not location:
            location = None
        elif location[0] == "=":
            location = self._define(self._locations, location[1:], _to_location)
        else:
            location = self._locations[int(location)]
        tag = obj[0]
        if tag == "s":
            obj = obj[1:]
        elif tag == "i":
            obj = int(obj[1:])
        else:
            if tag == "=":
                obj = self._define(self._objs, obj[1:], _to_obj)
            else:
                obj = self._objs[int(obj)]
            if type(obj) is _Reparse:
                obj = obj.fresh()
        if not extra:
            extra = {}
        else:
            if extra[0] == "=":
                extra = self._define(self._extras, extra[1:], _to_extra)
            else:
                extra = self._extras[int(extra)]
            extra = extra.copy() if type(extra) is dict else extra.fresh()
        return OpEvent(
            int(seq),
            KIND_CODES[int(kind)],
            obj,
            node,
            int(tid),
            thread,
            int(segment),
            stack,
            location,
            int(observed) if observed else None,
            handler == "1",
            extra,
        )


class WalWriter:
    """Append-only segmented log for one (node, thread) stream."""

    def __init__(
        self,
        directory: str,
        node: str,
        tid: int,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        on_seal: Optional[SealCallback] = None,
    ) -> None:
        self.directory = os.path.join(directory, node, f"thread-{tid}")
        self.node = node
        self.tid = tid
        self.segment_records = max(1, segment_records)
        self.flush_every = max(1, flush_every)
        self.on_seal = on_seal
        self.records_written = 0
        self.segments_sealed = 0
        self.bytes_written = 0
        self.closed = False
        self._segment_index = -1
        self._segment_count = 0
        self._segment_crc = 0
        self._buffer: list = []
        self._buffered = 0
        self._fh = None
        self._encoder = RecordEncoder()
        os.makedirs(self.directory, exist_ok=True)
        self._open_segment()

    # -- segment lifecycle ---------------------------------------------------

    def _open_segment(self) -> None:
        self._segment_index += 1
        self._segment_count = 0
        self._segment_crc = 0
        self._encoder.reset()
        path = os.path.join(self.directory, f"seg-{self._segment_index:04d}.wal")
        self._segment_path = path
        self._fh = open(path, "wb")
        header = {
            "format": WAL_FORMAT,
            "wal_version": WAL_VERSION,
            "record_version": TRACE_SCHEMA_VERSION,
            "node": self.node,
            "tid": self.tid,
            "segment": self._segment_index,
        }
        line = b"H " + json.dumps(header, sort_keys=True).encode() + b"\n"
        self._fh.write(line)
        self.bytes_written += len(line)

    def _drain_buffer(self) -> None:
        if self._buffer:
            data = b"".join(self._buffer)
            self._fh.write(data)
            self._fh.flush()
            self.bytes_written += len(data)
            self._buffer = []
            self._buffered = 0

    def _seal_segment(self) -> None:
        self._drain_buffer()
        line = encode_seal_line(self._segment_count, self._segment_crc)
        self._fh.write(line)
        self._fh.flush()
        self.bytes_written += len(line)
        self._fh.close()
        self.segments_sealed += 1
        if self.on_seal is not None:
            self.on_seal(
                self.node, self.tid, self._segment_index, self._segment_path
            )

    # -- public API ----------------------------------------------------------

    def append(self, record: Union[OpEvent, Dict[str, Any]]) -> None:
        """Append one record: an ``OpEvent`` is written as a v2 payload,
        a plain dict verbatim as a v1 JSON payload."""
        if self.closed:
            return
        if isinstance(record, dict):
            payload = json.dumps(record, sort_keys=True).encode()
        else:
            payload = self._encoder.encode(record)
        self._buffer.append(encode_record_line(payload))
        self._buffered += 1
        self._segment_count += 1
        self._segment_crc = _crc(payload, self._segment_crc)
        self.records_written += 1
        if self._buffered >= self.flush_every:
            self._drain_buffer()
        if self._segment_count >= self.segment_records:
            self._seal_segment()
            self._open_segment()

    def close(self) -> None:
        """Cleanly seal and close the current segment."""
        if self.closed:
            return
        self.closed = True
        self._seal_segment()

    def abandon(self) -> None:
        """Model a node crash: the stream stops without a seal.

        Flushed data survives; of the in-flight buffer, only a prefix
        reaches the disk and the last write is torn mid-record — the
        failure mode the salvage path exists for.
        """
        if self.closed:
            return
        self.closed = True
        if self._buffer:
            keep = len(self._buffer) // 2
            for line in self._buffer[:keep]:
                self._fh.write(line)
                self.bytes_written += len(line)
            torn = self._buffer[keep]
            cut = max(2, len(torn) // 2)
            self._fh.write(torn[:cut])
            self.bytes_written += cut
            self._buffer = []
            self._buffered = 0
        self._fh.flush()
        self._fh.close()


class WalSink:
    """Routes trace records to per-(node, thread) writers.

    Attached to the ``Tracer``; ``append`` is called once per recorded
    event, ``abandon_node`` when a node crashes (its streams stop,
    unsealed), and ``close`` at end of run (surviving streams seal)."""

    def __init__(
        self,
        directory: str,
        segment_records: int = DEFAULT_SEGMENT_RECORDS,
        flush_every: int = DEFAULT_FLUSH_EVERY,
        on_seal: Optional[SealCallback] = None,
    ) -> None:
        self.directory = directory
        self.segment_records = segment_records
        self.flush_every = flush_every
        self.on_seal = on_seal
        self.abandoned_nodes: set = set()
        self._writers: Dict[Tuple[str, int], WalWriter] = {}
        os.makedirs(directory, exist_ok=True)

    def append(self, event: OpEvent) -> None:
        key = (event.node, event.tid)
        if event.node in self.abandoned_nodes:
            return  # a crashed node writes nothing more
        writer = self._writers.get(key)
        if writer is None:
            writer = WalWriter(
                self.directory,
                event.node,
                event.tid,
                segment_records=self.segment_records,
                flush_every=self.flush_every,
                on_seal=self.on_seal,
            )
            self._writers[key] = writer
        writer.append(event)

    def abandon_node(self, node: str) -> None:
        """The node crashed: its streams end abruptly, without seals."""
        self.abandoned_nodes.add(node)
        for (writer_node, _tid), writer in self._writers.items():
            if writer_node == node:
                writer.abandon()

    def close(self) -> None:
        """End of run: seal every surviving stream and publish totals."""
        for writer in self._writers.values():
            writer.close()
        self._publish_metrics()

    # -- accounting ----------------------------------------------------------

    @property
    def records_written(self) -> int:
        return sum(w.records_written for w in self._writers.values())

    @property
    def segments_sealed(self) -> int:
        return sum(w.segments_sealed for w in self._writers.values())

    @property
    def bytes_written(self) -> int:
        return sum(w.bytes_written for w in self._writers.values())

    def _publish_metrics(self) -> None:
        from repro import obs

        registry = obs.get_registry()
        if not registry.enabled:
            return
        registry.counter(
            "wal_records_written_total", "trace records appended to the WAL"
        ).inc(self.records_written)
        registry.counter(
            "wal_segments_sealed_total", "WAL segments sealed cleanly"
        ).inc(self.segments_sealed)
        registry.counter(
            "wal_bytes_written_total", "bytes appended to the WAL"
        ).inc(self.bytes_written)
        if self.abandoned_nodes:
            registry.counter(
                "wal_streams_abandoned_total",
                "WAL streams abandoned by node crashes",
            ).inc(
                sum(
                    1
                    for (node, _tid) in self._writers
                    if node in self.abandoned_nodes
                )
            )


# -- segment scanning ----------------------------------------------------------
#
# The segment file format doubles as the detection service's wire unit:
# a client ships whole sealed segment files, the server re-verifies the
# same length/CRC/seal framing before spooling.  ``scan_segment`` is the
# single framing loop every reader (streaming, salvage, the service)
# shares; the verdicts below are what it reports per line.

LINE_HEADER = 0  #: ``H`` line (value: None)
LINE_RECORD = 1  #: verified ``R`` line (value: its payload bytes)
LINE_SEAL = 2  #: ``S`` line (value: None, or the seal-mismatch reason)
LINE_TORN = 3  #: short or unparseable framing (value: reason)
LINE_CRC = 4  #: ``R`` payload fails its CRC (value: reason)
LINE_GARBAGE = 5  #: not ``H``/``R``/``S`` framed (value: reason)

#: One scanned line: (verdict, byte start, byte end, torn, value).
#: ``torn`` means the line has no terminating newline.
ScannedLine = Tuple[int, int, int, bool, Any]


def scan_segment(lines: Iterable[bytes]) -> Iterator[ScannedLine]:
    """Classify each line of one segment, in order.

    ``lines`` yields raw lines with their ``\\n`` terminators (an open
    binary file, or ``io.BytesIO`` over segment bytes).  Records are
    CRC-checked, and the seal is checked against the count and running
    CRC of the records verified before it."""
    crc32 = zlib.crc32
    count = 0
    running = 0
    start = 0
    for raw in lines:
        size = len(raw)
        torn = raw[-1:] != b"\n"
        line = raw if torn else raw[:-1]
        end = start + len(line)
        head = line[:2]
        if head == b"R ":
            payload = line[20:]
            try:
                length = int(line[2:10], 16)
                crc = int(line[11:19], 16)
            except ValueError:
                yield LINE_TORN, start, end, torn, "unparseable record framing"
            else:
                if torn or len(payload) != length:
                    yield LINE_TORN, start, end, torn, (
                        f"torn record: {len(payload)} of {length} payload bytes"
                    )
                elif crc32(payload) != crc:
                    yield LINE_CRC, start, end, torn, "CRC mismatch"
                else:
                    count += 1
                    running = crc32(payload, running)
                    yield LINE_RECORD, start, end, torn, payload
        elif head == b"H ":
            yield LINE_HEADER, start, end, torn, None
        elif head == b"S " and not torn:
            try:
                seal_count = int(line[2:10], 16)
                seal_crc = int(line[11:19], 16)
            except ValueError:
                yield LINE_TORN, start, end, torn, "unparseable seal marker"
            else:
                reason = None
                if seal_count != count or seal_crc != running:
                    reason = f"seal mismatch: sealed {seal_count} records, read {count}"
                yield LINE_SEAL, start, end, torn, reason
        elif line:
            yield LINE_GARBAGE, start, end, torn, "unrecognized line framing"
        start += size


def verify_segment_bytes(data: bytes) -> Tuple[int, bool, Optional[str]]:
    """Validate one segment's bytes without decoding record payloads.

    Returns ``(record_count, sealed, damage)`` where ``damage`` is
    ``None`` for a fully intact segment or a short reason string for the
    *first* problem found (torn record, CRC mismatch, garbage framing,
    seal count/CRC disagreement).  An unsealed but otherwise intact
    segment returns ``(count, False, None)`` — whether that is damage is
    the caller's policy (a growing live tail is fine, a shipped segment
    must be sealed)."""
    count = 0
    sealed = False
    for verdict, start, _end, _torn, value in scan_segment(io.BytesIO(data)):
        if verdict == LINE_RECORD:
            count += 1
        elif verdict == LINE_SEAL:
            sealed = True
            if value is not None:
                return count, True, value
        elif verdict != LINE_HEADER:
            return count, sealed, f"{value} at byte {start}"
    return count, sealed, None


def iter_segment_records(
    data: bytes, damage: Optional[Dict[str, int]] = None
) -> Iterator[OpEvent]:
    """Decode the records of one segment's bytes, lazily, in order.

    Meant for segments ``verify_segment_bytes`` already passed.  A line
    that is damaged or does not decode raises ``TraceFormatError`` —
    or, when a ``damage`` counter is given, is counted under
    ``"damaged_records"`` and skipped."""
    decoder = RecordDecoder()
    for verdict, start, _end, _torn, value in scan_segment(io.BytesIO(data)):
        if verdict == LINE_RECORD:
            try:
                event = decoder.decode(value)
            except TraceFormatError:
                if damage is None:
                    raise
            else:
                yield event
                continue
        elif verdict == LINE_HEADER or verdict == LINE_SEAL:
            continue
        elif damage is None:
            raise TraceFormatError(f"{value} at byte {start}")
        decoder.freeze()
        damage["damaged_records"] = damage.get("damaged_records", 0) + 1


def list_stream_segments(wal_dir: str) -> Dict[Tuple[str, int], List[str]]:
    """Map every ``(node, tid)`` stream of a WAL directory to its
    segment file paths, ordered by segment index."""
    streams: Dict[Tuple[str, int], List[str]] = {}
    if not os.path.isdir(wal_dir):
        return streams
    for node in sorted(os.listdir(wal_dir)):
        node_dir = os.path.join(wal_dir, node)
        if not os.path.isdir(node_dir):
            continue
        for entry in sorted(os.listdir(node_dir)):
            thread_dir = os.path.join(node_dir, entry)
            if not os.path.isdir(thread_dir) or not entry.startswith("thread-"):
                continue
            try:
                tid = int(entry[len("thread-"):])
            except ValueError:
                continue
            paths = []
            for filename in sorted(os.listdir(thread_dir)):
                if filename.startswith("seg-") and filename.endswith(".wal"):
                    paths.append(os.path.join(thread_dir, filename))
            streams[(node, tid)] = paths
    return streams
