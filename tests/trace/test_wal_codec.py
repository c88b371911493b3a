"""The v2 WAL record codec: exact round trips against v1, intern-table
semantics, and damage handling through every segment reader."""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.streaming import detect_races_streaming
from repro.errors import TraceFormatError
from repro.ids import CallStack, Frame
from repro.runtime.ops import OpEvent, OpKind
from repro.trace import WalWriter, salvage_trace
from repro.trace.records import record_from_dict, record_to_dict
from repro.trace.wal import (
    KIND_CODES,
    RecordDecoder,
    RecordEncoder,
    encode_record_line,
    iter_segment_records,
    list_stream_segments,
    verify_segment_bytes,
)
from repro.workload import generate_workload

_FIELDS = (
    "seq", "kind", "obj_id", "node", "tid", "thread_name", "segment",
    "callstack", "location", "observed_write", "in_handler", "extra",
)


def _typed(value):
    """A comparison key that tells ``True`` from ``1`` and tuples from
    lists (plain ``==`` does neither)."""
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_typed(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple(sorted((k, _typed(v)) for k, v in value.items())))
    return (type(value).__name__, value)


def _v1_round_trip(event):
    text = json.dumps(record_to_dict(event), sort_keys=True)
    return record_from_dict(json.loads(text))


def _assert_same(decoded, expected):
    for name in _FIELDS:
        assert _typed(getattr(decoded, name)) == _typed(getattr(expected, name)), name


# Text that stresses the line encoding: tabs, newlines, a leading "=",
# the inline tags, non-ASCII.
_tricky_text = st.one_of(
    st.sampled_from(["", "=", "=0", "s", "i1", "a\tb", "a\nb", "\r", "é", "7"]),
    st.text(max_size=8),
)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    _tricky_text,
)
_obj_ids = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.lists(inner, max_size=3),
        st.tuples(st.lists(inner, max_size=2), inner),
    ),
    max_leaves=6,
)
_frames = st.builds(
    Frame,
    path=st.sampled_from(["repro/systems/x/a.py", "a\tb.py", "=x.py"]),
    func=st.sampled_from(["f", "handler", "s"]),
    line=st.integers(min_value=1, max_value=500),
)
_stacks = st.lists(_frames, max_size=3).map(CallStack)
_locations = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 5), st.sampled_from(["k", "#struct", "a\tb"])),
    st.tuples(st.booleans(), st.sampled_from(["k"])),
    st.tuples(st.integers(0, 5), st.tuples(st.integers(0, 2), st.text(max_size=2))),
)
_extras = st.dictionaries(
    st.sampled_from(["src", "method", "=k", "t\tk"]),
    st.one_of(
        _scalars, st.lists(st.integers(0, 3), max_size=2), st.tuples(st.integers(0, 3))
    ),
    max_size=3,
)
_events = st.builds(
    OpEvent,
    seq=st.integers(min_value=0, max_value=2**40),
    kind=st.sampled_from(list(OpKind)),
    obj_id=_obj_ids,
    node=st.one_of(st.sampled_from(["am", "nm1", "a\tb"]), _tricky_text),
    tid=st.integers(0, 64),
    thread_name=st.one_of(st.sampled_from(["am", "main"]), _tricky_text),
    segment=st.integers(0, 512),
    callstack=_stacks,
    location=_locations,
    observed_write=st.one_of(st.none(), st.integers(0, 2**40)),
    in_handler=st.booleans(),
    extra=_extras,
)


def _codec_round_trip(events):
    encoder, decoder = RecordEncoder(), RecordDecoder()
    return [decoder.decode(encoder.encode(event)) for event in events]


@settings(max_examples=300, deadline=None)
@given(events=st.lists(_events, min_size=1, max_size=8))
def test_v2_round_trip_matches_v1(events):
    # Several records through one encoder/decoder pair exercise both
    # definitions and back-references into the intern tables.
    for decoded, event in zip(_codec_round_trip(events), events):
        _assert_same(decoded, _v1_round_trip(event))


@pytest.mark.parametrize(
    "bug",
    ["CA-1011", "HB-4539", "MR-3274", "ZK-1144", "HB-4729", "MR-4637", "ZK-1270"],
)
def test_v2_round_trip_on_taxdc_traces(bug):
    from repro.pipeline import DCatch, PipelineConfig
    from repro.systems.registry import workload_by_id

    pipeline = DCatch(workload_by_id(bug), PipelineConfig(trigger=False))
    _result, trace = pipeline.run_traced()
    assert len(trace.records) > 0
    encoder, decoder = RecordEncoder(), RecordDecoder()
    for index, event in enumerate(trace.records):
        if index % 256 == 0:  # segment boundaries: fresh tables
            encoder.reset()
            decoder = RecordDecoder()
        payload = encoder.encode(event)
        assert payload[:1] != b"{"  # every traced record fits v2
        _assert_same(decoder.decode(payload), _v1_round_trip(event))


def _event(seq, **fields):
    base = dict(
        seq=seq, kind=OpKind.SOCK_RECV, obj_id=f"m{seq}", node="n1", tid=0,
        thread_name="n1.t0", segment=0, callstack=CallStack([]),
    )
    base.update(fields)
    return OpEvent(**base)


class TestInterning:
    def test_kind_codes_cover_every_kind_once(self):
        assert sorted(k.value for k in KIND_CODES) == sorted(k.value for k in OpKind)

    def test_repeated_values_are_referenced_not_redefined(self):
        encoder = RecordEncoder()
        first = encoder.encode(_event(1, extra={"src": "a"}, location=(3, "k")))
        second = encoder.encode(_event(2, extra={"src": "a"}, location=(3, "k")))
        assert first.count(b"\t=") == 5  # node, thread, stack, location, extra
        assert b"=" not in second
        assert len(second) < 40

    def test_interned_extra_dicts_are_not_shared(self):
        extra = {"src": "a", "path": ["x", "y"]}
        one, two = _codec_round_trip(
            [_event(1, extra={"src": "a"}), _event(2, extra={"src": "a"}),
             _event(3, extra=extra), _event(4, extra=extra)]
        )[:2]
        assert one.extra == two.extra and one.extra is not two.extra
        one.extra["src"] = "changed"
        assert two.extra == {"src": "a"}

    def test_interned_mutable_values_are_fresh_per_record(self):
        three, four = _codec_round_trip(
            [_event(3, extra={"p": ["x"]}, obj_id=["q", 1]),
             _event(4, extra={"p": ["x"]}, obj_id=["q", 1])]
        )
        assert three.extra["p"] is not four.extra["p"]
        assert three.obj_id is not four.obj_id
        three.obj_id.append(2)
        assert four.obj_id == ["q", 1]

    def test_unencodable_record_falls_back_to_v1_and_rolls_back(self):
        encoder, decoder = RecordEncoder(), RecordDecoder()
        # A new node is defined before the lone surrogate in obj_id
        # fails to encode: the definition must be rolled back, or the
        # next record would refer to an entry no decoder ever saw.
        odd = _event(1, node="fresh", obj_id="\ud800")
        payload = encoder.encode(odd)
        assert payload.startswith(b"{")
        _assert_same(decoder.decode(payload), _v1_round_trip(odd))
        after = _event(2, node="fresh")
        _assert_same(decoder.decode(encoder.encode(after)), _v1_round_trip(after))

    def test_non_int_seq_falls_back_to_v1(self):
        payload = RecordEncoder().encode(_event(True))
        assert payload.startswith(b"{")
        assert RecordDecoder().decode(payload).seq is True

    def test_garbage_v2_payload_is_a_format_error(self):
        with pytest.raises(TraceFormatError):
            RecordDecoder().decode(b"1\t2\t3")
        with pytest.raises(TraceFormatError):
            RecordDecoder().decode(b"{not json")


# -- damage through salvage, streaming and verify ---------------------------


def _stack(name):
    return CallStack([Frame("repro/systems/x.py", name, 1)])


def _write_segment(tmp_path, events, close=True, **kwargs):
    kwargs.setdefault("flush_every", 1)
    writer = WalWriter(str(tmp_path), "n1", 0, **kwargs)
    for event in events:
        writer.append(event)
    if close:
        writer.close()
    else:
        writer.abandon()
    return os.path.join(str(tmp_path), "n1", "thread-0", "seg-0000.wal")


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read().split(b"\n")


def _record_line(lines, seq):
    for i, line in enumerate(lines):
        if line.startswith(b"R ") and line[20:].split(b"\t", 1)[0] == b"%d" % seq:
            return i
    raise AssertionError(f"no record {seq}")


def _stream(wal_dir):
    return detect_races_streaming(wal_dir=str(wal_dir), window=4)


class TestDamage:
    def test_torn_record(self, tmp_path):
        path = _write_segment(tmp_path, [_event(s) for s in range(1, 6)])
        data = open(path, "rb").read()
        cut = data.index(b"\n", data.index(b"\nR ") + 1) + 30
        open(path, "wb").write(data[:cut])  # mid-way through record 2
        _trace, report = salvage_trace(str(tmp_path))
        assert report.torn_records == 1
        assert report.records_recovered == 1
        assert report.unsealed_segments == 1
        result = _stream(tmp_path)
        assert result.confidence == "partial"
        assert result.records_consumed == 1
        _count, sealed, reason = verify_segment_bytes(data[:cut])
        assert not sealed and reason.startswith("torn record")

    def test_crc_bad_definition_quarantines_later_refs(self, tmp_path):
        events = [
            _event(1, callstack=_stack("a")),
            _event(2, callstack=_stack("b")),  # defines stack b; corrupted
            _event(3, callstack=_stack("c")),  # defines c after the loss
            _event(4, callstack=_stack("b")),  # refers to the lost entry
            _event(5, callstack=_stack("a")),  # refers to an intact entry
        ]
        path = _write_segment(tmp_path, events)
        lines = _lines(path)
        i = _record_line(lines, 2)
        assert b"=[[" in lines[i]
        lines[i] = lines[i][:-3] + b"XXX"
        data = b"\n".join(lines)
        open(path, "wb").write(data)

        trace, report = salvage_trace(str(tmp_path))
        assert report.crc_mismatches == 1
        assert report.bad_records == 1
        assert [r.seq for r in trace.records] == [1, 3, 5]
        # Every recovered record carries its own stack, never another's.
        assert [r.callstack for r in trace.records] == [
            _stack("a"), _stack("c"), _stack("a")
        ]
        assert report.seal_mismatches == 1  # the seal counted record 2

        result = _stream(tmp_path)
        assert result.records_consumed == 1
        assert result.damage == {"damaged_records": 1}
        _count, _sealed, reason = verify_segment_bytes(data)
        assert reason.startswith("CRC mismatch at byte")
        damage = {}
        assert [r.seq for r in iter_segment_records(data, damage)] == [1, 3, 5]
        assert damage == {"damaged_records": 2}
        with pytest.raises(TraceFormatError):
            list(iter_segment_records(data))

    def test_seal_mismatch(self, tmp_path):
        path = _write_segment(tmp_path, [_event(s) for s in range(1, 5)])
        lines = _lines(path)
        del lines[_record_line(lines, 3)]
        data = b"\n".join(lines)
        open(path, "wb").write(data)
        trace, report = salvage_trace(str(tmp_path))
        assert report.seal_mismatches == 1 and report.damaged
        assert [r.seq for r in trace.records] == [1, 2, 4]
        result = _stream(tmp_path)
        assert result.damage == {"seal_mismatches": 1}
        assert result.confidence == "partial"
        assert verify_segment_bytes(data)[2].startswith("seal mismatch")

    def test_live_torn_tail_is_in_progress(self, tmp_path):
        _write_segment(
            tmp_path, [_event(s) for s in range(1, 8)], close=False,
            segment_records=4, flush_every=2,
        )
        trace, report = salvage_trace(str(tmp_path), live=True)
        assert not report.damaged
        assert report.records_in_progress == 1
        assert report.in_progress_segments == 1
        assert [r.seq for r in trace.records] == list(range(1, 7))
        _trace, offline = salvage_trace(str(tmp_path))
        assert offline.damaged and offline.torn_records == 1


# -- v1 and mixed directories -----------------------------------------------


def _rewrite(src_dir, dst_dir, v1_when):
    """Re-encode every stream of ``src_dir`` into ``dst_dir``, keeping
    segment boundaries; ``v1_when(index)`` picks the v1 codec for the
    record at that position of its stream."""
    for (node, tid), paths in list_stream_segments(str(src_dir)).items():
        segments = [
            list(iter_segment_records(open(path, "rb").read())) for path in paths
        ]
        writer = WalWriter(
            str(dst_dir), node, tid, segment_records=max(map(len, segments))
        )
        events = [event for segment in segments for event in segment]
        for index, event in enumerate(events):
            writer.append(record_to_dict(event) if v1_when(index) else event)
        writer.close()


def _dir_bytes(root):
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(root)
        for f in files
    )


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("codec")
    return generate_workload("minimr", "small", seed=5, out_dir=str(out))


def test_v1_and_mixed_directories_give_the_same_candidates(generated, tmp_path):
    all_v1, mixed = tmp_path / "v1", tmp_path / "mixed"
    _rewrite(generated.wal_dir, all_v1, lambda i: True)
    _rewrite(generated.wal_dir, mixed, lambda i: i % 3 == 1)
    reference = detect_races_streaming(wal_dir=str(all_v1))
    assert reference.confidence == "full"
    assert reference.records_consumed == generated.records
    for wal_dir in (mixed, generated.wal_dir):
        result = detect_races_streaming(wal_dir=str(wal_dir))
        assert result.candidate_seq_pairs() == reference.candidate_seq_pairs()
        assert result.records_consumed == reference.records_consumed
        assert result.confidence == "full"
    salvaged, report = salvage_trace(str(mixed))
    assert not report.damaged
    v1_trace, _ = salvage_trace(str(all_v1))
    for a, b in zip(salvaged.records, v1_trace.records):
        _assert_same(a, b)
    # v2 stays well under a third of v1 on disk.
    assert _dir_bytes(generated.wal_dir) * 3 < _dir_bytes(all_v1)


def test_record_line_framing_is_codec_independent():
    payload = RecordEncoder().encode(_event(1))
    line = encode_record_line(payload)
    assert line.startswith(b"R ") and line.endswith(payload + b"\n")
    assert int(line[2:10], 16) == len(payload)
