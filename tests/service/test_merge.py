"""The service pump drives the same seq-ordered merge as the offline
``stream`` pass: whatever order a tenant's segments arrive in, and
however the pump is sliced between arrivals, records reach the
detector in ``iter_wal_records`` order and the report is the offline
report, byte for byte."""

import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect.streaming import detect_races_streaming, iter_wal_records
from repro.service.report import render_report, report_from_stream_result
from repro.service.tenants import Tenant
from repro.trace.wal import list_stream_segments, segment_path
from repro.workload import generate_workload

WINDOW = 64


@pytest.fixture(scope="module")
def small_wal(tmp_path_factory):
    out = tmp_path_factory.mktemp("merge")
    generated = generate_workload(
        "minizk", "small", seed=11, out_dir=str(out), segment_records=32
    )
    wal = generated.wal_dir
    segments = list_stream_segments(wal)
    offline = detect_races_streaming(wal_dir=wal, window=WINDOW)
    return {
        "segments": segments,
        "order": [event.seq for event in iter_wal_records(wal)],
        "report": render_report(report_from_stream_result("t", offline)),
    }


def _arrivals(segments):
    """Random interleavings of the streams' segment uploads, each
    stream's own segments in index order (the server refuses others)."""
    slots = [key for key, paths in sorted(segments.items()) for _ in paths]
    return st.permutations(slots)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_arrival_order_pops_the_offline_order(small_wal, data):
    segments = small_wal["segments"]
    arrivals = data.draw(_arrivals(segments), label="arrivals")
    limit = data.draw(st.sampled_from([1, 5, 50, None]), label="limit")
    totals_at_hello = data.draw(st.booleans(), label="totals_at_hello")
    root = tempfile.mkdtemp(prefix="merge-")
    try:
        tenant = Tenant("t", root, window=WINDOW)
        tenant.declare_streams(sorted(segments))
        counts = {f"{n}/{t}": len(p) for (n, t), p in segments.items()}
        if totals_at_hello:
            tenant.declare_totals(counts)
        popped = []
        feed = tenant._ensure_detector().feed

        def recording_feed(event):
            popped.append(event.seq)
            feed(event)

        tenant.detector.feed = recording_feed
        for key in arrivals:
            stream = tenant.streams[key]
            index = stream.received
            os.makedirs(stream.directory, exist_ok=True)
            shutil.copyfile(
                segments[key][index], segment_path(stream.directory, index)
            )
            stream.received = index + 1
            tenant.pump(limit=limit)
        assert tenant.finalize(counts) is None
        while tenant.pump(limit=limit):
            pass
        assert tenant.drained
        tenant.write_report()
        assert popped == small_wal["order"]
        with open(tenant.report_path, "rb") as fh:
            assert fh.read() == small_wal["report"]
    finally:
        shutil.rmtree(root)
