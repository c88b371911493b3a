"""In-process DetectionServer behavior: shipping, idempotency,
admission control, structured errors, backpressure, and the circuit
breaker.  Uses real TCP on an ephemeral localhost port."""

import json
import os
import threading

import pytest

from repro.errors import ServiceError
from repro.analysis.governor import FleetBudget
from repro.detect.streaming import detect_races_streaming
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.report import render_report, report_from_stream_result
from repro.service.server import DetectionServer, load_service_file
from repro.trace.records import record_to_dict
from repro.trace.wal import WalWriter, iter_segment_records, list_stream_segments
from repro.workload import generate_workload

WINDOW = 256


@pytest.fixture(scope="module")
def wal_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("workload")
    generated = generate_workload("minizk", "small", seed=11, out_dir=str(out))
    return generated.wal_dir


@pytest.fixture()
def server(tmp_path):
    srv = DetectionServer(
        str(tmp_path / "data"), window=WINDOW, http_port=None
    ).start()
    yield srv
    srv.stop()


def _client(server, tenant, **kwargs):
    kwargs.setdefault("retry_deadline_s", 30.0)
    return ServiceClient("127.0.0.1", server.port, tenant, **kwargs)


def _as_v1(wal_dir, out):
    """Rewrite a WAL directory with v1 (JSON) record payloads only,
    keeping every segment boundary."""
    for (node, tid), paths in list_stream_segments(wal_dir).items():
        segments = [
            list(iter_segment_records(open(path, "rb").read())) for path in paths
        ]
        writer = WalWriter(
            str(out), node, tid, segment_records=max(map(len, segments))
        )
        for segment in segments:
            for event in segment:
                writer.append(record_to_dict(event))
        writer.close()


def _offline_report(wal_dir, tenant):
    result = detect_races_streaming(wal_dir=wal_dir, window=WINDOW)
    return render_report(report_from_stream_result(tenant, result))


class TestShipAndReport:
    def test_report_matches_offline_stream_byte_for_byte(
        self, server, wal_dir
    ):
        with _client(server, "alpha") as client:
            result = client.ship_wal_dir(wal_dir)
            report = client.wait_report()
        assert result.segments_shipped > 0
        assert result.segments_duplicate == 0
        assert render_report(report) == _offline_report(wal_dir, "alpha")
        assert report["confidence"] == "full"

    def test_v1_wal_directory_ships(self, server, wal_dir, tmp_path):
        """Segments written before the v2 record codec still ship and
        give the same report."""
        v1_dir = tmp_path / "v1"
        _as_v1(wal_dir, v1_dir)
        assert open(
            list_stream_segments(str(v1_dir)).popitem()[1][0], "rb"
        ).read().count(b' {"extra": ') > 0
        with _client(server, "legacy") as client:
            client.ship_wal_dir(str(v1_dir))
            report = client.wait_report()
        assert render_report(report) == _offline_report(wal_dir, "legacy")
        assert report["confidence"] == "full"

    def test_spool_is_the_wal_layout(self, server, wal_dir):
        """The tenant spool is itself a streamable WAL directory."""
        with _client(server, "alpha") as client:
            client.ship_wal_dir(wal_dir)
            client.wait_report()
        spool = os.path.join(server.tenants_dir, "alpha", "spool")
        assert list_stream_segments(spool).keys() == \
            list_stream_segments(wal_dir).keys()
        offline = detect_races_streaming(wal_dir=spool, window=WINDOW)
        assert render_report(
            report_from_stream_result("alpha", offline)
        ) == _offline_report(wal_dir, "alpha")

    def test_reshipping_is_idempotent(self, server, wal_dir):
        with _client(server, "alpha") as client:
            first = client.ship_wal_dir(wal_dir)
            report_a = client.wait_report()
        with _client(server, "alpha") as client:
            again = client.ship_wal_dir(wal_dir)
            report_b = client.wait_report()
        assert again.segments_duplicate == first.segments_shipped
        assert render_report(report_a) == render_report(report_b)

    def test_two_tenants_same_wal_same_candidates(self, server, wal_dir):
        def ship(tenant, out):
            with _client(server, tenant) as client:
                client.ship_wal_dir(wal_dir)
                out[tenant] = client.wait_report()

        reports = {}
        threads = [
            threading.Thread(target=ship, args=(t, reports))
            for t in ("alpha", "beta")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reports["alpha"]["candidates"] == reports["beta"]["candidates"]
        assert reports["alpha"]["tenant"] == "alpha"

    def test_service_file_is_discoverable(self, server):
        doc = load_service_file(server.data_dir)
        assert doc["port"] == server.port
        assert doc["pid"] == os.getpid()


class TestStructuredErrors:
    def test_admission_refusal_is_over_capacity(self, tmp_path, wal_dir):
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(max_tenants=1),
            window=WINDOW,
            http_port=None,
        ).start()
        try:
            streams = sorted(list_stream_segments(wal_dir))
            with _client(srv, "alpha") as first:
                first.hello(streams)
                with _client(srv, "beta", retry_deadline_s=0.5) as second:
                    with pytest.raises(ServiceError) as err:
                        second.hello(streams)
            assert err.value.code == "over_capacity"
            assert err.value.retry_after_s is not None
        finally:
            srv.stop()

    def test_segment_before_hello_is_bad_request(self, server):
        with _client(server, "ghost") as client:
            with pytest.raises(ServiceError) as err:
                client.send_segment("n1", 1, 0, b"")
        assert err.value.code == "bad_request"

    def test_undeclared_stream_is_unknown_stream(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        with open(next(iter(segments.values()))[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.send_segment("not-a-node", 999, 0, data)
        assert err.value.code == "unknown_stream"

    def test_gap_in_segment_indexes_is_out_of_order(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.send_segment(node, tid, 5, data)
        assert err.value.code == "out_of_order"

    def test_changing_the_stream_set_is_refused(self, server, wal_dir):
        streams = sorted(list_stream_segments(wal_dir))
        with _client(server, "alpha") as client:
            client.hello(streams)
        with _client(server, "alpha") as client:
            with pytest.raises(ServiceError) as err:
                client.hello(streams[:-1])
        assert err.value.code == "bad_request"

    def test_finalize_before_all_segments_is_incomplete(
        self, server, wal_dir
    ):
        segments = list_stream_segments(wal_dir)
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            with pytest.raises(ServiceError) as err:
                client.finalize(
                    {f"{n}/{t}": len(p) for (n, t), p in segments.items()}
                )
        assert err.value.code == "incomplete"
        assert "re-ship" in str(err.value)


class TestBackpressure:
    @pytest.fixture(scope="class")
    def chunked_wal_dir(self, tmp_path_factory):
        """Several segments per stream — a stream with data buffered is
        no longer "hungry", so its next segment CAN be refused."""
        out = tmp_path_factory.mktemp("chunked")
        generated = generate_workload(
            "minizk", "small", seed=11, out_dir=str(out), segment_records=16
        )
        return generated.wal_dir

    def test_full_queue_defers_and_still_completes(
        self, tmp_path, chunked_wal_dir
    ):
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(queue_segments=1),
            window=WINDOW,
            pump_delay_s=0.05,
            overload_poll_s=3600,  # backpressure only; no ladder
            http_port=None,
        ).start()
        try:
            with _client(srv, "alpha") as client:
                result = client.ship_wal_dir(chunked_wal_dir)
                report = client.wait_report()
            assert result.backpressure_waits > 0
            assert render_report(report) == _offline_report(
                chunked_wal_dir, "alpha"
            )
        finally:
            srv.stop()

    def test_more_streams_than_credits_does_not_deadlock(
        self, tmp_path, wal_dir
    ):
        """Regression: the small workload has 9 streams; with only 2
        queue credits the merge used to starve on streams the client
        was never allowed to ship, freezing the tenant forever.  The
        starvation-relief carve-out must keep it live — and with no
        records actually dropped the report stays byte-identical."""
        srv = DetectionServer(
            str(tmp_path / "data"),
            limits=FleetBudget(queue_segments=2),
            window=WINDOW,
            pump_delay_s=0.02,
            overload_poll_s=3600,
            http_port=None,
        ).start()
        try:
            with _client(srv, "alpha") as client:
                client.ship_wal_dir(wal_dir)
                report = client.wait_report(timeout_s=120)
            assert render_report(report) == _offline_report(wal_dir, "alpha")
        finally:
            srv.stop()

    def test_segment_ack_carries_credits(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            hello = client.hello(sorted(segments))
            assert hello["credits"] > 0
            ack = client.send_segment(node, tid, 0, data)
            assert "credits" in ack and ack["mode"] == "full"


class TestCircuitBreaker:
    def _ship_garbage(self, client, node, tid, index):
        # CRC-valid framing is checked server-side; raw noise is "torn".
        return client.send_segment(node, tid, index, b"not a wal segment\n")

    def test_quarantine_after_bad_streak(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), _paths = sorted(segments.items())[0]
        with _client(server, "mallory") as client:
            client.hello(sorted(segments))
            for _ in range(2):
                with pytest.raises(ServiceError) as err:
                    self._ship_garbage(client, node, tid, 0)
                assert err.value.code == "bad_segment"
            with pytest.raises(ServiceError) as err:
                self._ship_garbage(client, node, tid, 0)
            assert err.value.code == "quarantined"
            # every verb is now refused for this tenant
            with pytest.raises(ServiceError) as err:
                client.wait_report(timeout_s=1)
            assert err.value.code == "quarantined"
        qdir = os.path.join(server.tenants_dir, "mallory", "quarantine")
        evidence = sorted(os.listdir(qdir))
        assert len([e for e in evidence if e.endswith(".wal")]) == 3
        assert any(e.endswith(".reason") for e in evidence)
        state = json.load(
            open(os.path.join(server.tenants_dir, "mallory", "state.json"))
        )
        assert state["quarantined"] is True

    def test_good_segment_resets_the_streak(self, server, wal_dir):
        segments = list_stream_segments(wal_dir)
        (node, tid), paths = sorted(segments.items())[0]
        with open(paths[0], "rb") as fh:
            data = fh.read()
        with _client(server, "alpha") as client:
            client.hello(sorted(segments))
            for _ in range(2):
                with pytest.raises(ServiceError):
                    self._ship_garbage(client, node, tid, 0)
            client.send_segment(node, tid, 0, data)  # streak broken
            for _ in range(2):
                with pytest.raises(ServiceError) as err:
                    self._ship_garbage(client, node, tid, 1)
            assert err.value.code == "bad_segment"  # not quarantined

    def test_quarantine_survives_reconnect(self, server, wal_dir):
        streams = sorted(list_stream_segments(wal_dir))
        node, tid = streams[0]
        with _client(server, "mallory") as client:
            client.hello(streams)
            for _ in range(3):
                with pytest.raises(ServiceError):
                    self._ship_garbage(client, node, tid, 0)
        with _client(server, "mallory") as client:
            with pytest.raises(ServiceError) as err:
                client.hello(streams)
        assert err.value.code == "quarantined"


class TestStatus:
    def test_status_reports_fleet_shape(self, server, wal_dir):
        with _client(server, "alpha") as client:
            client.ship_wal_dir(wal_dir)
            client.wait_report()
            status = client.status()
        assert status["overload_level"] in ("full", "sampled", "paused")
        tenant = status["tenants"]["alpha"]
        assert tenant["done"] is True
        assert tenant["finalized"] is True
        assert tenant["quarantined"] is False


class TestRawProtocolEdges:
    def test_unknown_verb_is_bad_request(self, server):
        sock = protocol.connect("127.0.0.1", server.port)
        try:
            wfile = sock.makefile("wb")
            rfile = sock.makefile("rb")
            protocol.send_frame(wfile, {"verb": "frobnicate"})
            doc, _ = protocol.recv_frame(rfile)
            assert doc["ok"] is False and doc["error"] == "bad_request"
        finally:
            sock.close()

    def test_corrupt_frame_gets_protocol_error_reply(self, server):
        sock = protocol.connect("127.0.0.1", server.port)
        try:
            sock.sendall(b"F 00000004 00000000 oops\n")
            rfile = sock.makefile("rb")
            doc, _ = protocol.recv_frame(rfile)
            assert doc["ok"] is False and doc["error"] == "protocol"
        finally:
            sock.close()
