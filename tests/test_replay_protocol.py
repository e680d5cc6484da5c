"""Tests for the inter-node replay protocol and the live replay tiers."""

import json
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.replay import (DistributedConfig, LiveUdpEchoServer, MAX_FRAME,
                          MSG_CHECKPOINT, MSG_END, MSG_HELLO, MSG_METRICS,
                          MSG_RECORD, MSG_RECORD_SEQ, MSG_RESULT,
                          MSG_SHUTDOWN, MSG_TELEMETRY, MSG_TIME_SYNC,
                          MessageSocket, ProcessTopology, ProtocolError,
                          ROLE_QUERIER, SendError, connect, connected_pair)
from repro.replay.distributed import _LiveQuerier
from repro.trace import burst_trace, fixed_interval_trace, \
    make_query_record

_HEADER = struct.Struct("!IB")


class TestMessageSocket:
    def test_time_sync_roundtrip(self):
        sender, receiver = connected_pair()
        sender.send_time_sync(1234.5678)
        kind, payload = receiver.receive()
        assert kind == MSG_TIME_SYNC
        assert payload == pytest.approx(1234.5678)
        sender.close(), receiver.close()

    def test_record_roundtrip(self):
        sender, receiver = connected_pair()
        record = make_query_record(7.25, "10.1.2.3", "x.example.com.",
                                   protocol="tcp", sport=4444)
        sender.send_record(record)
        kind, payload = receiver.receive()
        assert kind == MSG_RECORD
        assert payload.src == "10.1.2.3"
        assert payload.sport == 4444
        assert payload.protocol == "tcp"
        assert payload.wire == record.wire
        assert payload.timestamp == pytest.approx(7.25)
        sender.close(), receiver.close()

    def test_end_terminates_iteration(self):
        sender, receiver = connected_pair()
        sender.send_record(make_query_record(0, "10.0.0.1",
                                             "a.example.com."))
        sender.send_end()
        messages = list(receiver.messages())
        assert [kind for kind, _p in messages] == [MSG_RECORD, MSG_END]
        sender.close(), receiver.close()

    def test_eof_returns_none(self):
        sender, receiver = connected_pair()
        sender.close()
        assert receiver.receive() is None
        receiver.close()

    def test_many_records_in_order(self):
        sender, receiver = connected_pair()
        records = [make_query_record(float(i), "10.0.0.1",
                                     f"q{i}.example.com.")
                   for i in range(50)]

        def pump():
            for record in records:
                sender.send_record(record)
            sender.send_end()

        thread = threading.Thread(target=pump)
        thread.start()
        received = [payload for kind, payload in receiver.messages()
                    if kind == MSG_RECORD]
        thread.join()
        assert [r.wire for r in received] == [r.wire for r in records]
        assert receiver.messages_received == 51
        sender.close(), receiver.close()


class _TapeSocket:
    """Takes the place of the TCP socket: one entry per ``sendall``."""

    def __init__(self):
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))

    def close(self):
        pass


class TestBufferedRecordWriter:
    """``write_record*`` puts the frames ``send_record*`` would have
    written on the wire, a block at a time (count-based: no clock)."""

    RECORDS = [make_query_record(i * 0.001, f"10.0.{i % 7}.1",
                                 f"q{i}.example.com.", msg_id=i % 65535 + 1)
               for i in range(2000)]

    def _stream(self, buffered):
        """TIME_SYNC, 2 000 alternating RECORD / RECORD_SEQ frames with a
        second TIME_SYNC in their middle, END, SHUTDOWN."""
        tape = _TapeSocket()
        link = MessageSocket(tape)
        record = link.write_record if buffered else link.send_record
        record_seq = (link.write_record_seq if buffered
                      else link.send_record_seq)
        link.send_time_sync(5.0)
        for index, each in enumerate(self.RECORDS):
            if index == 1001:
                link.send_time_sync(6.0)
            if index % 2:
                record_seq(index, each)
            else:
                record(each)
        link.send_end()
        link.send_shutdown()
        return link, tape

    def test_buffered_bytes_equal_write_through(self):
        _link, through = self._stream(buffered=False)
        link, buffered = self._stream(buffered=True)
        assert len(through.writes) == len(self.RECORDS) + 4
        # Same byte stream, so same frames in the same order (the two
        # TIME_SYNCs, END and SHUTDOWN included) ...
        assert b"".join(buffered.writes) == b"".join(through.writes)
        # ... in a sixtieth of the writes: one per 32 KiB block plus
        # the four control frames, which each take the block before
        # them along.
        assert len(buffered.writes) <= len(self.RECORDS) // 64 + 4
        assert link.blocks_sent == len(buffered.writes) - 4
        assert link.messages_sent == len(self.RECORDS) + 4

    def test_flush_writes_the_partial_block_once(self):
        tape = _TapeSocket()
        link = MessageSocket(tape)
        link.flush()
        assert tape.writes == []            # nothing buffered: no write
        for each in self.RECORDS[:10]:
            link.write_record(each)
        assert tape.writes == []
        link.flush()
        link.flush()
        assert len(tape.writes) == 1 and link.blocks_sent == 1
        through = _TapeSocket()
        for each in self.RECORDS[:10]:
            MessageSocket(through).send_record(each)
        assert tape.writes[0] == b"".join(through.writes)

    def test_buffered_frames_parse_in_order(self):
        sender, receiver = connected_pair()
        sender.send_time_sync(1.0)
        for index, each in enumerate(self.RECORDS[:300]):
            sender.write_record_seq(index, each)
        assert not receiver.has_frame()     # nothing read off the wire
        sender.send_end()
        kinds = [kind for kind, _payload in receiver.messages()]
        assert kinds == [MSG_TIME_SYNC] + [MSG_RECORD_SEQ] * 300 + [MSG_END]
        assert not receiver.has_frame()
        sender.close(), receiver.close()

    def test_has_frame_tracks_whole_frames_only(self):
        sender, receiver = connected_pair()
        for each in self.RECORDS[:3]:
            sender.write_record(each)
        sender.flush()
        assert not receiver.has_frame()     # has_frame never reads
        assert receiver.receive()[0] == MSG_RECORD
        assert receiver.has_frame()         # the other two came along
        receiver.receive(), receiver.receive()
        assert not receiver.has_frame()
        frame = _HEADER.pack(1 + 8, MSG_TIME_SYNC) + struct.pack("!d", 2.0)
        sender._socket.sendall(frame[:9])
        receiver._buffer += receiver._socket.recv(9)
        assert not receiver.has_frame()     # header and half a payload
        sender._socket.sendall(frame[9:])
        receiver._buffer += receiver._socket.recv(4)
        assert receiver.has_frame()
        assert receiver.receive() == (MSG_TIME_SYNC, 2.0)
        sender.close(), receiver.close()

    def test_chaos_link_stays_frame_by_frame(self):
        """ChaosEngine.process rules on single frames; with every frame
        held for a swap the peer must see adjacent pairs exchanged,
        written as they are released and not at a block boundary."""
        from repro.replay import ChaosConfig, ChaosEngine
        tape = _TapeSocket()
        link = MessageSocket(tape)
        link.chaos = ChaosEngine(ChaosConfig(seed=3, reorder_rate=1.0),
                                 ROLE_QUERIER, 0)
        for index, each in enumerate(self.RECORDS[:6]):
            link.write_record_seq(index, each)
            assert len(tape.writes) == (index + 1) // 2
        assert link.chaos.reordered == 3 and link.blocks_sent == 0
        reference = _TapeSocket()
        for index in (1, 0, 3, 2, 5, 4):
            MessageSocket(reference).send_record_seq(index,
                                                     self.RECORDS[index])
        assert b"".join(tape.writes) == b"".join(reference.writes)


class TestControlFrames:
    def test_hello_roundtrip(self):
        sender, receiver = connected_pair()
        sender.send_hello(ROLE_QUERIER, 7, 5353)
        kind, payload = receiver.receive()
        assert kind == MSG_HELLO
        assert payload == (ROLE_QUERIER, 7, 5353, 0)
        sender.close(), receiver.close()

    def test_hello_carries_incarnation(self):
        sender, receiver = connected_pair()
        sender.send_hello(ROLE_QUERIER, 7, 5353, incarnation=3)
        kind, payload = receiver.receive()
        assert kind == MSG_HELLO
        assert payload == (ROLE_QUERIER, 7, 5353, 3)
        sender.close(), receiver.close()

    def test_legacy_hello_is_rejected(self):
        # The 5-byte v1 HELLO (no incarnation field) is a malformed
        # frame: controller and workers always run the same checkout.
        sender, receiver = connected_pair()
        sender._socket.sendall(
            _HEADER.pack(1 + 5, MSG_HELLO)
            + struct.pack("!BHH", ROLE_QUERIER, 7, 5353))
        with pytest.raises(ProtocolError, match="HELLO"):
            receiver.receive()
        sender.close(), receiver.close()

    def test_result_roundtrip(self):
        from repro.replay import ReplayResult, SentQuery
        shard = ReplayResult("querier-3")
        shard.add(SentQuery(index=0, source="10.0.0.1", trace_time=0.0,
                            scheduled_at=1.0, sent_at=1.001,
                            protocol="udp", qname="a.example.com.",
                            answered_at=1.02, querier_id=3))
        shard.deadline_shed = 4
        sender, receiver = connected_pair()
        sender.send_result(shard.to_dict())
        kind, payload = receiver.receive()
        assert kind == MSG_RESULT
        restored = ReplayResult.from_dict(payload)
        assert len(restored) == 1
        assert restored.sent[0].qname == "a.example.com."
        assert restored.sent[0].latency == pytest.approx(0.019)
        assert restored.deadline_shed == 4
        sender.close(), receiver.close()

    def test_metrics_roundtrip(self):
        from repro.telemetry import MetricsRegistry
        metrics = MetricsRegistry()
        metrics.incr("replay.records_sent", 42)
        metrics.observe("query.latency_s", 0.003)
        sender, receiver = connected_pair()
        sender.send_metrics(metrics.to_state())
        kind, payload = receiver.receive()
        assert kind == MSG_METRICS
        restored = MetricsRegistry.from_state(payload)
        merged = MetricsRegistry()
        merged.merge_state(payload)
        for registry in (restored, merged):
            state = registry.to_state()
            assert state["counts"]["replay.records_sent"] == 42
            assert state["histograms"]["query.latency_s"]["count"] == 1
        sender.close(), receiver.close()

    def test_shutdown_roundtrip(self):
        sender, receiver = connected_pair()
        sender.send_shutdown()
        assert receiver.receive() == (MSG_SHUTDOWN, None)
        sender.close(), receiver.close()

    def test_checkpoint_roundtrip(self):
        sender, receiver = connected_pair()
        snapshot = {"name": "querier-2", "sent": []}
        sender.send_checkpoint(2, 1, 5, snapshot, final=True)
        kind, payload = receiver.receive()
        assert kind == MSG_CHECKPOINT
        assert payload["worker"] == 2
        assert payload["incarnation"] == 1
        assert payload["seq"] == 5
        assert payload["final"] is True
        assert payload["result"] == snapshot
        sender.close(), receiver.close()

    def test_record_seq_roundtrip(self):
        sender, receiver = connected_pair()
        record = make_query_record(3.5, "10.9.8.7", "seq.example.com.")
        sender.send_record_seq(1234, record)
        kind, payload = receiver.receive()
        assert kind == MSG_RECORD_SEQ
        index, restored = payload
        assert index == 1234
        assert restored.wire == record.wire
        assert restored.src == "10.9.8.7"
        sender.close(), receiver.close()

    def test_send_on_dead_socket_raises_typed_send_error(self):
        sender, receiver = connected_pair()
        receiver.close()
        # The first sends may land in kernel buffers; keep writing until
        # the RST surfaces.  It must come back as SendError (a
        # ProtocolError *and* ConnectionError) naming the frame kind.
        with pytest.raises(SendError, match="RECORD") as excinfo:
            for _ in range(100):
                sender.send_record(
                    make_query_record(0.0, "10.0.0.1", "x.example.com."))
                time.sleep(0.005)
        assert isinstance(excinfo.value, ProtocolError)
        assert isinstance(excinfo.value, ConnectionError)
        sender.close()

    def test_hello_deadline_is_protocol_error_with_peer(self):
        from repro.replay.multiproc import _accept_hello
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        # Connect but never speak: the accept loop must not hang.
        mute = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        mute.connect(listener.getsockname())
        with pytest.raises(ProtocolError, match=r"127\.0\.0\.1:\d+.*HELLO"):
            _accept_hello(listener, ROLE_QUERIER, timeout=0.2)
        mute.close()
        listener.close()

    def test_connect_reaches_listener(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        client = connect(listener.getsockname())
        accepted, _peer = listener.accept()
        server_side = MessageSocket(accepted)
        client.send_end()
        assert server_side.receive() == (MSG_END, None)
        client.close(), server_side.close(), listener.close()


class TestProtocolErrorPaths:
    """ISSUE satellite: a hostile or corrupt peer must raise
    ProtocolError — never hang, never buffer unbounded memory.  Each
    case crafts raw bytes below the framing layer."""

    def raw_pair(self):
        sender, receiver = connected_pair()
        return sender._socket, receiver, sender, receiver

    def test_zero_length_frame_rejected(self):
        raw, receiver, s, r = self.raw_pair()
        # length=0 claims a frame with no kind byte; pre-fix this asked
        # the buffer for -1 payload bytes and desynchronized the stream.
        raw.sendall(_HEADER.pack(0, MSG_END))
        with pytest.raises(ProtocolError, match="length"):
            receiver.receive()
        s.close(), r.close()

    def test_oversized_frame_rejected_without_buffering(self):
        raw, receiver, s, r = self.raw_pair()
        # A corrupt length field must be rejected from the header alone
        # (pre-fix the receiver tried to buffer 4 GiB).
        raw.sendall(_HEADER.pack(0xFFFFFFFF, MSG_RECORD))
        with pytest.raises(ProtocolError, match="length"):
            receiver.receive()
        assert len(receiver._buffer) < 1024
        s.close(), r.close()

    def test_max_frame_boundary(self):
        sender, receiver = connected_pair()
        raw = sender._socket
        raw.sendall(_HEADER.pack(MAX_FRAME + 1, MSG_RECORD))
        with pytest.raises(ProtocolError):
            receiver.receive()
        sender.close(), receiver.close()

    def test_truncated_header_raises(self):
        raw, receiver, s, r = self.raw_pair()
        raw.sendall(b"\x00\x00")   # 2 of the 5 header bytes
        s.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            receiver.receive()
        r.close()

    def test_eof_mid_payload_raises(self):
        raw, receiver, s, r = self.raw_pair()
        raw.sendall(_HEADER.pack(100, MSG_RECORD) + b"partial")
        s.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            receiver.receive()
        r.close()

    def test_unknown_kind_rejected(self):
        raw, receiver, s, r = self.raw_pair()
        raw.sendall(_HEADER.pack(1, 99))
        with pytest.raises(ProtocolError, match="unknown"):
            receiver.receive()
        s.close(), r.close()

    def test_bad_time_sync_payload(self):
        raw, receiver, s, r = self.raw_pair()
        raw.sendall(_HEADER.pack(1 + 3, MSG_TIME_SYNC) + b"abc")
        with pytest.raises(ProtocolError, match="TIME_SYNC"):
            receiver.receive()
        s.close(), r.close()

    def test_bad_json_payload(self):
        raw, receiver, s, r = self.raw_pair()
        raw.sendall(_HEADER.pack(1 + 4, MSG_RESULT) + b"{oop")
        with pytest.raises(ProtocolError, match="JSON"):
            receiver.receive()
        s.close(), r.close()

    def test_bad_hello_payload(self):
        raw, receiver, s, r = self.raw_pair()
        raw.sendall(_HEADER.pack(1 + 2, MSG_HELLO) + b"xy")
        with pytest.raises(ProtocolError, match="HELLO"):
            receiver.receive()
        s.close(), r.close()

    def test_clean_eof_still_returns_none(self):
        sender, receiver = connected_pair()
        sender.send_end()
        sender.close()
        assert receiver.receive() == (MSG_END, None)
        assert receiver.receive() is None   # frame-boundary EOF: orderly
        receiver.close()


class TestSchemaValidation:
    """ISSUE satellite: RESULT/METRICS JSON from a peer is checked
    against the shard/metrics schemas before it reaches the controller
    merge loop; every malformation is a ProtocolError at the boundary."""

    def good_result(self):
        return {"name": "querier-1",
                "sent": [{"index": 0, "source": "10.0.0.1",
                          "trace_time": 0.0, "scheduled_at": 1.0,
                          "sent_at": 1.001, "protocol": "udp",
                          "qname": "a.example.com.",
                          "answered_at": 1.02, "querier_id": 1}],
                "counters": {"deadline_shed": 4}}

    def good_metrics(self):
        from repro.telemetry import MetricsRegistry
        metrics = MetricsRegistry()
        metrics.incr("replay.records_sent", 42)
        metrics.observe("query.latency_s", 0.003)
        return metrics.to_state()

    def roundtrip(self, send):
        sender, receiver = connected_pair()
        try:
            send(sender)
            return receiver.receive()
        finally:
            sender.close(), receiver.close()

    def test_valid_payloads_pass(self):
        from repro.replay.protocol import (validate_metrics_payload,
                                           validate_result_payload)
        assert validate_result_payload(self.good_result())
        assert validate_metrics_payload(self.good_metrics()) is not None
        kind, payload = self.roundtrip(
            lambda s: s.send_result(self.good_result()))
        assert kind == MSG_RESULT and payload["name"] == "querier-1"

    @pytest.mark.parametrize("mangle,match", [
        (lambda p: p.pop("sent"), "exactly one of 'sent' or 'aggregate'"),
        (lambda p: p.update(sent={}), "field 'sent' has type dict"),
        (lambda p: p.update(extra=1), "unknown field 'extra'"),
        (lambda p: p["sent"][0].pop("qname"), r"sent\[0\] missing"),
        (lambda p: p["sent"][0].update(qname=7), "field 'qname'"),
        (lambda p: p["sent"][0].update(surprise=1), "unknown field"),
        (lambda p: p["sent"][0].update(answered_at="soon"),
         "field 'answered_at'"),
        (lambda p: p["counters"].update(bad="x"), "counter 'bad'"),
    ], ids=["no-sent", "sent-not-list", "unknown-top", "missing-qname",
            "qname-int", "unknown-sent-field", "answered-str",
            "counter-str"])
    def test_bad_result_rejected(self, mangle, match):
        payload = self.good_result()
        mangle(payload)
        with pytest.raises(ProtocolError, match=match):
            self.roundtrip(lambda s: s.send_result(payload))

    def test_result_must_be_object(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            self.roundtrip(lambda s: s.send_result([1, 2, 3]))

    @pytest.mark.parametrize("mangle,match", [
        (lambda p: p.update(surprise={}), "unknown field 'surprise'"),
        (lambda p: p["counts"].update(bad="x"), "counts entry 'bad'"),
        (lambda p: p["histograms"]["query.latency_s"].pop("count"),
         "missing field 'count'"),
        (lambda p: p["histograms"]["query.latency_s"].update(count=1.5),
         "field 'count'"),
        (lambda p: p["histograms"]["query.latency_s"]["buckets"]
         .update({"xx": 1}), "bucket 'xx'"),
        (lambda p: p["histograms"]["query.latency_s"]["buckets"]
         .update({"3": 1.5}), "bucket '3'"),
    ], ids=["unknown-section", "count-str", "histogram-missing-count",
            "count-float", "bucket-key", "bucket-value"])
    def test_bad_metrics_rejected(self, mangle, match):
        payload = self.good_metrics()
        mangle(payload)
        with pytest.raises(ProtocolError, match=match):
            self.roundtrip(lambda s: s.send_metrics(payload))

    def test_bad_hello_role_rejected(self):
        sender, receiver = connected_pair()
        sender._socket.sendall(
            _HEADER.pack(1 + 7, MSG_HELLO)
            + struct.pack("!BHHH", 9, 0, 0, 0))
        with pytest.raises(ProtocolError, match="HELLO role 9"):
            receiver.receive()
        sender.close(), receiver.close()

    @pytest.mark.parametrize("kind", [MSG_END, MSG_SHUTDOWN],
                             ids=["end", "shutdown"])
    def test_end_frames_must_be_empty(self, kind):
        sender, receiver = connected_pair()
        sender._socket.sendall(_HEADER.pack(1 + 1, kind) + b"x")
        with pytest.raises(ProtocolError, match="no payload"):
            receiver.receive()
        sender.close(), receiver.close()

    def test_corrupt_record_body_is_protocol_error(self):
        sender, receiver = connected_pair()
        sender._socket.sendall(_HEADER.pack(1 + 3, MSG_RECORD) + b"abc")
        with pytest.raises(ProtocolError, match="RECORD"):
            receiver.receive()
        sender.close(), receiver.close()


class TestControlSchemaValidation:
    """ISSUE 9 satellite: CHECKPOINT, RECORD_SEQ and TELEMETRY frames get
    the same boundary treatment as RESULT/METRICS — a worker (or a fault
    injector) can only deliver well-formed control payloads; everything
    else dies as a ProtocolError before it reaches recovery bookkeeping
    or the cluster aggregator."""

    def good_checkpoint(self):
        return {"worker": 3, "incarnation": 1, "seq": 7,
                "result": {"name": "querier-3", "sent": [],
                           "counters": {}},
                "final": False}

    def good_telemetry(self):
        from repro.telemetry import MetricsRegistry
        metrics = MetricsRegistry()
        metrics.incr("replay.records_sent", 5)
        return {"role": ROLE_QUERIER, "worker": 2, "incarnation": 0,
                "seq": 4, "mono": 12.5, "sync_mono": 12.0,
                "metrics": metrics.to_state(),
                "health": {"rss_kb": 20480, "queue_depth": 3},
                "spans": [[0.001, "b", 17, "query", "querier-2", None],
                          [0.004, "e", 17, "query", "querier-2",
                           {"rcode": 0}]],
                "ring": {"spans": [[0.001, "i", None, "mark",
                                    "querier-2", None]],
                         "log": [[0.0, "querier-2 inc0 up"]]},
                "final": False}

    def roundtrip(self, send):
        sender, receiver = connected_pair()
        try:
            send(sender)
            return receiver.receive()
        finally:
            sender.close(), receiver.close()

    def test_valid_checkpoint_passes(self):
        kind, payload = self.roundtrip(
            lambda s: s.send_checkpoint(3, 1, 7,
                                        self.good_checkpoint()["result"]))
        assert kind == MSG_CHECKPOINT
        assert (payload["worker"], payload["seq"]) == (3, 7)

    @pytest.mark.parametrize("mangle,match", [
        (lambda p: p.pop("result"), "missing field 'result'"),
        (lambda p: p.update(result=[]), "field 'result' has type list"),
        (lambda p: p.update(worker=True), "worker must be a non-negative"),
        (lambda p: p.update(worker=-1), "worker must be a non-negative"),
        (lambda p: p.update(incarnation=0x10000), "exceeds u16"),
        (lambda p: p.update(final="yes"), "field 'final'"),
        (lambda p: p.update(surprise=1), "unknown field 'surprise'"),
        (lambda p: p["result"].pop("sent"),
         "exactly one of 'sent' or 'aggregate'"),
    ], ids=["no-result", "result-not-dict", "worker-bool", "worker-neg",
            "incarnation-overflow", "final-str", "unknown-field",
            "nested-result-invalid"])
    def test_bad_checkpoint_rejected(self, mangle, match):
        payload = self.good_checkpoint()
        mangle(payload)
        sender, receiver = connected_pair()
        try:
            sender._send(MSG_CHECKPOINT, json.dumps(payload).encode())
            with pytest.raises(ProtocolError, match=match):
                receiver.receive()
        finally:
            sender.close(), receiver.close()

    def test_record_seq_roundtrips_index_and_record(self):
        record = make_query_record(0.25, "10.9.9.9", "seq.example.com.")
        kind, payload = self.roundtrip(
            lambda s: s.send_record_seq(41, record))
        assert kind == MSG_RECORD_SEQ
        index, got = payload
        assert index == 41 and got.src == "10.9.9.9"
        assert got.wire == record.wire

    @pytest.mark.parametrize("body", [b"", b"\x00\x00", b"\x00\x00\x00\x05"],
                             ids=["empty", "short-index", "index-no-record"])
    def test_truncated_record_seq_rejected(self, body):
        sender, receiver = connected_pair()
        sender._socket.sendall(_HEADER.pack(1 + len(body), MSG_RECORD_SEQ)
                               + body)
        with pytest.raises(ProtocolError, match="RECORD_SEQ"):
            receiver.receive()
        sender.close(), receiver.close()

    def test_corrupt_record_seq_body_rejected(self):
        body = struct.pack("!I", 9) + b"not a record"
        sender, receiver = connected_pair()
        sender._socket.sendall(_HEADER.pack(1 + len(body), MSG_RECORD_SEQ)
                               + body)
        with pytest.raises(ProtocolError, match="RECORD_SEQ"):
            receiver.receive()
        sender.close(), receiver.close()

    def test_valid_telemetry_passes(self):
        kind, payload = self.roundtrip(
            lambda s: s.send_telemetry(self.good_telemetry()))
        assert kind == MSG_TELEMETRY
        assert payload["health"]["queue_depth"] == 3
        assert len(payload["spans"]) == 2

    @pytest.mark.parametrize("mangle,match", [
        (lambda p: p.pop("mono"), "missing field 'mono'"),
        (lambda p: p.update(role=9), "bad role 9"),
        (lambda p: p.update(seq=-2), "seq must be a non-negative"),
        (lambda p: p["metrics"].update(surprise={}), "unknown field"),
        (lambda p: p["health"].update(note="hot"),
         "health entry 'note'"),
        (lambda p: p["health"].update(ok=True), "health entry 'ok'"),
        (lambda p: p["spans"].append([0.1, "x", 1, "q", "t", None]),
         "bad phase"),
        (lambda p: p["spans"].append([0.1, "b", 1, "q", "t"]),
         "6-element span event"),
        (lambda p: p["ring"].update(extra=[]), "unknown field 'extra'"),
        (lambda p: p["ring"]["log"].append(["late", 1]),
         r"ring log\[1\]"),
        (lambda p: p.update(surprise=1), "unknown field 'surprise'"),
    ], ids=["no-mono", "bad-role", "seq-neg", "metrics-invalid",
            "health-str", "health-bool", "span-phase", "span-arity",
            "ring-unknown", "ring-log-shape", "unknown-top"])
    def test_bad_telemetry_rejected(self, mangle, match):
        payload = self.good_telemetry()
        mangle(payload)
        with pytest.raises(ProtocolError, match=match):
            self.roundtrip(lambda s: s.send_telemetry(payload))

    def test_telemetry_payload_must_be_object(self):
        with pytest.raises(ProtocolError, match="must be an object"):
            self.roundtrip(lambda s: s.send_telemetry(["nope"]))


class _MangledEchoServer:
    """Echoes each datagram with the same message id but a *different*
    question section: a stale/forged response.  A querier matching on id
    alone credits it to the in-flight query; full-key matching must not."""

    def __init__(self):
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._socket.bind(("127.0.0.1", 0))
        self._socket.settimeout(0.2)
        self.address, self.port = self._socket.getsockname()
        self._mangled = make_query_record(
            0.0, "10.9.9.9", "forged.elsewhere.example.").wire
        self._running = False
        self._thread = None

    def __enter__(self):
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self):
        while self._running:
            try:
                data, peer = self._socket.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            if len(data) < 12:
                continue
            reply = bytearray(data[:2] + self._mangled[2:])
            reply[2] |= 0x80  # QR
            try:
                self._socket.sendto(bytes(reply), peer)
            except OSError:
                break

    def __exit__(self, *exc):
        self._running = False
        self._thread.join(timeout=2.0)
        self._socket.close()


class TestResponseMatching:
    def test_forged_qname_not_credited(self):
        """ISSUE bugfix: live queriers matched UDP responses on message
        id alone; a response with a colliding id but the wrong question
        was credited to the query.  Match on (id, qname, qtype)."""
        trace = fixed_interval_trace(0.05, 0.3, client_count=2,
                                     name="mangled")
        with _MangledEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                DistributedConfig(distributors=1,
                                  queriers_per_distributor=1))
            result = replay.replay(trace)
        assert len(result) == len(trace)
        # Pre-fix: answered_fraction == 1.0 (forged responses credited).
        assert result.answered_fraction() == 0.0
        assert result.unmatched_responses >= 1

    def test_escaped_and_mixed_case_qnames_are_credited(self):
        """ISSUE 19 bugfix: the send key was built from ``to_text()``
        (``a\\032b.example.com.``) and the answer key from the wire
        labels (``a b.example.com.``), so a qname holding a space, a dot
        inside a label or a non-printable octet was never credited with
        its answer.  Both sides now key on the wire bytes."""
        from repro.trace import Trace
        qnames = ["a b.example.com.", "a\\.b.example.com.",
                  "\\255\\001.com.", "WWW.Example.COM."]
        trace = Trace([make_query_record(index * 0.02, "10.0.0.1", qname,
                                         msg_id=index + 1)
                       for index, qname in enumerate(qnames)])
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                DistributedConfig(distributors=1,
                                  queriers_per_distributor=1))
            result = replay.replay(trace)
        assert len(result) == 4
        # Pre-fix: only WWW.Example.COM. was answered.
        assert all(query.answered_at is not None for query in result.sent)
        assert result.unmatched_responses == 0
        # List-mode entries keep the presentation text.
        assert [query.qname for query in result.sent] == [
            "a\\032b.example.com.", "a\\.b.example.com.",
            "\\255\\001.com.", "www.example.com."]


_SLOW_ECHO = """
import signal, socket, sys, time
sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
sock.bind(("127.0.0.1", 0))
sock.settimeout(0.1)
stopping = []
signal.signal(signal.SIGTERM, lambda *_: stopping.append(1))
print(sock.getsockname()[1], flush=True)
received = 0
while not stopping:
    try:
        data, peer = sock.recvfrom(65535)
    except socket.timeout:
        continue
    received += 1
    reply = bytearray(data)
    reply[2] |= 0x80
    sock.sendto(reply, peer)
    if received % 8 == 0:
        time.sleep(0.0005)
print(received, flush=True)
"""


class _SlowEchoServer:
    """A UDP echo that cannot keep up with a querier at line rate: it
    naps half a millisecond after every 8 answers (≈ 13 k q/s), and its
    receive buffer is the kernel's default — 256 small datagrams — not
    the 4 MiB the replay's own servers ask for.  Its own process, so
    that no interpreter lock couples it to the querier under test."""

    def __enter__(self):
        self._process = subprocess.Popen(
            [sys.executable, "-c", _SLOW_ECHO], stdout=subprocess.PIPE,
            text=True)
        self.address = ("127.0.0.1", int(self._process.stdout.readline()))
        return self

    def stop(self):
        """Stop the server; returns how many datagrams reached it."""
        self._process.send_signal(signal.SIGTERM)
        received = int(self._process.stdout.readline())
        self._process.wait(timeout=10)
        self._process.stdout.close()
        return received

    def __exit__(self, *exc):
        if self._process.poll() is None:
            self._process.kill()
            self._process.wait()
            self._process.stdout.close()


def _run_querier(server, records, aggregate=True):
    """One querier fed ``records`` over a real link, run to its end."""
    from repro.replay import ReplayResult
    feed, link = connected_pair()
    querier = _LiveQuerier(0, link, server,
                           ReplayResult("querier-0", aggregate=aggregate),
                           threading.Lock())
    runner = threading.Thread(target=querier.run, daemon=True)
    runner.start()
    feed.send_time_sync(records[0].timestamp)
    for record in records:
        feed.write_record(record)
    feed.send_end()
    runner.join(timeout=60.0)
    assert not runner.is_alive()
    feed.close()
    return querier


class TestCatchUpWindow:
    """ISSUE 19: a backlog is sent answer-clocked (at most 64 overdue
    sends ahead of the datagrams read back, 2 ms of patience), a
    schedule is sent open loop.  Every bound is a count the mechanism
    implies, so a loaded host changes the numbers but not the verdict."""

    WINDOW = 64

    def test_flood_does_not_overrun_a_slow_server(self):
        """Dumped at line rate, 20 000 queries overrun a default-sized
        server buffer many times over; nothing but the querier's own
        slowness used to prevent that.  Now only a window written off
        after 2 ms without one answer can be lost — on a quiet host
        there is none, and the server counts N of N."""
        records = burst_trace(20000).records
        with _SlowEchoServer() as server:
            querier = _run_querier(server.address, records)
            received = server.stop()
        assert querier.result.sent_count == len(records)
        assert querier.catchup_waits > 0
        assert len(records) - received \
            <= self.WINDOW * querier.catchup_forgiven
        assert querier.result.unmatched_responses == 0

    def test_flood_at_a_silent_server_still_finishes(self, monkeypatch):
        from repro.replay import distributed
        monkeypatch.setattr(distributed, "_AGGREGATE_PENDING_CAP", 512)
        records = burst_trace(2000).records
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind(("127.0.0.1", 0))
            querier = _run_querier(silent.getsockname(), records)
        assert querier.records_sent == querier.result.sent_count == 2000
        assert querier.result.answered_count == 0
        # Every full window was waited for once and then written off.
        assert querier.catchup_forgiven >= 2000 // self.WINDOW - 2
        assert querier.catchup_waits == querier.catchup_forgiven
        # Unanswered sends are remembered up to the cap, oldest dropped.
        assert 256 <= querier._pending_entries <= 512
        assert querier._pending_entries == sum(
            len(waiting) for waiting in querier._pending.values())

    def test_on_schedule_sends_are_never_held(self):
        """80 queries 10 ms apart at a server that never answers: more
        than a window goes unanswered, and no send is held for it.  A
        hold takes 64 sends in a row each more than a millisecond late;
        on a quiet host none is, and the count is zero."""
        records = fixed_interval_trace(0.01, 0.8).records
        assert len(records) == 80
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as silent:
            silent.bind(("127.0.0.1", 0))
            querier = _run_querier(silent.getsockname(), records,
                                   aggregate=False)
        assert querier.records_sent == 80
        late = sum(1 for query in querier.result.sent
                   if query.sent_at - query.scheduled_at > 0.001)
        assert querier.catchup_waits <= late // self.WINDOW
        assert querier.catchup_forgiven == querier.catchup_waits
