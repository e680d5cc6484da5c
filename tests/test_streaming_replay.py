"""End-to-end streaming replay: the constant-memory 10⁸-query path.

Covers the ISSUE acceptance differential (a streamed replay must be
*identical* to the in-memory path on the same trace) plus the
shard-file process topology: distributors self-sourcing chunked shard
files with bounded read-ahead, queriers accounting in aggregate mode,
and the controller streaming-merging few-KB RESULT frames.
"""

import struct

import pytest

from repro.replay import DistributedConfig, ProcessTopology, SimReplayEngine
from repro.replay.result import ReplayResult
from repro.experiments import build_evaluation_topology
from repro.experiments.fig6_timing import wildcard_example_zone
from repro.server import (AuthoritativeServer, HostedDnsServer,
                          LiveDnsServer, TransportConfig)
from repro.server.live import EchoEngine
from repro.trace import (BRootWorkload, QueryMutator, Trace,
                         fixed_interval_trace, make_query_record,
                         make_root_zone, retarget, scale_time, split_shards)
from repro.trace.binfmt import (iter_binary, iter_record_bodies, read_binary,
                                write_binary)


def deploy():
    testbed = build_evaluation_topology()
    HostedDnsServer(
        testbed.server_host,
        AuthoritativeServer.single_view([wildcard_example_zone(),
                                         make_root_zone(20)]),
        config=TransportConfig(udp=True, tcp=True, tls=True))
    return testbed


class TestSimEngineDifferential:
    def test_streamed_replay_identical_to_in_memory(self):
        """ISSUE acceptance: generate_stream → mutator.stream →
        replay_stream produces a ReplayResult identical to
        generate → apply → replay on ~10⁴ queries."""
        workload = BRootWorkload(duration=10.0, mean_rate=1000.0,
                                 client_count=200, seed=17)

        testbed_a = deploy()
        mutator_a = QueryMutator([retarget(testbed_a.server_address)])
        eager = mutator_a.apply(workload.generate())
        assert len(eager) > 8000   # the scale the differential promises
        result_a = SimReplayEngine(testbed_a.network).replay(eager)

        testbed_b = deploy()
        mutator_b = QueryMutator([retarget(testbed_b.server_address)])
        result_b = SimReplayEngine(testbed_b.network).replay_stream(
            mutator_b.stream(workload.generate_stream()),
            chunk_records=512)

        assert len(result_a) == len(result_b) == len(eager)
        assert result_a.answered_fraction() == 1.0
        assert result_b.answered_fraction() == 1.0
        assert result_a.sent == result_b.sent   # field by field
        assert result_a.failure_counts() == result_b.failure_counts()

    def test_replay_stream_empty(self):
        testbed = deploy()
        result = SimReplayEngine(testbed.network).replay_stream(iter(()))
        assert len(result) == 0


def shard_directory(tmp_path, trace, num_shards):
    directory = str(tmp_path / "shards")
    manifest = split_shards(iter(sorted(trace.records,
                                        key=lambda r: r.timestamp)),
                            directory, num_shards, chunk_records=16)
    return directory, manifest


def streaming_config(**overrides):
    defaults = dict(distributors=2, queriers_per_distributor=2,
                    start_delay=0.05)
    defaults.update(overrides)
    return DistributedConfig(**defaults)


def compress(trace, testbed_address=None):
    mutations = [scale_time(0.25)]
    return QueryMutator(mutations).apply(trace)


class TestShardFileTopology:
    def test_replay_shard_files_end_to_end(self, tmp_path):
        trace = fixed_interval_trace(0.02, 1.0, client_count=16,
                                     name="stream-mp")
        with LiveDnsServer() as server:
            topology = ProcessTopology((server.address, server.port),
                                       streaming_config())
            directory, manifest = shard_directory(tmp_path, trace, 2)
            result = topology.replay_shard_files(directory, pace_lead=5.0)
        assert result.aggregate
        assert result.sent_count == len(trace) == manifest["total_records"]
        assert result.answered_fraction() > 0.9
        assert not result.sent          # no per-query state anywhere
        state = topology.metrics.to_state()
        assert state["counts"]["replay.records_routed"] == len(trace)
        assert state["counts"]["replay.records_sent"] == len(trace)
        assert state["counts"]["multiproc.trace_records"] == len(trace)
        summary = result.latency_summary()
        assert summary["count"] == result.answered_count
        assert result.error_summary()["count"] == float(result.sent_count)

    def test_metrics_carry_the_aggregate_latency(self, tmp_path):
        """An aggregate querier's METRICS frame carries its latency
        histogram as ``query.latency_s``, as a list-mode one's does."""
        trace = fixed_interval_trace(0.02, 0.4, client_count=4,
                                     name="stream-latency")
        with LiveDnsServer() as server:
            topology = ProcessTopology(
                (server.address, server.port),
                streaming_config(distributors=1))
            directory, _ = shard_directory(tmp_path, trace, 1)
            result = topology.replay_shard_files(directory, pace_lead=5.0)
        assert result.answered_count > 0
        latency = topology.metrics.to_state()["histograms"]["query.latency_s"]
        assert latency["count"] == result.answered_count
        assert latency["max"] == result.latency.max

    def test_one_distributor_per_shard(self, tmp_path):
        # The manifest, not config.distributors, decides the fan-out.
        trace = fixed_interval_trace(0.02, 0.6, client_count=9,
                                     name="stream-shards")
        with LiveDnsServer() as server:
            topology = ProcessTopology(
                (server.address, server.port),
                streaming_config(distributors=1))
            directory, _ = shard_directory(tmp_path, trace, 3)
            result = topology.replay_shard_files(directory, pace_lead=5.0)
        assert len(topology.distributor_handles) == 3
        assert result.sent_count == len(trace)

    def test_paced_tail_answers_are_not_lost(self, tmp_path):
        """Once END has arrived a querier waits out the time to each
        remaining send; it must keep reading answers meanwhile.  The
        last pace_lead x rate queries (1 000 here) are sent in that
        state, and their echoes used to overflow the socket buffer."""
        trace = fixed_interval_trace(0.0005, 1.5, client_count=64,
                                     name="paced-tail")
        with LiveDnsServer() as server:
            topology = ProcessTopology(
                (server.address, server.port),
                streaming_config(distributors=1))
            directory, _ = shard_directory(tmp_path, trace, 1)
            result = topology.replay_shard_files(directory, pace_lead=0.5)
        assert result.sent_count == len(trace) == 3000
        assert result.answered_count == len(trace)

    def test_due_send_does_not_wait_for_the_next_frame(self, tmp_path):
        """A querier used to block on the distributor link with no
        timeout.  With records at t = 0, 0.5, 3.0 and 3.2 and a 2 s
        pacing lead, the t = 0.5 query sat queued until the t = 3.0
        frame arrived at 1.0 s and left 0.5 s late; a due send now
        wakes the loop by itself.  The bound is half the defect, not
        the on-time tolerance: ROADMAP 5a records a 116 ms scheduling
        hiccup on this class of host."""
        trace = Trace([make_query_record(at, "10.0.0.1",
                                         f"q{index}.example.com.",
                                         msg_id=index + 1)
                       for index, at in enumerate((0.0, 0.5, 3.0, 3.2))])
        with LiveDnsServer() as server:
            topology = ProcessTopology(
                (server.address, server.port),
                streaming_config(distributors=1,
                                 queriers_per_distributor=1))
            directory, _ = shard_directory(tmp_path, trace, 1)
            result = topology.replay_shard_files(directory, pace_lead=2.0)
        assert result.sent_count == result.answered_count == 4
        assert result.send_error.max < 0.25      # parent: 0.50

    def test_recovery_mode_rejected(self, tmp_path):
        from repro.replay.recovery import RecoveryConfig
        topology = ProcessTopology(
            ("127.0.0.1", 1), streaming_config(recovery=RecoveryConfig()))
        with pytest.raises(ValueError, match="recovery"):
            topology.replay_shard_files(str(tmp_path))

    def test_empty_shard_set(self, tmp_path):
        directory = str(tmp_path / "empty")
        split_shards(iter(()), directory, 2)
        topology = ProcessTopology(("127.0.0.1", 1), streaming_config())
        result = topology.replay_shard_files(directory)
        assert result.aggregate and len(result) == 0


class TestAggregateTopologies:
    def test_trace_and_shard_file_runs_agree(self, tmp_path):
        """One accounting rule per entry point: ``replay(trace)`` keeps
        an entry per query, ``replay_shard_files`` folds every query
        into aggregate counters.  The same trace through both, the
        second on its one-shard split, sends and answers as many."""
        trace = fixed_interval_trace(0.02, 0.8, client_count=8,
                                     name="per-query-vs-aggregate")
        directory, _ = shard_directory(tmp_path, trace, 1)
        with LiveDnsServer() as server:
            address = (server.address, server.port)
            per_query = ProcessTopology(
                address, streaming_config()).replay(trace)
            aggregate = ProcessTopology(
                address, streaming_config()).replay_shard_files(directory)
        assert not per_query.aggregate and aggregate.aggregate
        assert not aggregate.sent
        assert len(per_query) == len(aggregate) == len(trace)
        assert aggregate.answered_count \
            == sum(1 for q in per_query.sent if q.answered_at is not None)


class _CapturingEcho(EchoEngine):
    """The echo engine, appending every query it answers to a file the
    test reads once the server has stopped."""

    def __init__(self, path):
        self._file = open(path, "ab", buffering=0)

    def serve_wire_fast(self, wire, source, transport):
        self._file.write(struct.pack("!H", len(wire)) + wire)
        return EchoEngine.serve_wire_fast(wire, source, transport)


def _capturing_echo(path):
    return LiveDnsServer((__name__, _CapturingEcho.__name__,
                          {"path": str(path)}))


def _captured(path):
    data, received, offset = path.read_bytes(), [], 0
    while offset < len(data):
        (size,) = struct.unpack_from("!H", data, offset)
        received.append(data[offset + 2:offset + 2 + size])
        offset += 2 + size
    return received


def _extend_bodies(path, extension=b"\xee" * 7):
    """Rewrite a binary trace with ``extension`` after every record's
    wire: trailing bytes the format's ``total_length`` allows."""
    with open(path, "rb") as stream:
        bodies = list(iter_record_bodies(stream))
    payload = b"".join(struct.pack("!I", len(body) + len(extension))
                       + body + extension for body in bodies)
    with open(path, "wb") as stream:
        stream.write(b"LDPB" + struct.pack("!HH", 2, 0))
        stream.write(struct.pack("!II", len(payload), len(bodies)))
        stream.write(payload + struct.pack("!IQ", 0, len(bodies)))


class TestRecordBytes:
    """Records cross the live tree as bytes; what reaches the server is
    each record's own wire under a querier's message id, never the
    extension bytes a body may carry past it."""

    def records(self):
        return [make_query_record(index * 0.002, f"10.0.0.{index % 3 + 1}",
                                  f"q{index}.example.com.", msg_id=index + 1)
                for index in range(30)]

    @staticmethod
    def assert_exact_wires(received, records):
        assert sorted(data[2:] for data in received) \
            == sorted(record.wire[2:] for record in records)

    def test_shard_file_extensions_stay_off_the_wire(self, tmp_path):
        records = self.records()
        directory, manifest = shard_directory(tmp_path, Trace(records), 1)
        path = str(tmp_path / "shards" / manifest["shards"][0]["file"])
        _extend_bodies(path)
        with open(path, "rb") as stream:
            assert [record.wire for record in iter_binary(stream)] \
                == [record.wire for record in records]
        with _capturing_echo(tmp_path / "received") as server:
            topology = ProcessTopology(
                (server.address, server.port),
                streaming_config(distributors=1,
                                 queriers_per_distributor=1))
            result = topology.replay_shard_files(directory, pace_lead=0.5)
        assert result.sent_count == result.answered_count == len(records)
        self.assert_exact_wires(_captured(tmp_path / "received"), records)

    def test_trace_extensions_stay_off_the_wire(self, tmp_path):
        records = self.records()
        path = str(tmp_path / "trace.bin")
        with open(path, "wb") as stream:
            write_binary(Trace(records), stream)
        _extend_bodies(path)
        with open(path, "rb") as stream:
            trace = read_binary(stream)
        with _capturing_echo(tmp_path / "received") as server:
            result = ProcessTopology(
                (server.address, server.port),
                streaming_config(distributors=1)).replay(trace)
        assert len(result) == len(records)
        assert all(query.answered_at is not None for query in result.sent)
        self.assert_exact_wires(_captured(tmp_path / "received"), records)


class TestAggregateResultFrames:
    def test_aggregate_result_frame_validates(self):
        from repro.replay.protocol import validate_result_payload
        result = ReplayResult("agg", aggregate=True)
        result.count_send("udp", 0.0, 100.0)
        result.count_answer(0.002)
        payload = validate_result_payload(result.to_dict())
        restored = ReplayResult.from_dict(payload)
        assert restored.sent_count == 1 and restored.answered_count == 1
