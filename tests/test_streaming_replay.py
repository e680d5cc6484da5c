"""End-to-end streaming replay: the constant-memory 10⁸-query path.

Covers the ISSUE acceptance differential (a streamed replay must be
*identical* to the in-memory path on the same trace) plus the
shard-file process topology: distributors self-sourcing chunked shard
files with bounded read-ahead, queriers accounting in aggregate mode,
and the controller streaming-merging few-KB RESULT frames.
"""

import pytest

from repro.replay import (DistributedConfig, LiveUdpEchoServer,
                          ProcessTopology, SimReplayEngine)
from repro.replay.result import ReplayResult
from repro.experiments import build_evaluation_topology
from repro.experiments.fig6_timing import wildcard_example_zone
from repro.server import (AuthoritativeServer, HostedDnsServer,
                          TransportConfig)
from repro.trace import (BRootWorkload, QueryMutator, Trace,
                         fixed_interval_trace, make_query_record,
                         make_root_zone, retarget, scale_time, split_shards)


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
        entries_a = [q.to_dict() for q in result_a.sent]
        entries_b = [q.to_dict() for q in result_b.sent]
        assert entries_a == entries_b
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
        with LiveUdpEchoServer() as server:
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

    def test_one_distributor_per_shard(self, tmp_path):
        # The manifest, not config.distributors, decides the fan-out.
        trace = fixed_interval_trace(0.02, 0.6, client_count=9,
                                     name="stream-shards")
        with LiveUdpEchoServer() as server:
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
        with LiveUdpEchoServer() as server:
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
        with LiveUdpEchoServer() as server:
            topology = ProcessTopology(
                (server.address, server.port),
                streaming_config(distributors=1,
                                 queriers_per_distributor=1))
            directory, _ = shard_directory(tmp_path, trace, 1)
            result = topology.replay_shard_files(directory, pace_lead=2.0)
        assert result.sent_count == result.answered_count == 4
        assert result.error_max < 0.25      # parent: 0.50

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
    def test_aggregate_matches_list_counts(self):
        trace = fixed_interval_trace(0.02, 0.8, client_count=8,
                                     name="agg-vs-list")
        results = {}
        for aggregate in (False, True):
            with LiveUdpEchoServer() as server:
                replay = ProcessTopology(
                    (server.address, server.port),
                    streaming_config(aggregate_results=aggregate))
                results[aggregate] = replay.replay(trace)
        assert len(results[True]) == len(results[False]) == len(trace)
        assert results[True].aggregate and not results[False].aggregate
        assert results[True].answered_count \
            == sum(1 for q in results[False].sent
                   if q.answered_at is not None)
        assert not results[True].sent

    def test_process_mode_aggregate_results(self):
        trace = fixed_interval_trace(0.02, 0.8, client_count=8,
                                     name="agg-processes")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                streaming_config(aggregate_results=True))
            result = replay.replay(trace)
        assert result.aggregate
        assert result.sent_count == len(trace)
        assert result.answered_fraction() > 0.9
        assert not result.sent


class TestAggregateResultFrames:
    def test_aggregate_result_frame_validates(self):
        from repro.replay.protocol import validate_result_payload
        result = ReplayResult("agg", aggregate=True)
        result.count_send("udp", 0.0, 100.0)
        result.count_answer(0.002)
        payload = validate_result_payload(result.to_dict())
        restored = ReplayResult.from_dict(payload)
        assert restored.sent_count == 1 and restored.answered_count == 1
