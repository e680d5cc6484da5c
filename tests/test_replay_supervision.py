"""Tests for replay supervision: AIMD pacing and the deadline."""

import pytest

from repro.dns import Rcode
from repro.netsim import EventLoop, Network, RetryPolicy
from repro.replay import (AimdPacer, DistributedConfig, PacingConfig,
                          ProcessTopology, QuerierConfig, ReplayConfig,
                          SimReplayEngine)
from repro.server import LiveDnsServer
from repro.trace import fixed_interval_trace, split_shards


class TestAimdPacer:
    def test_reserve_spaces_sends_at_rate(self):
        pacer = AimdPacer(PacingConfig(initial_rate=10.0), now=0.0)
        slots = [pacer.reserve(0.0) for _ in range(4)]
        assert slots == pytest.approx([0.0, 0.1, 0.2, 0.3])

    def test_reserve_tracks_a_slow_sender(self):
        pacer = AimdPacer(PacingConfig(initial_rate=10.0), now=0.0)
        pacer.reserve(0.0)
        # Asking long after the last slot: send immediately, no credit.
        assert pacer.reserve(5.0) == pytest.approx(5.0)
        assert pacer.reserve(5.0) == pytest.approx(5.1)

    def test_success_grows_additively(self):
        pacer = AimdPacer(PacingConfig(initial_rate=100.0, increase=5.0),
                          now=0.0)
        pacer.on_success()
        pacer.on_success()
        assert pacer.rate == pytest.approx(110.0)

    def test_congestion_cuts_multiplicatively(self):
        pacer = AimdPacer(PacingConfig(initial_rate=100.0, decrease=0.5),
                          now=0.0)
        assert pacer.on_congestion()
        assert pacer.rate == pytest.approx(50.0)

    def test_rate_floors_at_min(self):
        pacer = AimdPacer(PacingConfig(initial_rate=2.0, min_rate=1.0,
                                       decrease=0.5), now=0.0)
        assert pacer.on_congestion()        # 2 -> 1
        assert not pacer.on_congestion()    # already at the floor
        assert pacer.rate == pytest.approx(1.0)

    def test_rate_caps_at_max(self):
        pacer = AimdPacer(PacingConfig(initial_rate=99.0, max_rate=100.0,
                                       increase=5.0), now=0.0)
        pacer.on_success()
        assert pacer.rate == pytest.approx(100.0)


class TestSimPacing:
    def replay(self, pacing, retry=None, server=True, rate_interval=0.01,
               duration=0.5):
        loop = EventLoop()
        network = Network(loop)
        if server:
            from repro.dns import Name, read_zone
            from repro.server import AuthoritativeServer, HostedDnsServer
            zone = read_zone("""
$ORIGIN example.com.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 10.5.0.2
*.example.com. 60 IN A 192.0.2.99
""", origin=Name.from_text("example.com."))
            server_host = network.add_host("server", "10.5.0.2")
            HostedDnsServer(server_host,
                            AuthoritativeServer.single_view([zone]))
        trace = fixed_interval_trace(rate_interval, duration,
                                     server="10.5.0.2")
        engine = SimReplayEngine(
            network,
            ReplayConfig(querier=QuerierConfig(pacing=pacing,
                                               retry=retry)))
        return engine.replay(trace, extra_time=20.0)

    def test_pacer_delays_a_fast_trace(self):
        # 100 q/s offered against 12 queriers each capped at 2 q/s.
        result = self.replay(PacingConfig(initial_rate=2.0, increase=0.0))
        assert result.paced_queries > 0
        assert result.degradation()["paced_queries"] \
            == result.paced_queries
        # Paced queries still go out and get answered.
        assert result.answered_fraction() == 1.0

    def test_timeouts_cut_the_rate(self):
        # No server: every UDP query times out -> congestion signals.
        result = self.replay(
            PacingConfig(initial_rate=100.0, decrease=0.5),
            retry=RetryPolicy(udp_timeout=0.2, max_retries=1),
            server=False, duration=0.2)
        assert result.udp_timeouts > 0
        assert result.pace_rate_cuts > 0

    def test_no_pacing_counts_nothing(self):
        result = self.replay(None)
        degradation = result.degradation()
        assert degradation["paced_queries"] == 0
        assert degradation["pace_rate_cuts"] == 0
        assert result.answered_fraction() == 1.0


class TestLiveSupervision:
    def test_deadline_sheds_queued_records(self):
        # A 5 s trace under a 0.5 s budget: the deadline fires mid-replay
        # and every record not sent is shed, not silently lost.
        trace = fixed_interval_trace(0.05, 5.0, name="deadline-test")
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                DistributedConfig(distributors=1, queriers_per_distributor=2,
                                  deadline=0.5))
            result = replay.replay(trace)
        assert 0 < result.deadline_shed < len(trace)
        assert result.degradation()["deadline_shed"] == result.deadline_shed
        assert len(result) + result.deadline_shed == len(trace)
        assert replay.metrics.count("multiproc.lost_shards") == 0

    def test_deadline_ends_a_shard_file_replay(self, tmp_path):
        """A 20 s shard under a 1 s budget: the distributor hears the
        SHUTDOWN while it paces, stops reading the shard and sheds its
        rest.  The parent never read its control link past END: it
        paced the whole shard, and the collection cap then failed every
        worker (``sent 0``, ``deadline_shed 0``, 3 lost shards)."""
        trace = fixed_interval_trace(0.01, 20.0, name="deadline-shards")
        directory = str(tmp_path / "shards")
        split_shards(iter(trace.records), directory, 1)
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                DistributedConfig(distributors=1, queriers_per_distributor=2,
                                  deadline=1.0))
            result = replay.replay_shard_files(directory, pace_lead=0.5)
        assert replay.metrics.count("multiproc.lost_shards") == 0
        assert 0 < result.deadline_shed < len(trace)
        assert len(result) + result.deadline_shed == len(trace)
        assert replay.metrics.count("replay.records_routed") < len(trace)

    def test_supervision_off_keeps_result_clean(self):
        trace = fixed_interval_trace(0.01, 0.3, name="clean-test")
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                DistributedConfig(distributors=1,
                                  queriers_per_distributor=2))
            result = replay.replay(trace)
        assert all(value == 0
                   for value in result.degradation().values())
        assert result.answered_fraction() > 0.9
