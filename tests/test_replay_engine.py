"""Integration tests for the simulated replay engine."""

import pytest

from repro.dns import Name, RRType
from repro.replay import (QuerierConfig, ReplayConfig, SimReplayEngine,
                          TimerJitterModel)
from repro.server import AuthoritativeServer, HostedDnsServer, \
    TransportConfig
from repro.trace import (BRootWorkload, QueryMutator, all_protocol,
                         fixed_interval_trace, make_root_zone, retarget,
                         table1_synthetic)
from repro.experiments import build_evaluation_topology
from repro.experiments.fig6_timing import wildcard_example_zone


def deploy(tcp_timeout=20.0):
    testbed = build_evaluation_topology()
    server = HostedDnsServer(
        testbed.server_host,
        AuthoritativeServer.single_view([wildcard_example_zone(),
                                         make_root_zone(20)]),
        config=TransportConfig(udp=True, tcp=True, tls=True,
                               tcp_idle_timeout=tcp_timeout))
    return testbed, server


def retargeted(trace, testbed):
    return QueryMutator([retarget(testbed.server_address)]).apply(trace)


class TestUdpReplay:
    def test_all_queries_answered(self):
        testbed, _server = deploy()
        trace = retargeted(fixed_interval_trace(0.01, 3.0), testbed)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        assert len(result) == len(trace)
        assert result.answered_fraction() == 1.0

    def test_timing_tracks_trace(self):
        testbed, _server = deploy()
        trace = retargeted(fixed_interval_trace(0.05, 3.0), testbed)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        errors = result.send_time_errors()
        # No jitter model: simulated timers are exact.
        assert max(abs(e) for e in errors) < 1e-6

    def test_jitter_produces_spread(self):
        testbed, _server = deploy()
        trace = retargeted(fixed_interval_trace(0.05, 3.0), testbed)
        engine = SimReplayEngine(
            testbed.network,
            ReplayConfig(jitter=TimerJitterModel(0.05, seed=1)))
        result = engine.replay(trace)
        errors = result.send_time_errors()
        assert max(abs(e) for e in errors) > 1e-4

    def test_same_source_same_querier(self):
        testbed, _server = deploy()
        trace = retargeted(
            BRootWorkload(duration=5.0, mean_rate=100, seed=8).generate(),
            testbed)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        per_source = {}
        for query in result.sent:
            per_source.setdefault(query.source, set()).add(query.querier_id)
        assert all(len(ids) == 1 for ids in per_source.values())

    def test_affinity_off_spreads_sources(self):
        testbed, _server = deploy()
        trace = retargeted(
            BRootWorkload(duration=5.0, mean_rate=200, seed=8).generate(),
            testbed)
        engine = SimReplayEngine(testbed.network,
                                 ReplayConfig(same_source_affinity=False))
        result = engine.replay(trace)
        busiest = max(
            (source for source in {q.source for q in result.sent}),
            key=lambda s: sum(1 for q in result.sent if q.source == s))
        ids = {q.querier_id for q in result.sent if q.source == busiest}
        assert len(ids) > 1


class TestStreamReplay:
    def test_tcp_connection_reuse(self):
        testbed, server = deploy()
        base = BRootWorkload(duration=5.0, mean_rate=150, seed=9).generate()
        trace = QueryMutator([retarget(testbed.server_address),
                              all_protocol("tcp")]).apply(base)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        assert result.answered_fraction() > 0.98
        assert result.reuse_fraction() > 0.3
        assert server.tcp_stack.total_accepted < len(trace)

    def test_tls_replay_answers(self):
        testbed, server = deploy()
        base = BRootWorkload(duration=4.0, mean_rate=80, seed=10).generate()
        trace = QueryMutator([retarget(testbed.server_address),
                              all_protocol("tls")]).apply(base)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        assert result.answered_fraction() > 0.98
        assert server.resources.tls_sessions > 0

    def test_latencies_positive(self):
        testbed, _server = deploy()
        base = BRootWorkload(duration=3.0, mean_rate=80, seed=12).generate()
        trace = QueryMutator([retarget(testbed.server_address),
                              all_protocol("tcp")]).apply(base)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        latencies = result.latencies()
        assert latencies and all(l > 0 for l in latencies)


class TestFastReplay:
    def test_fast_mode_ignores_trace_timing(self):
        testbed, _server = deploy()
        trace = retargeted(fixed_interval_trace(1.0, 60.0), testbed)
        engine = SimReplayEngine(
            testbed.network,
            ReplayConfig(track_timing=False, fast_replay_rate=10000.0))
        result = engine.schedule_trace(trace)
        testbed.loop.run(max_time=testbed.loop.now + 30)
        assert len(result) == len(trace)
        span = (max(q.sent_at for q in result.sent)
                - min(q.sent_at for q in result.sent))
        assert span < 1.0  # 60 s of trace replayed in well under a second

    def test_one_event_per_send_instant(self):
        # A batched fast replay costs one send event per instant, and
        # one delivery to the server and one back per client host.
        testbed, _server = deploy()
        engine = SimReplayEngine(
            testbed.network,
            ReplayConfig(track_timing=False, fast_replay_rate=50000.0,
                         batch_window=2.5e-4))
        trace = table1_synthetic("syn-1", duration=30.0,
                                 server=testbed.server_address)
        result = engine.replay(trace)
        assert result.answered_fraction() == 1.0
        instants = len({entry.sent_at for entry in result.sent})
        assert engine.loop.events_processed \
            <= instants * (1 + 2 * len(engine.client_hosts))


class TestResultAnalysis:
    def test_per_second_rates_match_input(self):
        testbed, _server = deploy()
        trace = retargeted(fixed_interval_trace(0.01, 4.0), testbed)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        rates = dict(result.per_second_rates())
        assert rates[1] == 100
        assert rates[2] == 100

    def test_unmatched_responses_zero_in_clean_run(self):
        testbed, _server = deploy()
        trace = retargeted(fixed_interval_trace(0.02, 2.0), testbed)
        engine = SimReplayEngine(testbed.network)
        result = engine.replay(trace)
        assert result.unmatched_responses == 0


class TestLiveMutation:
    """§2.5: mutate the query stream live on the dispatch path."""

    def test_live_protocol_mutation(self):
        from repro.trace import QueryMutator, all_protocol
        testbed, server = deploy()
        trace = retargeted(fixed_interval_trace(0.02, 2.0), testbed)
        engine = SimReplayEngine(
            testbed.network,
            ReplayConfig(live_mutator=QueryMutator([all_protocol("tcp")])))
        result = engine.replay(trace)
        assert all(q.protocol == "tcp" for q in result.sent)
        assert server.tcp_stack.total_accepted > 0

    def test_live_drop_filters_records(self):
        from repro.trace import QueryMutator
        testbed, _server = deploy()
        trace = retargeted(fixed_interval_trace(0.02, 2.0), testbed)
        drop_even = QueryMutator(
            [lambda r: r if int(r.timestamp * 50) % 2 else None])
        engine = SimReplayEngine(testbed.network,
                                 ReplayConfig(live_mutator=drop_even))
        result = engine.replay(trace)
        assert 0 < len(result) < len(trace)
