"""Figure 9: single-host fast-replay throughput."""

from repro.experiments import fig9_throughput


def test_fig9_single_host_throughput(bench_scale):
    output = fig9_throughput.run(bench_scale, live_queries=20000,
                                 sim_queries=30000)
    print()
    print(output.render())
    rows = {row[0]: row for row in output.rows}

    live = rows["live loopback"]
    # The honest Python-vs-87k-C++ comparison: report, and require the
    # replay tree at least to keep up with a sane floor.
    assert live[2] > 5000  # q/s over real sockets
    assert live[1] > 10000  # queries actually sent

    sim = rows["simulated fast-path"]
    # In simulated time the engine sustains its configured fast rate.
    assert sim[2] > 50000


def test_fig9_fast_replay_leaves_nothing_unanswered():
    # Satellite check: the fast path is lossless too — no query may be
    # silently stranded at drain time.
    from repro.experiments.fig6_timing import wildcard_example_zone
    from repro.experiments.topology import build_evaluation_topology
    from repro.replay import ReplayConfig, SimReplayEngine
    from repro.server import AuthoritativeServer, HostedDnsServer
    from repro.trace import fixed_interval_trace, make_root_zone

    testbed = build_evaluation_topology()
    HostedDnsServer(testbed.server_host,
                    AuthoritativeServer.single_view(
                        [wildcard_example_zone(), make_root_zone(30)]))
    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(track_timing=False, fast_replay_rate=100000.0))
    trace = fixed_interval_trace(0.001, 5.0, name="syn-fast")
    result = engine.replay(trace, extra_time=5.0)
    assert len(result) == len(trace.records)
    assert result.unanswered() == 0
