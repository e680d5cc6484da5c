"""Figure 15: query latency vs client-server RTT."""

from repro.experiments import fig15_latency


def find(points, protocol, rtt, group):
    for point in points:
        if (point.protocol, point.rtt_ms, point.group) == \
                (protocol, rtt, group):
            return point
    raise AssertionError(f"missing point {protocol}/{rtt}/{group}")


def test_fig15_latency_vs_rtt(bench_scale):
    points = fig15_latency.measure(bench_scale,
                                   rtts_ms=(20.0, 80.0, 160.0))
    for point in points:
        print(f"{point.protocol:9s} rtt={point.rtt_ms:5.0f}ms "
              f"{point.group:8s} median={point.stats['median'] * 1e3:7.1f}ms "
              f"({point.median_rtt_multiple():.2f} RTT) "
              f"p95={point.stats['p95'] * 1e3:7.1f}ms")

    # 15a — UDP (original) is ~1 RTT everywhere; TCP's all-client median
    # stays close to UDP's (connection reuse by busy clients).
    for rtt in (20.0, 80.0, 160.0):
        udp = find(points, "original", rtt, "all")
        assert abs(udp.median_rtt_multiple() - 1.0) < 0.2
        tcp = find(points, "tcp", rtt, "all")
        assert tcp.stats["median"] < udp.stats["median"] * 2.2

    # 15b — non-busy clients: TCP ~2 RTT with a 1-RTT 25th percentile;
    # TLS grows non-linearly toward 4 RTT.
    tcp_nb = find(points, "tcp", 160.0, "non-busy")
    assert 1.4 < tcp_nb.median_rtt_multiple() < 2.6
    assert tcp_nb.stats["p25"] <= tcp_nb.stats["median"]

    tls_low = find(points, "tls", 20.0, "non-busy")
    tls_mid = find(points, "tls", 80.0, "non-busy")
    tls_high = find(points, "tls", 160.0, "non-busy")
    assert tls_high.median_rtt_multiple() > tls_low.median_rtt_multiple()
    assert 3.0 < tls_high.median_rtt_multiple() < 4.6

    # 15b tails — 95th percentiles reach many RTTs (Nagle/reassembly).
    assert tls_high.stats["p95"] > 4.0 * 0.160


def test_fig15c_client_load_skew(bench_scale):
    from repro.experiments.rootserver import RootRunConfig, run_root_replay
    from repro.trace import inactive_client_fraction, top_client_share

    output = run_root_replay(RootRunConfig(scale=bench_scale,
                                           protocol="original"))
    share = top_client_share(output.trace, 0.01)
    inactive = inactive_client_fraction(output.trace, 10)
    print(f"\nfig15c: top-1% share={share:.2f} (paper ~0.75), "
          f"inactive={inactive:.2f} (paper ~0.81)")
    assert share > 0.30
    assert inactive > 0.65
