"""Figure 14: all-TLS server memory and connection footprint."""

from repro.experiments import fig13_14_footprint


def test_fig14_tls_footprint(bench_scale_long):
    output = fig13_14_footprint.run("tls", bench_scale_long,
                                    timeouts=(5.0, 20.0, 40.0))
    print()
    print(output.render())
    rows = {row[0]: row for row in output.rows}

    # Paper: ~18 GB at the 20 s timeout — TCP's footprint plus ~30 %
    # of per-session TLS state; connection counts match Fig 13.
    mem_20 = rows[20.0][1]
    assert 11.0 < mem_20 < 26.0, mem_20
    assert rows[20.0][3] > 35_000

    # Monotone growth with timeout.
    memories = [rows[t][1] for t in (5.0, 20.0, 40.0)]
    assert memories == sorted(memories)

    # TLS process memory exceeds the UDP baseline by a wide margin.
    assert rows["original/20"][2] < rows[20.0][2]


def test_fig14_tls_exceeds_tcp_memory(bench_scale_long):
    tcp_output, tls_output = (
        fig13_14_footprint.run(protocol, bench_scale_long, timeouts=(20.0,),
                               include_baseline=False)
        for protocol in ("tcp", "tls"))
    tcp_mem = tcp_output.rows[0][1]
    tls_mem = tls_output.rows[0][1]
    print(f"\nTCP 20s: {tcp_mem:.1f} GiB, TLS 20s: {tls_mem:.1f} GiB "
          f"(paper: 15 GB vs 18 GB, ~+20-30 %)")
    ratio = tls_mem / tcp_mem
    assert 1.05 < ratio < 1.5, ratio
