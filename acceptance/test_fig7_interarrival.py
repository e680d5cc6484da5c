"""Figure 7: inter-arrival CDFs, original vs replayed."""

from repro.experiments import fig7_interarrival


def test_fig7_interarrival_cdfs(bench_scale):
    output = fig7_interarrival.run(bench_scale, max_queries=8000)
    print()
    print(output.render())
    by_trace = {row[0]: row for row in output.rows}

    # Medians sit on the original for every fixed interval >= 1 ms.
    for label in ("1 s", "0.1 s", "0.01 s", "0.001 s"):
        original, replayed = by_trace[label][1], by_trace[label][2]
        assert abs(replayed - original) < max(0.2 * original, 0.5)

    # Real-world (B-Root) inter-arrivals: replayed CDF lies on the
    # original (tiny KS distance), the paper's headline claim.
    assert by_trace["B-Root"][5] < 0.05

    # The sub-millisecond cases show spread (the paper's observation),
    # visible as a larger CDF distance than the varying-interarrival case.
    assert by_trace["0.0001 s"][5] > by_trace["B-Root"][5]
