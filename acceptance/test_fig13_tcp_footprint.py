"""Figure 13: all-TCP server memory and connection footprint."""

from repro.experiments import fig13_14_footprint


def test_fig13_tcp_footprint(bench_scale_long):
    output = fig13_14_footprint.run("tcp", bench_scale_long,
                                    timeouts=(5.0, 10.0, 20.0, 40.0))
    print()
    print(output.render())
    rows = {row[0]: row for row in output.rows}

    # Paper landmarks at the 20 s timeout: ~15 GB total, ~60 k
    # ESTABLISHED, TIME_WAIT roughly 2x established.
    mem_20 = rows[20.0][1]
    established_20 = rows[20.0][3]
    time_wait_20 = rows[20.0][4]
    assert 9.0 < mem_20 < 22.0, mem_20
    assert 35_000 < established_20 < 110_000, established_20
    assert time_wait_20 > established_20, (time_wait_20, established_20)

    # Memory and connections rise monotonically with the timeout.
    memories = [rows[t][1] for t in (5.0, 10.0, 20.0, 40.0)]
    assert memories == sorted(memories)
    connections = [rows[t][3] for t in (5.0, 10.0, 20.0, 40.0)]
    assert connections == sorted(connections)

    # UDP-dominated baseline is far below (paper: ~2 GB vs ~15 GB).
    baseline = rows["original/20"][1]
    assert baseline < mem_20 / 2.5
