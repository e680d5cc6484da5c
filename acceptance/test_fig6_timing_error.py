"""Figure 6: replay send-time error quartiles."""

from repro.experiments import fig6_timing


def test_fig6_query_timing_error(bench_scale):
    output = fig6_timing.run(bench_scale, max_queries=8000,
                             include_live=True)
    print()
    print(output.render())
    by_trace = {row[0]: row for row in output.rows}

    # Paper: quartiles usually within ±2.5 ms...
    for label in ("1 s", "0.01 s", "0.001 s", "0.0001 s", "B-Root"):
        assert abs(by_trace[label][1]) < 5.0
        assert abs(by_trace[label][3]) < 5.0
    # ...±8 ms at the 0.1 s anomaly...
    assert 3.0 < abs(by_trace["0.1 s"][1]) < 14.0
    # ...and extremes within ±17 ms.
    for row in output.rows:
        if row[0].startswith("live"):
            continue  # real OS timers judged separately below
        assert abs(row[4]) <= 17.01 and abs(row[5]) <= 17.01

    # The live row (real loopback timers) should also be millisecond-class.
    live_rows = [row for row in output.rows if row[0].startswith("live")]
    if live_rows:
        assert abs(live_rows[0][2]) < 20.0


def test_fig6_lossless_replay_leaves_nothing_unanswered():
    # Satellite check: on the clean testbed every query must complete —
    # ReplayResult.unanswered() is the lie detector for "looks done".
    from repro.trace import fixed_interval_trace

    trace = fixed_interval_trace(0.01, 10.0, name="syn-complete")
    result = fig6_timing.replay_one(trace, 0.01)
    assert len(result) == len(trace.records)
    assert result.unanswered() == 0
    assert result.failure_counts()["gave_up"] == 0
