"""Table 1: regenerate the trace inventory."""

from repro.experiments import table1


def test_table1_trace_inventory(bench_scale):
    output = table1.run(bench_scale)
    print()
    print(output.render())
    names = {row[0] for row in output.rows}
    assert {"B-Root-16", "B-Root-17a", "B-Root-17b", "Rec-17",
            "syn-0", "syn-1", "syn-2", "syn-3", "syn-4"} <= names
    by_name = {row[0]: row for row in output.rows}
    # Synthetic interarrivals are exact (Table 1's defining column).
    for name, interval in (("syn-0", 1.0), ("syn-1", 0.1), ("syn-2", 0.01),
                           ("syn-3", 0.001), ("syn-4", 0.0001)):
        assert abs(by_name[name][2] - interval) < interval * 0.01
    # Rec-17's ~0.18 s mean interarrival shape.
    assert 0.05 < by_name["Rec-17"][2] < 0.5
