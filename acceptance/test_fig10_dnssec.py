"""Figure 10: response bandwidth vs ZSK size and DO-bit fraction."""

from repro.experiments import fig10_dnssec


def test_fig10_dnssec_bandwidth(bench_scale):
    output = fig10_dnssec.run(bench_scale)
    print()
    print(output.render())
    rows = {(row[0], row[1], row[2]): row[3] for row in output.rows}

    base = rows[("72.3%", 2048, "normal")]
    full_do = rows[("100%", 2048, "normal")]
    small_key = rows[("72.3%", 1024, "normal")]
    rollover = rows[("72.3%", 2048, "rollover")]

    # Paper: +31 % going from 72.3 % to 100 % DO at the 2048-bit ZSK.
    do_increase = full_do / base - 1
    assert 0.12 < do_increase < 0.55, do_increase

    # Paper: +32 % going from 1024- to 2048-bit ZSK.
    key_increase = base / small_key - 1
    assert 0.15 < key_increase < 0.55, key_increase

    # Rollover publishes an extra ZSK: never cheaper than normal.
    assert rollover >= base * 0.999

    # Ordering across the six bars matches the figure.
    assert rows[("100%", 1024, "normal")] > small_key
    assert rows[("100%", 2048, "normal")] > rows[("100%", 1024, "normal")]

    # Future work (§5.1): the 4096-bit ZSK rows extend the sweep; the
    # step up from 2048 should be at least as large as 1024→2048.
    if ("100%", 4096, "normal") in rows:
        assert rows[("100%", 4096, "normal")] > full_do * 1.15
