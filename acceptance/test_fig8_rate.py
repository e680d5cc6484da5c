"""Figure 8: per-second rate difference between replay and original."""

from repro.experiments import fig8_rate


def test_fig8_query_rate_accuracy(bench_scale):
    output = fig8_rate.run(bench_scale, trials=5)
    print()
    print(output.render())
    assert len(output.rows) == 5
    for row in output.rows:
        _trial, seconds, tight, loose, worst = row
        assert seconds >= 30
        # Paper: 95-99 % of seconds within ±0.1 %.  At the sampled rate a
        # single query is >0.1 % of a second's count, so quantization
        # loosens the tight bound; the ±2 % envelope must hold broadly.
        assert tight > 0.5
        assert loose > 0.85
        assert abs(worst) < 0.10
    mean_tight = sum(row[2] for row in output.rows) / len(output.rows)
    assert mean_tight > 0.65
