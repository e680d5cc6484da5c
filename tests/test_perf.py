"""Tests for the counter registry (repro.telemetry.MetricsRegistry)."""

from repro.telemetry import MetricsRegistry


class TestCounters:
    def test_incr_and_count(self):
        perf = MetricsRegistry()
        assert perf.count("x") == 0
        perf.incr("x")
        perf.incr("x", 4)
        assert perf.count("x") == 5

    def test_counters_are_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.incr("x")
        assert b.count("x") == 0


class TestTimings:
    def test_timed_accumulates(self):
        perf = MetricsRegistry()
        with perf.timed("phase"):
            pass
        first = perf.seconds("phase")
        assert first >= 0.0
        with perf.timed("phase"):
            pass
        assert perf.seconds("phase") >= first

    def test_timed_records_on_exception(self):
        perf = MetricsRegistry()
        try:
            with perf.timed("phase"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert "phase_s" in perf.snapshot()

    def test_add_time_direct(self):
        perf = MetricsRegistry()
        perf.add_time("run", 1.5)
        perf.add_time("run", 0.5)
        assert perf.seconds("run") == 2.0


class TestGauges:
    def test_set_and_read(self):
        perf = MetricsRegistry()
        assert perf.gauge("qps") is None
        perf.set_gauge("qps", 100.0)
        perf.set_gauge("qps", 200.0)  # last write wins
        assert perf.gauge("qps") == 200.0


class TestAggregation:
    def test_snapshot_flattens_with_suffix(self):
        perf = MetricsRegistry()
        perf.incr("queries", 3)
        perf.add_time("run", 1.0)
        perf.set_gauge("qps", 3.0)
        snap = perf.snapshot()
        assert snap == {"queries": 3, "run_s": 1.0, "qps": 3.0}

    def test_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.incr("x", 1)
        b.incr("x", 2)
        b.add_time("run", 0.5)
        b.set_gauge("qps", 7.0)
        a.merge(b)
        assert a.count("x") == 3
        assert a.seconds("run") == 0.5
        assert a.gauge("qps") == 7.0

    def test_reset(self):
        perf = MetricsRegistry()
        perf.incr("x")
        perf.add_time("run", 1.0)
        perf.set_gauge("qps", 1.0)
        perf.reset()
        assert perf.snapshot() == {}
