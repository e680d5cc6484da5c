"""Unit tests for the telemetry subsystem (metrics, tracing, sampling,
exporters) and the zero-query report-renderer regressions."""

import json
import math
import statistics

import pytest
from hypothesis import given, strategies as st

from repro.dns import Edns, Message, Name, RRType
from repro.dns.wire import question_key
from repro.experiments.report import render_failure_counts, render_telemetry
from repro.netsim import (EventLoop, Network, ResourceMonitor,
                          ServerResourceModel)
from repro.perf import PerfCounters
from repro.replay import ReplayResult
from repro.telemetry import (Histogram, MetricsRegistry, QueryTracer,
                             ResourceTimeline, Telemetry, TelemetryConfig,
                             TimeSeriesSampler, chrome_trace, timeseries_csv)
from repro.trace import percentile, quartile_summary


def message_key(message):
    """The correlation key of a decoded Message: the reference that
    :func:`question_key` must match on the message's wire."""
    if not message.question:
        return None
    question = message.question[0]
    return (message.msg_id, question.name.to_wire().lower(),
            int(question.rrtype))


class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.mean() is None
        assert h.quantile(0.5) is None

    def test_quantile_within_one_bucket(self):
        # Exact percentiles must land inside the bucket the histogram
        # reports for the same quantile — the acceptance resolution.
        h = Histogram()
        values = [0.0001 * (i + 1) for i in range(500)]
        for value in values:
            h.observe(value)
        ordered = sorted(values)
        for q in (0.5, 0.9, 0.99):
            bounds = h.quantile_bounds(q)
            assert bounds is not None
            _rep, low, high = bounds
            exact = percentile(ordered, q)
            assert low <= exact <= high

    def test_tiny_values_share_bucket_zero(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(1e-9)
        h.observe(1e-6)
        assert h.buckets() == [(0.0, 1e-6, 3)]

    def test_representative_clamped_to_observed(self):
        h = Histogram()
        h.observe(0.004)
        assert h.quantile(0.5) == pytest.approx(0.004)

    def test_mean_is_exact(self):
        h = Histogram()
        for value in (0.001, 0.002, 0.006):
            h.observe(value)
        assert h.mean() == pytest.approx(0.003)

    def test_merge(self):
        a, b = Histogram(), Histogram()
        for value in (0.001, 0.01):
            a.observe(value)
        b.observe(0.1)
        a.merge(b)
        assert a.count == 3
        assert a.max == pytest.approx(0.1)

    def test_to_dict_is_json_ready(self):
        h = Histogram()
        h.observe(0.005)
        doc = json.loads(json.dumps(h.to_dict()))
        assert doc["count"] == 1
        assert doc["p50"] is not None

    @given(values=st.lists(st.floats(min_value=-1e3, max_value=1e3),
                           max_size=80),
           cuts=st.lists(st.integers(min_value=0, max_value=80),
                         max_size=6))
    def test_observe_many_is_repeated_observe(self, values, cuts):
        """A fold of blocks leaves exactly the state one ``observe`` per
        value leaves, buckets and floating-point sums included; each
        value lands in a bucket whose bounds hold it (to the index's
        1e-9 rounding slack), and ``stddev()`` is the population
        standard deviation."""
        one_by_one, blocked = Histogram(), Histogram()
        for value in values:
            one_by_one.observe(value)
        edges = [0] + sorted(cut for cut in set(cuts)
                             if cut < len(values)) + [len(values)]
        for start, end in zip(edges, edges[1:]):
            blocked.observe_many(values[start:end])
        assert blocked.to_state() == one_by_one.to_state()
        for value in values:
            single = Histogram()
            single.observe(value)
            [(low, high, count)] = single.buckets()
            assert count == 1
            assert value <= high * (1 + 1e-9)
            assert low == 0.0 or value > low * (1 - 1e-9)
        if values:
            assert math.isclose(
                blocked.stddev(), statistics.pstdev(values),
                abs_tol=1e-6 * (1 + max(map(abs, values))))
        else:
            assert blocked.stddev() is None


class TestMetricsRegistry:
    def test_histograms_lazily_created(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.01)
        registry.observe("lat", 0.02)
        assert registry.histogram("lat").count == 2

    def test_snapshot_excludes_histograms(self):
        registry = MetricsRegistry()
        registry.incr("queries")
        registry.observe("lat", 0.01)
        assert registry.snapshot() == {"queries": 1}

    def test_merge_includes_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.observe("lat", 0.01)
        b.observe("lat", 0.02)
        b.incr("queries")
        a.merge(b)
        assert a.histogram("lat").count == 2
        assert a.count("queries") == 1

    def test_state_roundtrip_is_exact(self):
        """to_state/from_state is the cross-process METRICS snapshot;
        unlike to_dict (a summary), it must be lossless."""
        registry = MetricsRegistry()
        registry.incr("queries", 7)
        registry.add_time("replay", 1.25)
        registry.set_gauge("rate", 42.5)
        for value in (1e-7, 0.001, 0.02, 3.5):
            registry.observe("lat", value)
        wire = json.dumps(registry.to_state())   # must be JSON-safe
        restored = MetricsRegistry.from_state(json.loads(wire))
        assert restored.snapshot() == registry.snapshot()
        original, copy = registry.histogram("lat"), restored.histogram("lat")
        assert copy.count == original.count
        assert copy.total == pytest.approx(original.total)
        assert copy.min == original.min
        assert copy.max == original.max
        assert copy.buckets() == original.buckets()
        assert copy.quantile(0.9) == original.quantile(0.9)

    def test_merge_state_folds_worker_snapshot(self):
        worker = MetricsRegistry()
        worker.incr("replay.records_sent", 10)
        worker.observe("query.latency_s", 0.004)
        controller = MetricsRegistry()
        controller.incr("replay.records_sent", 5)
        controller.observe("query.latency_s", 0.002)
        controller.merge_state(json.loads(json.dumps(worker.to_state())))
        assert controller.count("replay.records_sent") == 15
        assert controller.histogram("query.latency_s").count == 2

    def test_histogram_state_roundtrip_empty(self):
        empty = Histogram()
        restored = Histogram.from_state(
            json.loads(json.dumps(empty.to_state())))
        assert restored.count == 0
        assert restored.mean() is None

    def test_perf_counters_is_a_registry(self):
        # The old name is the registry itself: histograms on the same
        # object, and merge takes any registry.
        perf = PerfCounters()
        assert isinstance(perf, MetricsRegistry)
        perf.incr("hits")
        perf.observe("lat", 0.01)
        assert perf.snapshot() == {"hits": 1}
        other = MetricsRegistry()
        other.incr("hits", 2)
        perf.merge(other)
        assert perf.count("hits") == 3


class TestQueryKeys:
    @pytest.mark.parametrize("qname,qtype", [
        ("www.example.com.", RRType.A),
        ("MiXeD.Example.COM.", RRType.AAAA),
        (".", RRType.NS),
        # Names to_text() has to escape: the two keys used to part here.
        ("a b.example.com.", RRType.A),
        ("a\\.b.example.com.", RRType.A),
        ("\\255\\001.com.", RRType.A),
    ])
    def test_wire_key_matches_message_key(self, qname, qtype):
        message = Message.make_query(Name.from_text(qname), qtype,
                                     msg_id=77, edns=Edns())
        wire = message.to_wire()
        key = question_key(wire)
        assert key == message_key(Message.from_wire(wire))
        assert key == (77, Name.from_text(qname.lower()).to_wire(),
                       int(qtype))

    def test_only_the_name_is_lowercased(self):
        """Message id 0x4142 and qtype 65 (HTTPS) are ASCII capitals."""
        wire = bytearray(Message.make_query(
            Name.from_text("SVC.example.com."), RRType.A,
            msg_id=0x4142).to_wire())
        wire[12 + 17:12 + 19] = b"\x00\x41"
        assert question_key(bytes(wire)) == (
            0x4142, b"\x03svc\x07example\x03com\x00", 65)

    def test_malformed_wire(self):
        assert question_key(b"") is None
        assert question_key(b"\x00" * 12) is None  # qdcount 0
        assert question_key(b"\x00" * 11) is None  # short header
        query = Message.make_query(Name.from_text("a.test."),
                                   RRType.A).to_wire()
        assert question_key(query[:17]) is None    # name cut short
        assert question_key(query[:21]) is None    # half a qtype
        assert question_key(
            query[:12] + b"\xc0\x0c" + query[20:]) is None  # pointer

    def test_questionless_message(self):
        message = Message.make_query(Name.from_text("a.test."), RRType.A)
        message.question = []
        assert message_key(message) is None


class TestQueryTracer:
    def test_span_lifecycle(self):
        tracer = QueryTracer()
        tracer.begin(1.0, 3, "query", "querier-0", qname="a.test.")
        tracer.instant(1.1, 3, "server.recv", "server")
        tracer.end(1.2, 3, "query", "querier-0", outcome="answered")
        assert tracer.spans_begun == tracer.spans_ended == 1
        assert [event[1] for event in tracer.events_for(3)] == \
            ["b", "i", "e"]

    def test_double_close_ignored(self):
        tracer = QueryTracer()
        tracer.begin(1.0, 1, "query", "querier-0")
        tracer.end(1.1, 1, "query", "querier-0")
        tracer.end(1.2, 1, "query", "querier-0")
        assert tracer.spans_ended == 1
        assert len(tracer.events) == 2

    def test_sampling_skips_other_qids(self):
        tracer = QueryTracer(sample_every=10)
        for qid in range(20):
            tracer.begin(float(qid), qid, "query", "querier-0")
            tracer.end(float(qid) + 0.5, qid, "query", "querier-0")
        assert tracer.spans_begun == 2  # qids 0 and 10

    def test_coverage_accounts_for_sampling(self):
        tracer = QueryTracer(sample_every=10)
        for qid in (0, 10, 20):
            tracer.begin(0.0, qid, "query", "querier-0")
            tracer.end(1.0, qid, "query", "querier-0")
        assert tracer.coverage(answered=25) == 1.0
        assert tracer.coverage(answered=0) == 1.0

    def test_key_correlation_latest_send_wins(self):
        tracer = QueryTracer()
        key = (5, "a.test.", 1)
        tracer.register_key(key, 7)
        tracer.register_key(key, 9)   # the retry
        assert tracer.qid_for(key) == 9
        assert tracer.qid_for(None) is None
        assert tracer.qid_for((1, "other.", 1)) is None

    def test_event_cap_drops_not_grows(self):
        tracer = QueryTracer(max_events=2)
        for qid in range(5):
            tracer.instant(0.0, qid, "x", "net")
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 3


class TestTimeSeriesSampler:
    def test_matches_resource_monitor_cadence(self):
        # The sampler must tick at exactly the times the old
        # ResourceMonitor sampled, so migrated figure scripts see
        # identical series.
        loop = EventLoop()
        model = ServerResourceModel(loop, cores=4)
        monitor = ResourceMonitor(loop, model, period=5.0)
        monitor.start()
        sampler = TimeSeriesSampler(loop, period=5.0)
        timeline = ResourceTimeline(sampler, model)
        sampler.start()
        loop.run_until(26.0)
        monitor.stop()
        sampler.stop()
        assert [s.time for s in monitor.samples] == \
            [s.time for s in timeline.samples]
        assert [row["time"] for row in sampler.points] == \
            [s.time for s in monitor.samples]

    def test_probe_columns_and_rates(self):
        loop = EventLoop()
        sampler = TimeSeriesSampler(loop, period=1.0)
        counter = {"sent": 0}
        loop.call_at(0.5, counter.__setitem__, "sent", 10)
        loop.call_at(1.5, counter.__setitem__, "sent", 30)
        sampler.add_probe("sent", lambda: counter["sent"])
        sampler.start()
        loop.run_until(2.5)
        sampler.stop()
        assert sampler.series("sent") == [(1.0, 10), (2.0, 30)]
        assert sampler.columns() == ["time", "sent"]

    def test_stop_cancels_future_ticks(self):
        loop = EventLoop()
        sampler = TimeSeriesSampler(loop, period=1.0)
        sampler.start()
        loop.run_until(1.5)
        sampler.stop()
        loop.run_until(5.0)
        assert len(sampler.points) == 1

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeriesSampler(EventLoop(), period=0.0)

    def test_steady_state_skips_warmup(self):
        loop = EventLoop()
        model = ServerResourceModel(loop, cores=4)
        sampler = TimeSeriesSampler(loop, period=10.0)
        timeline = ResourceTimeline(sampler, model)
        sampler.start()
        loop.run_until(101.0)
        sampler.stop()
        steady = timeline.steady_state(skip=50.0)
        assert steady and steady[0].time >= timeline.samples[0].time + 50.0
        assert ResourceTimeline(sampler, model).steady_state() == []


class TestTelemetryHub:
    def test_defaults_record_nothing(self):
        telemetry = Telemetry()
        assert not telemetry.config.enabled()
        assert not telemetry.per_query
        assert telemetry.tracer is None
        loop = EventLoop()
        telemetry.attach_loop(loop)
        assert telemetry.sampler is None
        network = Network(loop)
        telemetry.attach_network(network)
        assert network.telemetry is None

    def test_tracing_attaches_to_network(self):
        loop = EventLoop()
        network = Network(loop)
        telemetry = Telemetry(TelemetryConfig(trace=True))
        telemetry.attach_network(network)
        assert network.telemetry is telemetry

    def test_clock_follows_loop(self):
        telemetry = Telemetry()
        loop = EventLoop()
        telemetry.attach_loop(loop)
        loop.run_until(3.5)
        assert telemetry.now() == loop.now


class TestExporters:
    def _traced_telemetry(self):
        telemetry = Telemetry(TelemetryConfig(trace=True, metrics=True,
                                              timeseries_period=1.0))
        loop = EventLoop()
        telemetry.attach_loop(loop)
        telemetry.add_probe("qps", lambda: 42.0)
        tracer = telemetry.tracer
        tracer.begin(0.5, 0, "query", "querier-3", qname="a.test.")
        tracer.instant(0.6, 0, "server.recv", "server")
        tracer.instant(0.65, None, "net.fault", "net", kind="loss")
        tracer.end(0.7, 0, "query", "querier-3", outcome="answered")
        loop.run_until(2.5)
        telemetry.stop()
        return telemetry

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._traced_telemetry())
        json.loads(json.dumps(doc))  # serializable
        events = doc["traceEvents"]
        phases = [event["ph"] for event in events]
        assert phases.count("b") == phases.count("e") == 1
        assert "M" in phases and "C" in phases
        begin = next(e for e in events if e["ph"] == "b")
        assert begin["ts"] == pytest.approx(0.5e6)  # microseconds
        assert begin["pid"] == 1 and begin["tid"] == 3
        server_evt = next(e for e in events if e["name"] == "server.recv")
        assert server_evt["ph"] == "n" and server_evt["pid"] == 2
        fault = next(e for e in events if e["name"] == "net.fault")
        assert fault["ph"] == "i" and fault["s"] == "p"
        assert "id" not in fault

    def test_timeseries_csv(self):
        telemetry = self._traced_telemetry()
        csv = timeseries_csv(telemetry.sampler)
        lines = csv.strip().splitlines()
        assert lines[0] == "time,qps"
        assert lines[1] == "1,42"

    def test_render_telemetry(self):
        text = render_telemetry(self._traced_telemetry())
        assert "trace.spans_ended" in text
        assert "timeseries: 2 samples" in text
        assert render_telemetry(Telemetry()) == \
            "(telemetry off: nothing recorded)"

    def test_render_telemetry_recovery_section(self):
        result = ReplayResult()
        result.respawns = 2
        result.redelivered_records = 40
        result.duplicate_merged = 3
        text = render_telemetry(self._traced_telemetry(), result)
        assert "recovery.respawns             2" in text
        assert "recovery.redelivered_records" in text
        assert "recovery.duplicate_merged" in text
        # Counters that never moved are omitted, and a clean run adds
        # no recovery section at all.
        assert "recovery.workers_lost" not in text
        clean = render_telemetry(self._traced_telemetry(), ReplayResult())
        assert "recovery." not in clean


class TestZeroQueryReports:
    """Every renderer must stay well-defined on a run that sent nothing."""

    def test_failure_and_degradation_renderers(self):
        result = ReplayResult()
        assert "unanswered" in render_failure_counts(result)
        assert "servfails_observed" in result.degradation()

    def test_quartile_summary_empty(self):
        summary = quartile_summary([])
        assert summary["median"] == 0.0
        assert set(summary) == {"min", "p5", "p25", "median", "p75",
                                "p95", "max"}

    def test_error_summary_empty(self):
        assert ReplayResult().error_summary() == {}
