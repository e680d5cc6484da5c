"""Differential + accuracy tests for telemetry on the replay pipeline.

The subsystem's contract is *observation only*: a replay with full
tracing, metrics, and sampling enabled must produce byte-identical
response streams and identical ``ReplayResult`` statistics to the same
replay with telemetry off — faults included.  On top of that, what it
records must be accurate: spans covering >= 99% of answered queries,
a Chrome-loadable timeline, and latency quantiles within one histogram
bucket of the exact per-query percentiles.
"""

import dataclasses
import json

import pytest

from repro.experiments.fig6_timing import wildcard_example_zone
from repro.experiments.topology import build_evaluation_topology
from repro.netsim import FaultInjector, FaultPlan, FaultSpec, RetryPolicy
from repro.replay import (DistributedConfig, ProcessTopology, QuerierConfig,
                          ReplayConfig, SimReplayEngine,
                          UdpEchoServerProcess)
from repro.server import AuthoritativeServer, HostedDnsServer
from repro.telemetry import Telemetry, TelemetryConfig, chrome_trace
from repro.trace import (Trace, fixed_interval_trace, percentile,
                         table1_synthetic)
from repro.verify import Observation, Oracle

QUERY_COUNT = 300  # syn-1 at 0.1 s intervals for 30 s

FULL_ON = TelemetryConfig(trace=True, metrics=True, timeseries_period=2.0)


def run_syn1(telemetry=None, faults=False, batch_window=None,
             batch_sends=True, rate=50000.0, crash_at=None, passes=1,
             work=None, capture=True):
    """One fast syn-1 replay, of ``passes`` copies of the trace back to
    back; returns (result, server response wires).  A ``work`` dict
    receives the server's decodes and the loop's events.  With
    ``capture`` off the server host has no capture hook and no wires
    are collected."""
    testbed = build_evaluation_topology()
    server = AuthoritativeServer.single_view([wildcard_example_zone()])
    hosted = HostedDnsServer(testbed.server_host, server,
                             telemetry=telemetry)
    wires = []
    if capture:
        testbed.server_host.capture_hooks.append(
            lambda direction, packet: wires.append(packet.segment.data)
            if direction == "out" and packet.protocol == "udp" else None)
    retry = None
    if faults:
        # A lossy window covering the whole (fast, time-compressed) run
        # plus the retry budget to ride it out: the recovery path
        # (timeouts, re-sends) must trace identically.
        FaultInjector(testbed.network, FaultPlan([
            FaultSpec("loss", start=0.0, duration=120.0, rate=0.3)]),
            seed=7)
        retry = RetryPolicy(udp_timeout=0.5, max_retries=4)
    if crash_at is not None:
        FaultInjector(testbed.network, FaultPlan([
            FaultSpec("crash", start=crash_at, duration=60.0,
                      host="client-1")]))
    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(track_timing=False, fast_replay_rate=rate,
                     batch_window=batch_window, batch_sends=batch_sends,
                     querier=QuerierConfig(retry=retry)),
        telemetry=telemetry)
    trace = table1_synthetic("syn-1", duration=30.0, server="10.0.0.2")
    assert len(trace.records) == QUERY_COUNT
    trace = Trace([dataclasses.replace(record, timestamp=record.timestamp
                                       + 30.0 * copy)
                   for copy in range(passes) for record in trace.records])
    result = engine.replay(trace, extra_time=10.0)
    if telemetry is not None:
        telemetry.stop()
    if work is not None:
        work["decodes"] = hosted.perf.count("hosting.decodes")
        work["events"] = testbed.network.loop.events_processed
    return result, wires


def result_facts(result):
    return {
        "sent": [(q.index, q.qname, q.sent_at, q.answered_at,
                  q.retries, q.timeouts) for q in result.sent],
        "failures": result.failure_counts(),
        "degradation": result.degradation(),
    }


def observe_syn1(telemetry_factory, **config):
    """Runner for the inertness oracle: the workload is the ``faults``
    flag, the observation is every response wire plus result facts."""
    def runner(faults):
        result, wires = run_syn1(telemetry_factory(), faults=faults,
                                 **config)
        return Observation.capture(wires, facts=result_facts(result))
    return runner


class TestTelemetryIsInert:
    @pytest.mark.parametrize("faults", [False, True],
                             ids=["clean", "faulty"])
    def test_full_telemetry_changes_nothing(self, faults):
        # Baseline: telemetry off.  Candidate: everything on.  The
        # response stream and the ReplayResult must not move by a byte.
        Oracle("telemetry-inert",
               baseline=observe_syn1(lambda: None),
               candidate=observe_syn1(lambda: Telemetry(FULL_ON))
               ).check(faults)

    def test_telemetry_inert_through_batched_path(self):
        # Same inertness contract on the batched datagram path: with
        # send times quantized into batch windows, telemetry-on must
        # still not move the response stream or the result by a byte.
        # (A traced querier sends through the same batch path, calling
        # its send hook per entry, so both runs batch alike.)
        window = 2.5e-4
        Oracle("telemetry-inert-batched",
               baseline=observe_syn1(lambda: None, batch_window=window),
               candidate=observe_syn1(lambda: Telemetry(FULL_ON),
                                      batch_window=window)
               ).check(False)

    @pytest.mark.parametrize("rate, crash_at", [
        (50000.0, None),
        # ≈ 43 records per send instant, the density sim-hot runs at.
        (200000.0, None),
        # client-1 goes down 3 ms into the 6 ms of sends: its queriers'
        # later records fail over to client-2's.
        (50000.0, 0.503),
    ], ids=["50k", "200k", "crash"])
    def test_batched_sends_change_nothing(self, rate, crash_at):
        # The batch path itself is inert: identical windows, batching
        # on vs off, every query sees the same bytes at the same times.
        # One event sends an instant's records host by host, so the
        # order of datagrams *within* one simulated instant may move
        # (simultaneous events have no defined order): the comparison
        # keys facts by query index and wires as a multiset rather than
        # by emission order.
        window = 2.5e-4
        runs = {}
        for batch_sends in (False, True):
            result, wires = run_syn1(batch_window=window,
                                     batch_sends=batch_sends, rate=rate,
                                     crash_at=crash_at)
            if crash_at is not None:
                assert result.reassigned_queries > 0
            facts = result_facts(result)
            facts["sent"] = sorted(facts["sent"])
            runs[batch_sends] = (sorted(bytes(w) for w in wires), facts)
        assert runs[True] == runs[False]

    def test_telemetry_never_picks_the_path(self):
        # A hub changes what is recorded, never which code runs.  syn-1
        # twice over (600 queries, 300 names): the second pass is
        # answered from the wire cache, and sends share batch instants.
        # Traced and metrics-only runs decode and dispatch exactly what
        # a telemetry-off run does: zero-copy hits, batched sends.
        work = {}
        for name, config in (("off", None),
                             ("metrics", TelemetryConfig(metrics=True)),
                             ("traced", TelemetryConfig(trace=True,
                                                        metrics=True))):
            telemetry = Telemetry(config) if config is not None else None
            work[name] = {}
            run_syn1(telemetry, batch_window=2.5e-4, rate=200000.0,
                     passes=2, work=work[name])
        assert work["off"]["decodes"] == QUERY_COUNT
        assert work["traced"] == work["metrics"] == work["off"]

    def test_capture_hook_never_picks_the_path(self):
        # A host capture hook observes; the hooked server still takes
        # the batch receive path, so the run does exactly the work and
        # computes exactly the facts of an unhooked one.
        runs = {}
        for capture in (True, False):
            work = {}
            result, _wires = run_syn1(batch_window=2.5e-4, rate=200000.0,
                                      passes=2, work=work, capture=capture)
            runs[capture] = (work["events"], work["decodes"],
                             result_facts(result))
        assert runs[True] == runs[False]

    def test_default_config_attaches_nothing(self):
        telemetry = Telemetry()  # all-off defaults
        testbed = build_evaluation_topology()
        server = AuthoritativeServer.single_view([wildcard_example_zone()])
        hosted = HostedDnsServer(testbed.server_host, server,
                                 telemetry=telemetry)
        engine = SimReplayEngine(testbed.network, telemetry=telemetry)
        # No per-query hooks anywhere: the hot paths stay one None check.
        assert hosted.telemetry is None
        assert testbed.network.telemetry is None
        assert all(q.telemetry is None for q in engine.queriers)


class TestTracingAccuracy:
    @pytest.fixture(scope="class")
    def traced(self):
        telemetry = Telemetry(FULL_ON)
        result, _wires = run_syn1(telemetry)
        return telemetry, result

    def test_span_coverage(self, traced):
        telemetry, result = traced
        assert result.answered_fraction() == 1.0
        assert telemetry.coverage(result) >= 0.99

    def test_chrome_trace_valid_and_complete(self, traced):
        telemetry, result = traced
        doc = json.loads(json.dumps(chrome_trace(telemetry)))
        events = doc["traceEvents"]
        begins = [e for e in events if e["ph"] == "b"]
        ends = [e for e in events if e["ph"] == "e"]
        answered = sum(1 for q in result.sent
                       if q.answered_at is not None)
        assert len(begins) == len(ends) == len(result.sent)
        assert len(begins) >= 0.99 * answered
        # Every span carries the query id and sits on a querier lane.
        assert {e["pid"] for e in begins} == {1}
        assert all("id" in e for e in begins)
        # The server and network actors both contributed instants.
        names = {e["name"] for e in events}
        assert "server.recv" in names
        assert "server.respond" in names
        assert "net.transmit_query" in names
        assert "net.transmit_response" in names
        # Sampler columns render as counter tracks.
        counters = {e["name"] for e in events if e["ph"] == "C"}
        assert "replay.queries_sent" in counters

    def test_latency_histogram_matches_result(self, traced):
        telemetry, result = traced
        histogram = telemetry.metrics.histogram("query.latency_s")
        exact = sorted(result.latencies())
        assert histogram.count == len(exact)
        for q in (0.50, 0.99):
            _rep, low, high = histogram.quantile_bounds(q)
            assert low <= percentile(exact, q) <= high

    def test_server_events_attributed(self, traced):
        telemetry, _result = traced
        tracer = telemetry.tracer
        recv = [e for e in tracer.events if e[3] == "server.recv"]
        assert len(recv) == QUERY_COUNT
        assert all(e[2] is not None for e in recv)  # all correlated

    def test_faulty_run_records_fault_verdicts(self):
        telemetry = Telemetry(TelemetryConfig(trace=True))
        result, _wires = run_syn1(telemetry, faults=True)
        kinds = [e for e in telemetry.tracer.events if e[3] == "net.fault"]
        assert kinds
        assert all(e[5] == {"kind": "loss"} for e in kinds)
        # The retry path closed every span it reopened.
        assert result.retries > 0
        assert telemetry.coverage(result) >= 0.99


def run_process_tree(telemetry=None):
    """One small multi-process replay (controller → 2 distributors →
    4 queriers → echo server); returns (topology, result, trace)."""
    trace = fixed_interval_trace(interval=0.004, duration=0.5,
                                 client_count=8)
    config = DistributedConfig(distributors=2, queriers_per_distributor=2,
                               settle_time=0.5)
    with UdpEchoServerProcess() as echo:
        topology = ProcessTopology((echo.address, echo.port), config,
                                   telemetry=telemetry)
        result = topology.replay(trace)
    return topology, result, trace


def process_facts(result):
    """The deterministic face of a multi-process ReplayResult: what was
    sent and what came back.  Wall-clock timings are excluded (two
    healthy runs never schedule to the nanosecond), and so are the
    merge-order-dependent global index and the querier binding — sticky
    assignment keys on querier *registration* order at the distributor,
    which is a process-startup race in any run, telemetry or not."""
    return {
        "sent": sorted((q.source, q.trace_time, q.qname, q.protocol,
                        q.answered_at is not None) for q in result.sent),
        "failures": result.failure_counts(),
        "degradation": result.degradation(),
    }


@pytest.mark.observability
class TestClusterTelemetryIsInert:
    """ISSUE 9: the differential guarantee extends to the whole process
    tree — streaming off means the workers never see a telemetry object
    and the merged result is identical to a telemetry-free run."""

    def test_streaming_off_is_identical_to_no_telemetry(self):
        baseline_topology, baseline, trace = run_process_tree(None)
        # trace=True alone (no stream_period) must not light up the
        # cluster path either: streaming is its own opt-in.
        hub = Telemetry(TelemetryConfig(trace=True))
        candidate_topology, candidate, _ = run_process_tree(hub)
        assert baseline_topology.cluster is None
        assert candidate_topology.cluster is None
        assert process_facts(candidate) == process_facts(baseline)
        assert len(baseline.sent) == len(trace.records)

    def test_streaming_on_aggregate_equals_final_metrics(self):
        """Streamed cumulative counters, merged latest-seq-wins, land on
        exactly the end-of-run merged METRICS values."""
        hub = Telemetry(TelemetryConfig(trace=True, stream_period=0.1))
        topology, result, trace = run_process_tree(hub)
        cluster = topology.cluster
        assert cluster is not None
        streamed = cluster.merged_metrics()
        final = topology.metrics
        for counter in ("replay.records_sent", "replay.records_received",
                        "replay.records_routed"):
            assert streamed.count(counter) == final.count(counter), counter
        assert streamed.count("replay.records_sent") == len(result.sent)
        assert len(result.sent) == len(trace.records)
        # The streamed latency histogram is the final histogram.
        streamed_hist = streamed.histogram("query.latency_s")
        final_hist = final.histogram("query.latency_s")
        assert streamed_hist.count == final_hist.count
        assert streamed_hist.to_state() == final_hist.to_state()


class TestSampledTracing:
    def test_one_in_ten_sampling(self):
        telemetry = Telemetry(TelemetryConfig(trace=True, trace_sample=10))
        result, _wires = run_syn1(telemetry)
        tracer = telemetry.tracer
        expected = len(range(0, QUERY_COUNT, 10))
        assert tracer.spans_begun == expected
        assert telemetry.coverage(result) >= 0.99
        # Unsampled queries must not leak any events.
        qids = {e[2] for e in tracer.events if e[2] is not None}
        assert all(qid % 10 == 0 for qid in qids)
