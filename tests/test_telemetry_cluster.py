"""Cluster-wide live observability: streamer, aggregator, trace merge.

Unit-level coverage of :mod:`repro.telemetry.cluster` (flight recorder
ring semantics, latest-seq-wins aggregation, clock alignment, the
``ldplayer top`` renderer and the merged Chrome trace) plus the ISSUE
acceptance run: a 4-querier process topology with one querier SIGKILLed
mid-replay must yield a single clock-aligned merged trace containing
spans from every worker — including the victim's flight-recorder tail —
and live windowed q/s snapshots captured *during* the run.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.replay import (DistributedConfig, ProcessTopology,
                          RecoveryConfig, ROLE_DISTRIBUTOR, ROLE_QUERIER,
                          UdpEchoServerProcess, conservation_violations)
from repro.telemetry import MetricsRegistry, Telemetry, TelemetryConfig
from repro.telemetry.cluster import (ClusterAggregator, ClusterConsole,
                                     FlightRecorder, TelemetryStreamer,
                                     WorkerView)
from repro.trace import fixed_interval_trace


def frame(worker=0, incarnation=0, seq=1, role=ROLE_QUERIER, mono=10.0,
          **extra):
    payload = {"role": role, "worker": worker, "incarnation": incarnation,
               "seq": seq, "mono": mono}
    payload.update(extra)
    return payload


class TestFlightRecorder:
    def test_ring_is_bounded_and_ordered(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(10):
            recorder.record_span((float(i), "b", i, "query", "t", None))
            recorder.log(f"line {i}", ts=float(i))
        tail = recorder.tail()
        assert [event[0] for event in tail["spans"]] == [7.0, 8.0, 9.0]
        assert [entry[1] for entry in tail["log"]] == \
            ["line 7", "line 8", "line 9"]

    def test_tail_is_a_snapshot(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record_span((0.0, "b", 1, "query", "t", None))
        tail = recorder.tail()
        recorder.record_span((1.0, "e", 1, "query", "t", None))
        assert len(tail["spans"]) == 1  # unaffected by later appends


class TestWorkerView:
    def test_stale_seq_is_rejected(self):
        view = WorkerView(ROLE_QUERIER, 0, 0)
        assert view.update(frame(seq=3), recv_mono=100.0)
        assert not view.update(frame(seq=3), recv_mono=101.0)
        assert not view.update(frame(seq=2), recv_mono=102.0)
        assert view.frames == 1 and view.last_seq == 3

    def test_offset_prefers_time_sync_anchor(self):
        view = WorkerView(ROLE_QUERIER, 0, 0)
        view.update(frame(seq=1, mono=50.0, sync_mono=49.0),
                    recv_mono=100.0)
        # anchor - sync_mono: exact, no network skew in it.
        assert view.offset(anchor=60.0) == pytest.approx(11.0)

    def test_offset_falls_back_to_min_skew(self):
        view = WorkerView(3, 0, 0)   # shards never see TIME_SYNC
        view.update(frame(seq=1, role=3, mono=50.0), recv_mono=100.5)
        view.update(frame(seq=2, role=3, mono=51.0), recv_mono=101.2)
        # NTP-style: the smallest observed (recv - send) bounds the skew.
        assert view.offset(anchor=None) == pytest.approx(50.2)

    def test_window_rate_from_cumulative_counts(self):
        view = WorkerView(ROLE_QUERIER, 0, 0)
        for tick in range(5):
            view.update(frame(seq=tick + 1, mono=float(tick),
                              health={"records_sent": 100 * tick}),
                        recv_mono=float(tick))
        assert view.window_rate(window=2.0, now=4.0) == pytest.approx(100.0)


class TestTelemetryStreamer:
    def run_streamer(self, sent, ticks=3, **kwargs):
        streamer = TelemetryStreamer(sent.append, ROLE_QUERIER, 1, 0,
                                     period=1.0, **kwargs)
        for _ in range(ticks):
            streamer.flush()
        return streamer

    def test_seq_increases_and_metrics_are_cumulative(self):
        registry = MetricsRegistry()
        sent = []
        streamer = TelemetryStreamer(
            sent.append, ROLE_QUERIER, 1, 0, period=1.0,
            metrics_snapshot=registry.to_state)
        registry.incr("replay.records_sent", 5)
        streamer.flush()
        registry.incr("replay.records_sent", 5)
        streamer.flush(final=True)
        assert [report["seq"] for report in sent] == [1, 2]
        assert sent[0]["metrics"]["counts"]["replay.records_sent"] == 5
        assert sent[1]["metrics"]["counts"]["replay.records_sent"] == 10
        assert sent[1]["final"] is True and "final" not in sent[0]

    def test_spans_ship_incrementally_ring_ships_whole(self):
        class Tracer:
            events = []
        tracer = Tracer()
        recorder = FlightRecorder(capacity=8)
        sent = []
        streamer = TelemetryStreamer(sent.append, ROLE_QUERIER, 1, 0,
                                     period=1.0, tracer=tracer,
                                     recorder=recorder)
        tracer.events.append((0.1, "b", 1, "query", "t", None))
        recorder.record_span(tracer.events[-1])
        streamer.flush()
        tracer.events.append((0.2, "e", 1, "query", "t", None))
        recorder.record_span(tracer.events[-1])
        streamer.flush()
        assert len(sent[0]["spans"]) == 1
        assert len(sent[1]["spans"]) == 1      # only the new event
        assert len(sent[1]["ring"]["spans"]) == 2  # ring: current tail

    def test_send_failure_never_raises(self):
        def broken(report):
            raise OSError("peer gone")
        streamer = TelemetryStreamer(broken, ROLE_QUERIER, 1, 0,
                                     period=1.0)
        assert streamer.flush() is False
        assert streamer.frames_failed == 1

    def test_raising_closures_skip_their_sections(self):
        def bad():
            raise RuntimeError("mid-mutation")
        sent = []
        self.run_streamer(sent, ticks=1, metrics_snapshot=bad, health=bad,
                          sync_mono=bad)
        report = sent[0]
        assert "metrics" not in report
        assert "sync_mono" not in report
        assert set(report["health"]) == {"rss_kb"}   # built-in gauge stays

    def test_health_filters_non_numbers(self):
        sent = []
        self.run_streamer(
            sent, ticks=1,
            health=lambda: {"queue_depth": 4, "alive": True, "gone": None})
        assert sent[0]["health"]["queue_depth"] == 4
        assert "alive" not in sent[0]["health"]
        assert "gone" not in sent[0]["health"]


class TestClusterAggregator:
    def test_latest_seq_wins_per_incarnation(self):
        cluster = ClusterAggregator()
        registry = MetricsRegistry()
        registry.incr("replay.records_sent", 10)
        assert cluster.ingest(frame(seq=1, metrics=registry.to_state()),
                              recv_mono=1.0)
        registry.incr("replay.records_sent", 10)
        assert cluster.ingest(frame(seq=2, metrics=registry.to_state()),
                              recv_mono=2.0)
        # A replayed (late, duplicated) frame does not regress the view.
        stale = MetricsRegistry()
        stale.incr("replay.records_sent", 3)
        assert not cluster.ingest(frame(seq=1, metrics=stale.to_state()),
                                  recv_mono=3.0)
        assert cluster.frames_ingested == 2 and cluster.frames_stale == 1
        assert cluster.merged_metrics().count("replay.records_sent") == 20

    def test_incarnations_merge_as_separate_workers(self):
        cluster = ClusterAggregator()
        first = MetricsRegistry()
        first.incr("replay.records_sent", 30)
        second = MetricsRegistry()
        second.incr("replay.records_sent", 70)
        cluster.ingest(frame(seq=5, incarnation=0,
                             metrics=first.to_state()), recv_mono=1.0)
        cluster.ingest(frame(seq=2, incarnation=1,
                             metrics=second.to_state()), recv_mono=2.0)
        # inc0 died at 30; inc1's cumulative 70 adds, never replaces.
        assert cluster.merged_metrics().count("replay.records_sent") == 100
        assert len(cluster.workers()) == 2

    def test_crash_report_freezes_flight_recorder(self):
        cluster = ClusterAggregator()
        cluster.ingest(frame(
            seq=1,
            ring={"spans": [[0.5, "b", 9, "query", "t", None]],
                  "log": [[0.4, "querier-0 inc0 up"]]}), recv_mono=1.0)
        report = cluster.record_crash(ROLE_QUERIER, 0, 0,
                                      reason="process died")
        assert report["flight_recorder"]["spans"] == \
            [[0.5, "b", 9, "query", "t", None]]
        assert report["flight_recorder"]["log"] == \
            [[0.4, "querier-0 inc0 up"]]
        # Idempotent: the respawn path and the reader EOF path may race.
        again = cluster.record_crash(ROLE_QUERIER, 0, 0)
        assert len(cluster.crash_reports()) == 1
        assert again["reason"] == "process died"

    def test_render_top_marks_crashes(self):
        cluster = ClusterAggregator()
        cluster.ingest(frame(seq=1, health={"records_sent": 12}),
                       recv_mono=1.0)
        cluster.record_crash(ROLE_QUERIER, 0, 0, reason="watchdog stall")
        text = cluster.render_top()
        assert "querier-0" in text and "CRASHED" in text
        assert "watchdog stall" in text
        assert "flight recorder" in text

    def test_snapshot_and_csv_shapes(self):
        cluster = ClusterAggregator()
        cluster.ingest(frame(seq=1, health={"rss_kb": 1024.0}),
                       recv_mono=1.0)
        snapshot = cluster.snapshot()
        assert snapshot["frames_ingested"] == 1
        assert snapshot["workers"][0]["worker"] == "querier-0"
        json.dumps(snapshot)   # JSON-ready end to end
        csv = cluster.workers_csv().splitlines()
        assert csv[0].startswith("worker,incarnation,frames")
        assert csv[1].startswith("querier-0,0,1")

    def test_chrome_trace_rebases_onto_controller_clock(self):
        cluster = ClusterAggregator()
        cluster.set_anchor(100.0)
        # Worker clock: sync received at its mono 40.0 → offset +60.
        cluster.ingest(frame(
            seq=1, mono=41.0, sync_mono=40.0,
            spans=[[41.5, "b", 1, "query", "querier-0", None]]),
            recv_mono=101.1)
        doc = cluster.chrome_trace()
        spans = [e for e in doc["traceEvents"] if e["ph"] == "b"]
        # 41.5 + 60 - 100 = 1.5 s after the TIME_SYNC broadcast.
        assert spans[0]["ts"] == pytest.approx(1.5e6)

    def test_chrome_trace_dedups_ring_against_streamed_spans(self):
        cluster = ClusterAggregator()
        streamed = [0.1, "b", 1, "query", "t", None]
        unshipped = [0.2, "e", 1, "query", "t", None]
        cluster.ingest(frame(
            seq=1, spans=[streamed],
            ring={"spans": [streamed, unshipped], "log": []}),
            recv_mono=1.0)
        doc = cluster.chrome_trace()
        phases = [e["ph"] for e in doc["traceEvents"]
                  if e.get("cat") == "query"]
        assert sorted(phases) == ["b", "e"]   # ring overlap merged once

    def test_console_collects_frames(self):
        cluster = ClusterAggregator()
        cluster.ingest(frame(seq=1), recv_mono=1.0)
        console = ClusterConsole(cluster, interval=10.0, stream=None)
        console.stop()   # never started: still emits the final frame
        assert len(console.frames) == 1
        assert "cluster" in console.frames[0]


def streaming_config(distributors=2, queriers=2, recovery=False):
    return DistributedConfig(
        distributors=distributors, queriers_per_distributor=queriers,
        settle_time=0.5,
        recovery=RecoveryConfig() if recovery else None)


@pytest.mark.observability
class TestClusterStreamingEndToEnd:
    def test_all_workers_stream_and_align(self):
        """Clean 2x2 process run: every worker streams frames, clocks
        align within tens of milliseconds, and the merged trace carries
        spans from every querier."""
        trace = fixed_interval_trace(interval=0.004, duration=0.8,
                                     client_count=16)
        hub = Telemetry(TelemetryConfig(trace=True, stream_period=0.1))
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       streaming_config(), telemetry=hub)
            result = topology.replay(trace)
        cluster = topology.cluster
        assert cluster is not None
        views = cluster.workers()
        assert {v.name for v in views} == {
            "distributor-0", "distributor-1",
            "querier-0", "querier-1", "querier-2", "querier-3"}
        assert all(v.frames >= 2 for v in views)
        anchor = result.start_clock
        for view in views:
            offset = view.offset(anchor)
            assert offset is not None and abs(offset) < 0.05
        # Aggregate streamed counters equal the end-of-run METRICS merge.
        merged = cluster.merged_metrics()
        assert merged.count("replay.records_sent") == len(result.sent)
        assert merged.count("replay.records_sent") == \
            topology.metrics.count("replay.records_sent")
        doc = cluster.chrome_trace()
        tracks = {e["args"]["name"] for e in doc["traceEvents"]
                  if e.get("name") == "process_name"}
        assert {"querier-0 inc0", "querier-1 inc0", "querier-2 inc0",
                "querier-3 inc0"} <= tracks
        span_pids = {e["pid"] for e in doc["traceEvents"]
                     if e["ph"] in ("b", "e")}
        querier_pids = {pid for pid, view in
                        enumerate(cluster.workers(), start=1)
                        if view.role == ROLE_QUERIER}
        assert querier_pids <= span_pids

    @pytest.mark.parametrize("stream_period", [None, 0.1])
    def test_bare_telemetry_config_completes(self, stream_period):
        """A TelemetryConfig without a hub around it has no registry to
        fold the merged worker metrics into: the run still completes,
        and the cluster view exists exactly when the config streams."""
        trace = fixed_interval_trace(interval=0.004, duration=0.4,
                                     client_count=8)
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology(
                (echo.address, echo.port),
                streaming_config(distributors=1),
                telemetry=TelemetryConfig(stream_period=stream_period))
            result = topology.replay(trace)
        assert len(result.sent) == len(trace.records)
        assert topology.metrics.count("replay.records_sent") \
            == len(trace.records)
        if stream_period is None:
            assert topology.cluster is None
        else:
            assert {v.name for v in topology.cluster.workers()} == {
                "distributor-0", "querier-0", "querier-1"}

    @pytest.mark.chaos
    def test_sigkill_victim_survives_in_merged_trace(self):
        """ISSUE 9 acceptance: 4-querier topology, one SIGKILL. The
        merged Chrome trace is clock-aligned and contains spans from all
        workers including the killed worker's flight-recorder tail; live
        windowed q/s snapshots were observable during the run; the
        replay itself still conserves every record."""
        trace = fixed_interval_trace(interval=0.002, duration=1.2,
                                     client_count=16)
        hub = Telemetry(TelemetryConfig(trace=True, stream_period=0.05))
        live_snapshots = []
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology(
                (echo.address, echo.port),
                streaming_config(recovery=True), telemetry=hub)

            def assassin():
                time.sleep(0.45)
                handle = topology.querier_handles[0]
                if handle.pid is not None:
                    os.kill(handle.pid, signal.SIGKILL)
                # Live view: sample the aggregator while the replay is
                # still in flight.
                deadline = time.monotonic() + 0.6
                while time.monotonic() < deadline:
                    if topology.cluster is not None:
                        live_snapshots.append(topology.cluster.snapshot())
                    time.sleep(0.1)

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            result = topology.replay(trace)
            killer.join(timeout=2.0)

        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns == 1
        cluster = topology.cluster
        victim_id = topology.querier_handles[0].worker_id

        # The crash was observed and its flight recorder frozen.
        crashes = cluster.crash_reports()
        assert len(crashes) == 1
        assert crashes[0]["worker"] == f"querier-{victim_id}"
        assert crashes[0]["flight_recorder"]["spans"]

        # Both of the victim's lives, plus every survivor, are tracks in
        # the one merged trace — and each track carries span events.
        doc = cluster.chrome_trace()
        tracks = {e["args"]["name"]: e["pid"]
                  for e in doc["traceEvents"]
                  if e.get("name") == "process_name"}
        assert f"querier-{victim_id} inc0 (crashed)" in tracks
        assert f"querier-{victim_id} inc1" in tracks
        for worker_id in range(4):
            assert any(name.startswith(f"querier-{worker_id} ")
                       for name in tracks)
        span_pids = {e["pid"] for e in doc["traceEvents"]
                     if e["ph"] in ("b", "e")}
        assert tracks[f"querier-{victim_id} inc0 (crashed)"] in span_pids
        assert tracks[f"querier-{victim_id} inc1"] in span_pids

        # All spans landed on one controller-aligned clock: rebased
        # timestamps sit inside the run's (generous) wall window.
        stamps = [e["ts"] for e in doc["traceEvents"]
                  if e["ph"] in ("b", "e")]
        assert stamps and min(stamps) > -1e6
        assert max(stamps) < 30e6

        # Live q/s was visible while the run was still going.
        assert live_snapshots
        assert any(snap["total_qps_window"] > 0 for snap in live_snapshots)
        assert any(row["qps_window"]
                   for snap in live_snapshots
                   for row in snap["workers"]
                   if row["role"] == "querier" and row["qps_window"])
