"""Telemetry overhead budget: tracing a syn-1 replay must stay cheap.

Replays the syn-1 synthetic trace (Table 1) through the simulated
pipeline three times — telemetry absent, an all-defaults hub attached,
and the full observability stack (lifecycle tracing + histograms +
sampler) — and records the wall-clock cost of each into the
``--bench-json`` report.  The budget assertions gate the PR: an
attached-but-idle hub must be within noise of no hub at all, and full
tracing must cost less than 2x the untraced wall time.
"""

from __future__ import annotations

import time

import pytest

from conftest import run_once

from repro.experiments.fig6_timing import wildcard_example_zone
from repro.experiments.topology import build_evaluation_topology
from repro.replay import (DistributedConfig, ProcessTopology, ReplayConfig,
                          SimReplayEngine, UdpEchoServerProcess)
from repro.server import AuthoritativeServer, HostedDnsServer
from repro.telemetry import Telemetry, TelemetryConfig, chrome_trace
from repro.trace import fixed_interval_trace, table1_synthetic

DURATION = 600.0      # syn-1 at 0.1 s intervals => 6000 queries
QUERY_COUNT = 6000


def _replay_syn1(telemetry):
    testbed = build_evaluation_topology()
    server = AuthoritativeServer.single_view([wildcard_example_zone()])
    HostedDnsServer(testbed.server_host, server, telemetry=telemetry)
    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(track_timing=False, fast_replay_rate=200000.0),
        telemetry=telemetry)
    trace = table1_synthetic("syn-1", duration=DURATION, server="10.0.0.2")
    started = time.perf_counter()
    result = engine.replay(trace, extra_time=5.0)
    wall = time.perf_counter() - started
    if telemetry is not None:
        telemetry.stop()
    assert len(result) == QUERY_COUNT
    assert result.answered_fraction() == 1.0
    return {"wall_s": wall, "qps": QUERY_COUNT / wall, "result": result}


@pytest.mark.benchmark
def test_telemetry_budget(benchmark, bench_json_record):
    off = run_once(benchmark, _replay_syn1, None)
    idle_hub = _replay_syn1(Telemetry())  # defaults: records nothing
    full = Telemetry(TelemetryConfig(trace=True, metrics=True,
                                     timeseries_period=10.0))
    traced = _replay_syn1(full)

    ratio_traced = traced["wall_s"] / off["wall_s"]
    ratio_idle = idle_hub["wall_s"] / off["wall_s"]
    coverage = full.coverage(traced["result"])
    events = len(full.tracer.events)
    print()
    print(f"syn-1 x{QUERY_COUNT}: {off['qps']:.0f} q/s off, "
          f"{idle_hub['qps']:.0f} q/s idle hub (x{ratio_idle:.2f}), "
          f"{traced['qps']:.0f} q/s traced (x{ratio_traced:.2f}, "
          f"{events} events, coverage {coverage:.3f})")

    bench_json_record(
        "telemetry_budget_syn1",
        queries=QUERY_COUNT,
        off_qps=round(off["qps"], 1),
        idle_hub_qps=round(idle_hub["qps"], 1),
        traced_qps=round(traced["qps"], 1),
        idle_hub_ratio=round(ratio_idle, 3),
        traced_ratio=round(ratio_traced, 3),
        trace_events=events,
        span_coverage=round(coverage, 4),
    )

    # Budget gates: full tracing under 2x, an idle hub within noise.
    assert ratio_traced < 2.0
    assert ratio_idle < 1.25
    assert coverage >= 0.99
    # And the traced run exports a loadable timeline.
    doc = chrome_trace(full)
    assert sum(1 for e in doc["traceEvents"] if e["ph"] == "b") \
        == QUERY_COUNT


STREAM_DURATION = 1.0    # wall-paced: the replay itself takes this long
STREAM_QUERIES = 500     # 16 clients at 2 ms intervals


def _replay_processes(telemetry):
    trace = fixed_interval_trace(interval=0.002, duration=STREAM_DURATION,
                                 client_count=16)
    assert len(trace.records) == STREAM_QUERIES
    config = DistributedConfig(distributors=2, queriers_per_distributor=2,
                               settle_time=0.5)
    with UdpEchoServerProcess() as echo:
        topology = ProcessTopology((echo.address, echo.port), config,
                                   telemetry=telemetry)
        started = time.perf_counter()
        result = topology.replay(trace)
        wall = time.perf_counter() - started
    assert len(result.sent) == STREAM_QUERIES
    return {"wall_s": wall, "qps": STREAM_QUERIES / wall,
            "topology": topology}


@pytest.mark.benchmark
def test_streamed_telemetry_budget(benchmark, bench_json_record):
    """ISSUE 9 budget: streaming live telemetry out of every worker of a
    process topology costs < 1.5x the wall time of the same replay with
    streaming off.  The replay is wall-clock paced, so the streamer's
    cost can only surface as added overhead around it."""
    off = run_once(benchmark, _replay_processes, None)
    hub = Telemetry(TelemetryConfig(trace=True, stream_period=0.1))
    on = _replay_processes(hub)

    ratio = on["wall_s"] / off["wall_s"]
    cluster = on["topology"].cluster
    frames = cluster.frames_ingested
    workers = len(cluster.workers())
    print()
    print(f"process tree x{STREAM_QUERIES}: {off['qps']:.0f} q/s off, "
          f"{on['qps']:.0f} q/s streaming (x{ratio:.2f}, "
          f"{frames} frames from {workers} workers)")

    bench_json_record(
        "telemetry_stream_cluster",
        queries=STREAM_QUERIES,
        stream_off_qps=round(off["qps"], 1),
        stream_on_qps=round(on["qps"], 1),
        stream_ratio=round(ratio, 3),
        telemetry_frames=frames,
        workers=workers,
    )

    assert ratio < 1.5
    # The run actually streamed: several frames from every worker, and
    # the merged aggregate landed on the final record count.
    assert workers == 6
    assert frames >= 2 * workers
    assert cluster.merged_metrics().count("replay.records_sent") \
        == STREAM_QUERIES
