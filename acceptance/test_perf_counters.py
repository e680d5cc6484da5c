"""Hot-path acceptance check: response-wire cache + codec fast paths.

Replays a Zipf-skewed synthetic trace (the B-Root-like shape where a
small hot set of names dominates the stream) through the simulated
pipeline twice — with the response-wire cache enabled and disabled —
and compares their wall-clock rates, the cache hit rate and the
perf-counter snapshot with the hot-path acceptance bars: the cached
fast path must beat the pre-optimization rate by >= 1.5x and the Zipf
trace must hit the cache > 90% of the time.
"""

from __future__ import annotations

import time

from repro.experiments.fig6_timing import wildcard_example_zone
from repro.experiments.topology import build_evaluation_topology
from repro.telemetry import MetricsRegistry
from repro.replay import ReplayConfig, SimReplayEngine
from repro.server import AuthoritativeServer, HostedDnsServer
from repro.trace import zipf_trace

# Fast-path wall-clock q/s measured on this machine immediately before
# the hot-path pass (20 k-query Zipf replay, same harness as below).
# The acceptance bar is >= 1.5x this figure.
PRE_PR_BASELINE_QPS = 4373.0

# The same measurement after the wire cache + codec fast paths landed.
# The batching and zero-copy pass must double it again on its own.
PR5_BASELINE_QPS = 9843.2

QUERY_COUNT = 20000

# Quantize fast-replay send times so same-instant bursts coalesce into
# batched sends (the datagram batch path under measurement).  250 us at
# the 200 k q/s replay rate is ~50 records per window.
BATCH_WINDOW = 2.5e-4


def _replay_zipf(cached: bool):
    """One fast-rate Zipf replay; returns wall-clock + counter facts."""
    testbed = build_evaluation_topology()
    perf = MetricsRegistry()
    server = AuthoritativeServer.single_view([wildcard_example_zone()])
    if not cached:
        server.wire_cache = None
    server.perf = perf
    HostedDnsServer(testbed.server_host, server, perf=perf)
    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(track_timing=False, fast_replay_rate=200000.0,
                     batch_window=BATCH_WINDOW),
        perf=perf)
    trace = zipf_trace(QUERY_COUNT, server="10.0.0.2")
    started = time.perf_counter()
    result = engine.replay(trace, extra_time=5.0)
    wall = time.perf_counter() - started
    assert len(result) == QUERY_COUNT
    assert result.answered_fraction() == 1.0
    return {
        "wall_s": wall,
        "qps": QUERY_COUNT / wall,
        "cache": (server.wire_cache.counters()
                  if server.wire_cache is not None else None),
        "hit_rate": (server.wire_cache.hit_rate()
                     if server.wire_cache is not None else None),
        "perf": perf.snapshot(),
    }


def test_hotpath_fast_replay_rate():
    cached = _replay_zipf(True)
    uncached = _replay_zipf(False)

    speedup_vs_baseline = cached["qps"] / PRE_PR_BASELINE_QPS
    speedup_vs_pr5 = cached["qps"] / PR5_BASELINE_QPS
    speedup_vs_uncached = uncached["wall_s"] / cached["wall_s"]
    print()
    print(f"fast path: {cached['qps']:.0f} q/s cached, "
          f"{uncached['qps']:.0f} q/s uncached, "
          f"{PR5_BASELINE_QPS:.0f} q/s PR-5 baseline, "
          f"{PRE_PR_BASELINE_QPS:.0f} q/s pre-cache baseline")
    print(f"cache hit rate: {cached['hit_rate']:.3f}  "
          f"({cached['cache']})")

    # Acceptance criteria for the hot-path pass.
    assert cached["hit_rate"] > 0.90
    assert speedup_vs_baseline >= 1.5
    # This PR's bar: batching + zero-copy double the PR-5 single-core
    # figure on the same workload.
    assert speedup_vs_pr5 >= 2.0
    # The cache alone (codec fast paths held equal) must still pay.
    assert speedup_vs_uncached > 1.2
    # Zero-copy accounting: every cache hit was served as a WireView
    # over the cached buffer, decoding only on misses.
    perf = cached["perf"]
    assert perf["server.zero_copy_hits"] == perf["server.wire_cache_hits"]
    assert perf["hosting.decodes"] == perf["server.wire_cache_misses"]


def test_hotpath_counters_observe_replay():
    # The perf registry must see the whole pipeline: scheduled queries,
    # loop events, hosting decodes, and cache traffic, with wall-time
    # phases that make events/sec derivable.
    facts = _replay_zipf(True)
    perf = facts["perf"]
    assert perf["replay.queries_scheduled"] == QUERY_COUNT
    # Batched sends/deliveries mean far fewer loop events than queries.
    assert perf["replay.events_processed"] > 0
    assert perf["hosting.queries"] == QUERY_COUNT
    hits = perf["server.wire_cache_hits"]
    misses = perf["server.wire_cache_misses"]
    assert hits + misses == QUERY_COUNT
    # The zero-copy fast path serves hits without Message.from_wire:
    # decodes happen only on misses.
    assert perf["hosting.decodes"] == misses
    assert perf["server.zero_copy_hits"] == hits
    assert perf["replay.run_s"] > 0.0
    assert perf["replay.schedule_s"] > 0.0
