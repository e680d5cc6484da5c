"""Sharded simulation scale-out benchmark (ROADMAP item 3's target).

Launches a :class:`~repro.replay.multiproc.ShardTopology` — one
self-sourcing simulation shard per core, each replaying its
sticky-by-source slice of a Zipf workload against its own server
replica — and records per-shard and aggregate q/s in
``BENCH_multiproc.json``.

The ≥50 k q/s aggregate assertion needs real cores: shards on a 1-CPU
host time-slice one core and the "aggregate" would be a lie.  Per the
honest-recording precedent, the assertion self-gates on
``os.cpu_count() >= 4`` and the record carries an explicit
``skip_reason`` whenever the gate holds it back — the measured numbers
are written unconditionally either way.
"""

import os

from conftest import run_once

from repro.replay import ShardTopology

NUM_SHARDS = 4
QUERY_COUNT = 40000
CLIENT_COUNT = 128
AGGREGATE_FLOOR_QPS = 50000.0
MIN_CPUS_FOR_AGGREGATE = 4
BATCH_WINDOW = 2.5e-4


def _run_sharded():
    topo = ShardTopology(
        NUM_SHARDS,
        trace_factory=("repro.trace.synthetic", "zipf_trace",
                       {"query_count": QUERY_COUNT,
                        "client_count": CLIENT_COUNT,
                        "server": "10.0.0.2"}),
        scenario_factory=("repro.replay.multiproc",
                          "default_shard_scenario",
                          {"batch_window": BATCH_WINDOW}),
    )
    result = topo.replay()
    return topo, result


def test_sharded_replay_aggregate(benchmark, bench_json_record):
    topo, result = run_once(benchmark, _run_sharded)
    cpus = os.cpu_count() or 1

    walls = [wall for wall in topo.shard_walls if wall]
    # Aggregate over the concurrency window: with one process per core
    # the shards genuinely overlap, so the slowest shard's wall clock
    # bounds the whole replay.  Total/controller-wall is also recorded
    # (it includes spawn + trace regeneration + collection).
    concurrent_qps = (len(result.sent) / max(walls)) if walls else 0.0
    wall_qps = topo.aggregate_qps() or 0.0
    gated = cpus >= MIN_CPUS_FOR_AGGREGATE
    skip_reason = (None if gated else
                   f"host has {cpus} cpu(s) < {MIN_CPUS_FOR_AGGREGATE}: "
                   f"shards time-slice one core, so the >= "
                   f"{AGGREGATE_FLOOR_QPS:.0f} q/s aggregate assertion "
                   f"is not run")

    bench_json_record(
        "sharded_replay",
        cpu_count=cpus,
        num_shards=NUM_SHARDS,
        query_count=QUERY_COUNT,
        batch_window=BATCH_WINDOW,
        shard_walls_s=[round(wall, 4) if wall else None
                       for wall in topo.shard_walls],
        aggregate_qps_concurrent=round(concurrent_qps, 1),
        aggregate_qps_wall=round(wall_qps, 1),
        aggregate_floor_qps=AGGREGATE_FLOOR_QPS,
        aggregate_asserted=gated,
        skip_reason=skip_reason,
        answered_fraction=result.answered_fraction(),
        lost_shards=topo.lost_shards,
    )
    print(f"\nshards:     {NUM_SHARDS} over {cpus} cpu(s)")
    print(f"walls:      {['%.2fs' % wall for wall in walls]}")
    print(f"aggregate:  {concurrent_qps:>10,.0f} q/s concurrent, "
          f"{wall_qps:>10,.0f} q/s end-to-end")
    if skip_reason:
        print(f"gate:       {skip_reason}")

    # Correctness holds regardless of core count: every record landed on
    # exactly one shard and every query was answered.
    assert topo.lost_shards == 0
    assert len(result.sent) == QUERY_COUNT
    assert result.answered_fraction() == 1.0
    if gated:
        assert concurrent_qps >= AGGREGATE_FLOOR_QPS, (
            f"sharded aggregate only {concurrent_qps:,.0f} q/s "
            f"on {cpus} cpus")
