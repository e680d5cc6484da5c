"""Sharded simulation scale-out acceptance check.

Launches a :class:`~repro.replay.multiproc.ShardTopology` — one
self-sourcing simulation shard per core, each replaying its
sticky-by-source slice of a Zipf workload against its own server
replica — and prints per-shard walls and the aggregate q/s.

The ≥50 k q/s aggregate assertion needs real cores: shards on a 1-CPU
host time-slice one core and the "aggregate" would be a lie.  The
assertion self-gates on ``os.cpu_count() >= 4`` and the check prints
the gate whenever it holds the assertion back.
"""

import os

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


def test_sharded_replay_aggregate():
    topo, result = _run_sharded()
    cpus = os.cpu_count() or 1

    walls = [wall for wall in topo.shard_walls if wall]
    # Aggregate over the concurrency window: with one process per core
    # the shards genuinely overlap, so the slowest shard's wall clock
    # bounds the whole replay.
    concurrent_qps = (len(result.sent) / max(walls)) if walls else 0.0
    gated = cpus >= MIN_CPUS_FOR_AGGREGATE

    print(f"\nshards:     {NUM_SHARDS} over {cpus} cpu(s)")
    print(f"walls:      {['%.2fs' % wall for wall in walls]}")
    print(f"aggregate:  {concurrent_qps:>10,.0f} q/s concurrent")
    if not gated:
        print(f"gate:       host has {cpus} cpu(s) < "
              f"{MIN_CPUS_FOR_AGGREGATE}: shards time-slice one core, so "
              f"the >= {AGGREGATE_FLOOR_QPS:.0f} q/s aggregate assertion "
              f"is not run")

    # Correctness holds regardless of core count: every record landed on
    # exactly one shard and every query was answered.
    assert topo.lost_shards == 0
    assert len(result.sent) == QUERY_COUNT
    assert result.answered_fraction() == 1.0
    if gated:
        assert concurrent_qps >= AGGREGATE_FLOOR_QPS, (
            f"sharded aggregate only {concurrent_qps:,.0f} q/s "
            f"on {cpus} cpus")
