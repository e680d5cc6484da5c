"""Crash-recovery benchmark (ISSUE 8 acceptance).

Replays the same trace through a 4-querier recovery-mode process tree
twice — once untouched, once with two queriers SIGKILLed mid-run — and
records both aggregate q/s figures plus the recovery counters in
``BENCH_recovery.json``.  The killed run must conserve every record
(exactly-once merge across the crashed and respawned incarnations) and
reproduce the clean run's per-query facts; the recovered q/s is a
qps-named key so the regression guard tracks it like any other
throughput figure.

Wall-clock here includes the respawn backoff and the redelivery grace
window, so recovered q/s is structurally below clean q/s; the floor
asserts recovery cost stays bounded, not that it is free.
"""

import os
import signal
import threading
import time

from conftest import run_once

from repro.replay import (DistributedConfig, ProcessTopology,
                          RecoveryConfig, UdpEchoServerProcess,
                          conservation_violations)
from repro.trace import fixed_interval_trace

DISTRIBUTORS = 2
QUERIERS_PER = 2
KILLED_QUERIERS = 2
KILL_AT_S = 0.4
RECOVERED_QPS_FLOOR_RATIO = 0.2     # recovered >= 20% of clean q/s
MIN_CPUS_FOR_RATIO = 4
SUPERSEDED_BY = ("live-recovery/qps in BENCHMARK.json "
                 "(python3 bench/run.py --workload live-recovery)")


def _trace():
    return fixed_interval_trace(interval=0.002, duration=1.2,
                                client_count=16)


def _replay(kill: bool):
    trace = _trace()
    with UdpEchoServerProcess() as echo:
        config = DistributedConfig(
            distributors=DISTRIBUTORS,
            queriers_per_distributor=QUERIERS_PER,
            settle_time=0.5, recovery=RecoveryConfig())
        topology = ProcessTopology((echo.address, echo.port), config)
        if kill:
            def assassin():
                time.sleep(KILL_AT_S)
                for handle in (topology.querier_handles[0],
                               topology.querier_handles[2]):
                    if handle.pid is not None:
                        os.kill(handle.pid, signal.SIGKILL)
            threading.Thread(target=assassin, daemon=True).start()
        started = time.monotonic()
        result = topology.replay(trace)
        wall = time.monotonic() - started
    return trace, result, wall


def _facts(result):
    """Per-query facts that must survive a crash-and-respawn run."""
    return sorted((q.index, q.qname, q.source, q.protocol)
                  for q in result.sent)


def _sweep():
    out = {}
    for mode, kill in (("clean", False), ("killed", True)):
        trace, result, wall = _replay(kill)
        out[mode] = {"trace": trace, "result": result, "wall": wall,
                     "qps": len(result.sent) / max(wall, 1e-9)}
    return out


def test_crash_recovery_conserves_and_stays_fast(benchmark,
                                                 bench_json_record):
    runs = run_once(benchmark, _sweep)
    clean, killed = runs["clean"], runs["killed"]
    expected = len(clean["trace"].records)
    cpus = os.cpu_count() or 1
    ratio = killed["qps"] / max(clean["qps"], 1e-9)
    skip_reason = (None if cpus >= MIN_CPUS_FOR_RATIO else
                   f"host has {cpus} cpu(s) < {MIN_CPUS_FOR_RATIO}: "
                   f"qps-ratio assertion not run")

    bench_json_record(
        "crash_recovery",
        cpu_count=cpus,
        skip_reason=skip_reason,
        query_count=expected,
        distributors=DISTRIBUTORS,
        queriers_per_distributor=QUERIERS_PER,
        killed_queriers=KILLED_QUERIERS,
        clean_qps=clean["qps"],
        # Kept for the regression guard; the figure to quote for a
        # clean recovery-mode run is the benchmark's, at 20x the N.
        clean_qps_superseded_by=SUPERSEDED_BY,
        recovered_qps=killed["qps"],
        recovered_ratio=ratio,
        recovered_ratio_floor=RECOVERED_QPS_FLOOR_RATIO,
        ratio_asserted=cpus >= MIN_CPUS_FOR_RATIO,
        clean_wall_seconds=clean["wall"],
        killed_wall_seconds=killed["wall"],
        respawns=killed["result"].respawns,
        redelivered_records=killed["result"].redelivered_records,
        duplicate_merged=killed["result"].duplicate_merged,
    )
    print(f"\nclean:  {clean['qps']:>8,.0f} q/s "
          f"({clean['wall']:.2f}s wall)")
    print(f"killed: {killed['qps']:>8,.0f} q/s "
          f"({killed['wall']:.2f}s wall, "
          f"{killed['result'].respawns} respawns, "
          f"{killed['result'].redelivered_records} redelivered)")

    # Conservation holds on any host, loaded or not.
    for mode, run in runs.items():
        assert conservation_violations(run["result"], expected) == [], mode
    assert killed["result"].respawns == KILLED_QUERIERS
    # Crash-and-respawn reproduces the clean run's per-query facts.
    assert _facts(killed["result"]) == _facts(clean["result"])
    answered = sum(1 for q in killed["result"].sent
                   if q.answered_at is not None)
    assert answered == expected
    if cpus >= MIN_CPUS_FOR_RATIO:
        assert ratio >= RECOVERED_QPS_FLOOR_RATIO, (
            f"recovery cost blew up: killed run at {ratio:.2f}x of "
            f"clean q/s on {cpus} cpus")
