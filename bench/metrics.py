"""The metric catalogue: names, units, directions, bounds.

``BENCHMARK.json`` carries the same table for the driver;
``bench/tests`` checks that the two agree.  A bound is the share of the
parent's median by which an end-to-end metric may get worse; the README
shows the spread evidence each one was set from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

SIM = frozenset({"sim-broot", "sim-hot"})
LIVE = frozenset({"live-flood", "live-paced", "live-recovery"})
ALL = SIM | LIVE


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str                        # "higher" or "lower"
    bound: Optional[float] = None      # end-to-end only
    # Per-layer only: the workloads whose traced run measures it.  On the
    # others the layer does not run; the result line carries 0 and the
    # report prints "n/a".
    on: FrozenSet[str] = ALL


END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric("s", "lower", 0.25),
    "qps": Metric("1/s", "higher", 0.25),
    "answered_frac": Metric("fraction", "higher", 0.02),
    "on_time_frac": Metric("fraction", "higher", 0.10),
    "cpu_us_per_query": Metric("us", "lower", 0.25),
    "peak_rss_mb": Metric("MB", "lower", 0.15),
}


def end_to_end(outcome, wall_s: float, cpu_s: float, setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    records = outcome.records
    return {
        "setup_s": setup_s,
        "qps": outcome.answered / wall_s,
        "answered_frac": outcome.answered / records,
        "on_time_frac": outcome.on_time / records,
        "cpu_us_per_query": cpu_s / records * 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def _layer(unit: str, better: str, *on: str) -> Metric:
    names = frozenset().union(*(
        {"sim": SIM, "live": LIVE}.get(name, {name}) for name in on))
    return Metric(unit, better, on=names)


SPAN_LAYERS = ("trace", "replay.engine", "replay.querier", "netsim.loop",
                "netsim.network", "server.hosting", "server.authoritative",
                "dns.codec", "replay.result")

PER_LAYER: Dict[str, Metric] = {
    # 1. Layer drivers: direct calls into one layer's public functions.
    "trace.generate_us": _layer("us", "lower", "sim-broot"),
    "trace.mutate_us": _layer("us", "lower", "sim-broot"),
    "trace.encode_us": _layer("us", "lower", "live-flood"),
    "trace.bytes_per_record": _layer("bytes", "lower", "live-flood"),
    "trace.decode_us": _layer("us", "lower", "live-flood"),
    "dns.decode_us": _layer("us", "lower", "sim-broot"),
    "dns.encode_us": _layer("us", "lower", "sim-broot"),
    "dns.question_key_us": _layer("us", "lower", "sim-broot"),
    "server.serve_miss_us": _layer("us", "lower", "sim-broot"),
    "server.serve_hit_us": _layer("us", "lower", "sim-hot"),
    "netsim.loop_event_us": _layer("us", "lower", "sim-hot"),
    "netsim.udp_hop_us": _layer("us", "lower", "sim-hot"),
    "netsim.udp_hop_batch_us": _layer("us", "lower", "sim-hot"),
    "replay.assign_us": _layer("us", "lower", "live-flood"),
    "replay.protocol.record_us": _layer("us", "lower", "live-flood"),
    "replay.protocol.record_seq_us": _layer("us", "lower", "live-recovery"),
    "replay.result.count_us": _layer("us", "lower", "live-flood"),
    "replay.result.add_us": _layer("us", "lower", "sim-hot"),
    "replay.result.wire_us": _layer("us", "lower", "live-recovery"),
    "replay.multiproc.fixed_s": _layer("s", "lower", "live-flood"),
    "replay.multiproc.classic_12k_s": _layer("s", "lower", "live-recovery"),
    "replay.recovery.cost_ratio": _layer("ratio", "lower", "live-recovery"),
    "telemetry.traced_ratio": _layer("ratio", "lower", "sim-hot"),
    # 2. Boundary spans on the simulated workloads.
    **{f"{layer}.self_s": _layer("s", "lower", "sim")
       for layer in SPAN_LAYERS},
    **{f"{layer}.calls": _layer("count", "lower", "sim")
       for layer in SPAN_LAYERS},
    "span.coverage": _layer("fraction", "higher", "sim"),
    "span.overhead_ratio": _layer("ratio", "lower", "sim"),
    "netsim.events": _layer("count", "lower", "sim"),
    "server.wirecache_hit_frac": _layer("fraction", "higher", "sim"),
    "server.decodes": _layer("count", "lower", "sim"),
    # 3. Process accounting on the live workloads.
    "replay.controller.cpu_s": _layer("s", "lower", "live"),
    "replay.distributor.cpu_s": _layer("s", "lower", "live"),
    "replay.querier.cpu_s": _layer("s", "lower", "live"),
    "sink.cpu_s": _layer("s", "lower", "live"),
    "replay.distributor.busy_frac": _layer("fraction", "lower", "live"),
    "replay.querier.busy_frac": _layer("fraction", "lower", "live"),
    "replay.cpu_us_per_query": _layer("us", "lower", "live"),
    "sink.arrived_frac": _layer("fraction", "higher", "live"),
    "sink.duplicates": _layer("count", "lower", "live"),
    "replay.timing.anchor_skew_ms": _layer("ms", "lower", "live-paced"),
    "replay.timing.late_p50_ms": _layer("ms", "lower", "live-paced"),
    "replay.timing.late_p99_ms": _layer("ms", "lower", "live-paced"),
    "replay.result.unmatched_responses": _layer("count", "lower", "live"),
    "replay.result.send_failures": _layer("count", "lower", "live"),
    "replay.result.deadline_shed": _layer("count", "lower", "live"),
    "replay.recovery.redelivered_records":
        _layer("count", "lower", "live-recovery"),
    "replay.recovery.duplicate_merged":
        _layer("count", "lower", "live-recovery"),
}
