"""Table 1: the trace inventory.

Generates scaled stand-ins for each trace the paper uses and reports the
same columns: duration, inter-arrival mean ± stddev, client IPs, record
count.  The absolute counts are scaled (see common.Scale); the column
the paper's experiments depend on — the inter-arrival *structure* — is
exact for the synthetic traces and shape-matched for B-Root/Rec.
"""

from __future__ import annotations

from typing import Dict

from ..trace import (BRootWorkload, RecursiveWorkload, SYNTHETIC_SPECS,
                     Trace, fixed_interval_trace, summarize)
from .common import ExperimentOutput, Scale, SMOKE

# Paper's Table 1 values, for side-by-side reporting.
PAPER_TABLE1 = {
    "B-Root-16": {"interarrival": 0.000027, "clients": 1.07e6,
                  "records": 137e6, "minutes": 60},
    "B-Root-17a": {"interarrival": 0.000023, "clients": 1.17e6,
                   "records": 141e6, "minutes": 60},
    "B-Root-17b": {"interarrival": 0.000025, "clients": 725e3,
                   "records": 53e6, "minutes": 20},
    "Rec-17": {"interarrival": 0.180799, "clients": 91,
               "records": 20e3, "minutes": 60},
    "syn-0": {"interarrival": 1.0, "clients": 3000, "records": 3600},
    "syn-1": {"interarrival": 0.1, "clients": 9700, "records": 36000},
    "syn-2": {"interarrival": 0.01, "clients": 10000, "records": 360000},
    "syn-3": {"interarrival": 0.001, "clients": 10000, "records": 3.6e6},
    "syn-4": {"interarrival": 0.0001, "clients": 10000, "records": 36e6},
}


def generate_trace_set(scale: Scale = SMOKE,
                       max_records: int = 40000) -> Dict[str, Trace]:
    """All Table 1 traces at the given scale."""
    traces: Dict[str, Trace] = {}
    traces["B-Root-16"] = BRootWorkload(
        duration=scale.duration, mean_rate=scale.rate,
        client_count=scale.clients, seed=16, name="B-Root-16").generate()
    traces["B-Root-17a"] = BRootWorkload(
        duration=scale.duration, mean_rate=scale.rate,
        client_count=scale.clients, seed=171, name="B-Root-17a").generate()
    traces["B-Root-17b"] = BRootWorkload(
        duration=scale.duration / 3, mean_rate=scale.rate,
        client_count=scale.clients, seed=172, name="B-Root-17b").generate()
    traces["Rec-17"] = RecursiveWorkload(
        duration=scale.duration,
        total_queries=max(50, int(scale.duration * 5.6)),
        name="Rec-17").generate()
    for name, (interval, clients) in SYNTHETIC_SPECS.items():
        duration = min(scale.duration, max_records * interval)
        duration = max(duration, interval * 10)
        traces[name] = fixed_interval_trace(
            interval, duration, client_count=clients, name=name)
    return traces


def run(scale: Scale = SMOKE) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="table1",
        title="DNS traces used in experiments and evaluation",
        headers=["trace", "minutes", "interarrival mean (s)",
                 "interarrival std (s)", "client IPs", "records",
                 "paper interarrival (s)"],
        paper_claims={
            "B-Root-16": "60 min, 27 µs mean interarrival, 1.07 M clients",
            "Rec-17": "60 min, 0.18 s mean interarrival, 91 clients",
            "syn-*": "fixed interarrivals 1 s down to 0.1 ms",
        },
        notes=[f"scaled workloads ({scale.name}): record/client counts are "
               f"1/{scale.report_factor:.0f} of the paper's; synthetic "
               "interarrivals are exact"],
    )
    for name, trace in generate_trace_set(scale).items():
        summary = summarize(trace)
        paper = PAPER_TABLE1.get(name, {})
        output.add_row(name, summary.duration / 60,
                       summary.interarrival_mean, summary.interarrival_std,
                       summary.client_ips, summary.records,
                       paper.get("interarrival", "-"))
    return output
