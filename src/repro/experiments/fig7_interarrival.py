"""Figure 7: CDFs of inter-arrival time, original vs replayed.

The paper overlays the original trace's inter-arrival CDF with the
replayed one for B-Root and each synthetic interarrival; replays track
the original closely for interarrivals >= 10 ms and spread a little at
sub-millisecond spacing (timer/syscall overhead comparable to the
delay).  We report selected percentiles of both distributions and the
maximum CDF distance (a two-sample Kolmogorov-Smirnov statistic).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from ..trace import percentile
from .common import ExperimentOutput, Scale, SMOKE
from .fig6_timing import replayed_cases


def ks_distance(sample_a: Sequence[float],
                sample_b: Sequence[float]) -> float:
    """Two-sample KS statistic: max vertical CDF distance."""
    a = sorted(sample_a)
    b = sorted(sample_b)
    if not a or not b:
        return 1.0
    points = sorted(set(a) | set(b))
    worst = 0.0
    for x in points:
        fa = bisect_right(a, x) / len(a)
        fb = bisect_right(b, x) / len(b)
        worst = max(worst, abs(fa - fb))
    return worst


def run(scale: Scale = SMOKE, max_queries: int = 20000) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="fig7",
        title="CDF of inter-arrival time: original vs replayed",
        headers=["trace", "orig median (ms)", "replay median (ms)",
                 "orig p90 (ms)", "replay p90 (ms)", "max CDF dist"],
        paper_claims={
            ">=10ms interarrivals": "replayed CDF lies on the original",
            "<1ms interarrivals": "median on target, some spread "
                                  "(synchronization overhead)",
            "B-Root": "divergence only at the smallest interarrivals",
        })

    for label, trace, result in replayed_cases(scale, max_queries):
        original = [b.timestamp - a.timestamp
                    for a, b in zip(trace.records, trace.records[1:])]
        replayed = result.interarrivals()
        if not original or not replayed:
            continue
        output.add_row(
            label,
            percentile(sorted(original), 0.5) * 1e3,
            percentile(sorted(replayed), 0.5) * 1e3,
            percentile(sorted(original), 0.9) * 1e3,
            percentile(sorted(replayed), 0.9) * 1e3,
            ks_distance(original, replayed))
    return output
