"""Figure 8: per-second query-rate difference between replay and original.

Replays the B-Root-like trace five times and, for every second of the
trace, compares the replayed rate with the original rate in that second.
Paper: almost all seconds (95-99 % per trial) differ by within ±0.1 %.
"""

from __future__ import annotations

from typing import List

from ..trace import BRootWorkload, per_second_rates
from .common import ExperimentOutput, Scale, SMOKE
from .fig6_timing import replay_one


def rate_differences(trace, result) -> List[float]:
    original = dict(per_second_rates(trace))
    replayed = dict(result.per_second_rates())
    diffs = []
    for second, original_rate in original.items():
        if original_rate == 0:
            continue
        replay_rate = replayed.get(second, 0)
        diffs.append((replay_rate - original_rate) / original_rate)
    return diffs


def run(scale: Scale = SMOKE, trials: int = 5) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="fig8",
        title="Per-second query-rate difference, replay vs original "
              "(5 trials)",
        headers=["trial", "seconds", "within ±0.1% (frac)",
                 "within ±2% (frac)", "worst diff"],
        paper_claims={
            "rate error": "4 trials with 98-99 % and 1 with 95 % of "
                          "seconds within ±0.1 %",
            "workload": "median 38 k q/s with time-varying rate",
        },
        notes=["replayed rate counts every query the engine sent in each "
               "1-second bucket, as captured at the server in the paper"])

    trace = BRootWorkload(duration=scale.duration, mean_rate=scale.rate,
                          client_count=scale.clients).generate()
    for trial in range(trials):
        result = replay_one(trace, None, seed=trial + 1)
        diffs = rate_differences(trace, result)
        if not diffs:
            continue
        within_tight = sum(1 for d in diffs if abs(d) <= 0.001) / len(diffs)
        within_loose = sum(1 for d in diffs if abs(d) <= 0.02) / len(diffs)
        output.add_row(trial + 1, len(diffs), within_tight, within_loose,
                       max(diffs, key=abs))
    return output
