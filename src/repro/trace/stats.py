"""Trace statistics: Table 1 columns, rate series, per-client load CDFs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .record import Trace


@dataclass
class TraceSummary:
    """The Table 1 row for one trace."""

    name: str
    records: int
    duration: float
    interarrival_mean: float
    interarrival_std: float
    client_ips: int
    unique_names: int

    def row(self) -> str:
        return (f"{self.name:<12} {self.duration / 60:6.0f} min  "
                f"{self.interarrival_mean:.6f}±{self.interarrival_std:.6f}s  "
                f"{self.client_ips:>9} clients  {self.records:>10} records")


def summarize(trace: Trace) -> TraceSummary:
    timestamps = [r.timestamp for r in trace]
    gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
    names = set()
    clients = set()
    for record in trace:
        clients.add(record.src)
        question = record.question()
        if question is not None:
            names.add(question[0])
    return TraceSummary(
        name=trace.name,
        records=len(trace),
        duration=trace.duration(),
        interarrival_mean=mean(gaps) if gaps else 0.0,
        interarrival_std=stddev(gaps) if len(gaps) > 1 else 0.0,
        client_ips=len(clients),
        unique_names=len(names),
    )


def per_second_rates(trace: Trace) -> List[Tuple[int, int]]:
    """Queries per one-second bucket, as (second, count)."""
    buckets: Dict[int, int] = {}
    if not trace.records:
        return []
    base = trace.records[0].timestamp
    for record in trace:
        buckets[int(record.timestamp - base)] = (
            buckets.get(int(record.timestamp - base), 0) + 1)
    return sorted(buckets.items())


def interarrivals(trace: Trace) -> List[float]:
    timestamps = sorted(r.timestamp for r in trace)
    return [b - a for a, b in zip(timestamps, timestamps[1:])]


def per_client_counts(trace: Trace) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for record in trace:
        counts[record.src] = counts.get(record.src, 0) + 1
    return counts


def client_load_cdf(trace: Trace) -> List[Tuple[int, float]]:
    """Fig 15c: CDF of queries-per-client.  Returns (count, fraction of
    clients with <= count queries) points."""
    counts = sorted(per_client_counts(trace).values())
    if not counts:
        return []
    n = len(counts)
    points = []
    for index, value in enumerate(counts, start=1):
        points.append((value, index / n))
    return points


def top_client_share(trace: Trace, fraction: float = 0.01) -> float:
    """Share of total queries sent by the busiest ``fraction`` of clients."""
    counts = sorted(per_client_counts(trace).values(), reverse=True)
    if not counts:
        return 0.0
    top = max(1, int(round(len(counts) * fraction)))
    return sum(counts[:top]) / sum(counts)


def inactive_client_fraction(trace: Trace, threshold: int = 10) -> float:
    """Fraction of clients sending fewer than ``threshold`` queries."""
    counts = list(per_client_counts(trace).values())
    if not counts:
        return 0.0
    return sum(1 for c in counts if c < threshold) / len(counts)


# -- small numeric helpers (kept dependency-free) ---------------------------

def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def stddev(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("empty sequence")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    low = int(math.floor(position))
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1 - weight) + sorted_values[high] * weight


def quartile_summary(values: Sequence[float]) -> Dict[str, float]:
    """min/5th/25th/median/75th/95th/max — the paper's box-plot stats.

    An empty input yields all-zero stats rather than raising, so report
    renderers stay well-defined on zero-query runs.
    """
    ordered = sorted(values)
    if not ordered:
        return {key: 0.0 for key in
                ("min", "p5", "p25", "median", "p75", "p95", "max")}
    return {
        "min": ordered[0],
        "p5": percentile(ordered, 0.05),
        "p25": percentile(ordered, 0.25),
        "median": percentile(ordered, 0.50),
        "p75": percentile(ordered, 0.75),
        "p95": percentile(ordered, 0.95),
        "max": ordered[-1],
    }


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]
