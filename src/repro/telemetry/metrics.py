"""Metric primitives: counters, timings, gauges, and log-bucketed histograms.

:class:`MetricsRegistry` is the storage layer behind every measurement
the pipeline takes: monotonic **counters**, accumulated wall-clock
**timings**, last-write-wins **gauges**, and **histograms**:
log-bucketed distributions with quantile extraction, the representation
Figures 6/15 (timing-error and latency CDFs) actually need.  Components
build a private registry when none is passed, so runs never interfere;
an experiment that wants one merged view passes one registry to every
component, or merges them afterwards.  Measurement never feeds back
into simulated behaviour: the discrete-event clock stays deterministic.

Every histogram's buckets grow 1.25x from 1 µs (so any two merge): the
whole latency range from microseconds to minutes fits in ~100 sparse
buckets and any quantile is recovered to within one bucket width —
the resolution the acceptance tests assert against exact percentiles.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

# The one bucket layout: bucket 0 is ``[0, MIN_VALUE]``, bucket ``i > 0``
# is ``(MIN_VALUE * GROWTH**(i-1), MIN_VALUE * GROWTH**i]``.
GROWTH = 1.25
MIN_VALUE = 1e-6
_LOG_GROWTH = math.log(GROWTH)


class Histogram:
    """A log-bucketed value distribution with quantile extraction.

    Values fall into the :data:`GROWTH` / :data:`MIN_VALUE` buckets.
    Exact count/sum/sum of squares/min/max are tracked on the side, so
    means and standard deviations are exact and quantiles are only ever
    off by the width of the bucket they land in.
    """

    __slots__ = ("_buckets", "count", "total", "sumsq", "min", "max")

    def __init__(self):
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording --------------------------------------------------------

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Sequence[float]) -> None:
        """Fold ``values`` in order: the state one :meth:`observe` per
        value leaves, buckets and floating-point sums included."""
        buckets, min_value = self._buckets, MIN_VALUE
        log_growth, log, ceil = _LOG_GROWTH, math.log, math.ceil
        total, squares, low, high = self.total, self.sumsq, self.min, self.max
        for value in values:
            # ceil() keeps the bucket's upper bound >= value; a value
            # just above MIN_VALUE goes to bucket 1, not 0.
            index = 0 if value <= min_value else ceil(
                log(value / min_value) / log_growth - 1e-9) or 1
            buckets[index] = buckets.get(index, 0) + 1
            total += value
            squares += value * value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
        self.count += len(values)
        self.total, self.sumsq, self.min, self.max = total, squares, low, high

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``(low, high]`` value range of bucket ``index``."""
        if index <= 0:
            return (0.0, MIN_VALUE)
        return (MIN_VALUE * GROWTH ** (index - 1), MIN_VALUE * GROWTH ** index)

    # -- analysis ---------------------------------------------------------

    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

    def stddev(self) -> Optional[float]:
        """Population standard deviation, from the exact sums."""
        if self.count == 0:
            return None
        mean = self.total / self.count
        return math.sqrt(max(0.0, self.sumsq / self.count - mean * mean))

    def quantile(self, q: float) -> Optional[float]:
        """The value at quantile ``q`` (0..1), to one bucket's precision."""
        value_bounds = self.quantile_bounds(q)
        if value_bounds is None:
            return None
        return value_bounds[0]

    def quantile_bounds(self, q: float) -> Optional[Tuple[float, float,
                                                          float]]:
        """``(representative, low, high)`` of the bucket holding ``q``.

        The representative is the bucket's geometric midpoint clamped to
        the observed min/max, so single-bucket distributions report a
        value actually seen.
        """
        if self.count == 0:
            return None
        q = min(max(q, 0.0), 1.0)
        rank = q * (self.count - 1)
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > rank:
                low, high = self.bucket_bounds(index)
                representative = math.sqrt(max(low, high / GROWTH)
                                           * high) if index > 0 \
                    else high / 2.0
                if self.min is not None:
                    representative = max(representative, self.min)
                if self.max is not None:
                    representative = min(representative, self.max)
                return (representative, low, high)
        return None  # pragma: no cover - cumulative always reaches count

    def buckets(self) -> List[Tuple[float, float, int]]:
        """Sorted ``(low, high, count)`` rows for export."""
        return [(*self.bucket_bounds(index), self._buckets[index])
                for index in sorted(self._buckets)]

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "Histogram") -> None:
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        self.sumsq += other.sumsq
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    def to_state(self) -> Dict:
        """Full internal state, JSON-safe (cross-process snapshots).

        Unlike :meth:`to_dict` (a human-facing summary), this is exact:
        :meth:`from_state` rebuilds an identical histogram, so a worker
        process can ship its distributions to the controller and merge
        them without losing bucket resolution.
        """
        return {
            "count": self.count,
            "total": self.total,
            "sumsq": self.sumsq,
            "min": self.min,
            "max": self.max,
            # JSON keys are strings; bucket indices round-trip via int().
            "buckets": {str(index): count
                        for index, count in self._buckets.items()},
        }

    @classmethod
    def from_state(cls, state: Dict) -> "Histogram":
        histogram = cls()
        histogram.count = state["count"]
        histogram.total = state["total"]
        histogram.sumsq = state["sumsq"]
        histogram.min = state["min"]
        histogram.max = state["max"]
        histogram._buckets = {int(index): count
                              for index, count in state["buckets"].items()}
        return histogram

    def to_dict(self) -> Dict:
        summary: Dict = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean(),
        }
        for name, q in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
            summary[name] = self.quantile(q)
        summary["buckets"] = [[low, high, count]
                              for low, high, count in self.buckets()]
        return summary

    def __repr__(self) -> str:
        return (f"Histogram({self.count} values, "
                f"{len(self._buckets)} buckets)")


class Counter:
    """A cached handle onto one named counter's dict slot.

    ``registry.incr(name)`` pays a method call, an attribute chase, and
    two dict operations with a fresh string hash per event; a handle
    binds the counts dict and the (pre-hashed) key once, so the per-event
    path is a single bound call.  Hot loops that count per *batch*
    instead of per packet use :meth:`add` with the batch size.
    """

    __slots__ = ("_counts", "name")

    def __init__(self, counts: Dict[str, int], name: str):
        self._counts = counts
        self.name = name

    def add(self, amount: int = 1) -> None:
        counts = self._counts
        counts[self.name] = counts.get(self.name, 0) + amount

    @property
    def value(self) -> int:
        return self._counts.get(self.name, 0)

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class MetricsRegistry:
    """Named counters, timings, gauges, and histograms for one run.

    ``snapshot()`` flattens counters, ``_s``-suffixed timings and
    gauges; histograms are reported separately via
    :meth:`histogram_summaries`, so snapshot consumers see only the
    flat kinds.
    """

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._timings: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- counters ---------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self._counts[name] = self._counts.get(name, 0) + amount

    def counter(self, name: str) -> Counter:
        """A cached :class:`Counter` handle for hot-path increments."""
        return Counter(self._counts, name)

    def count(self, name: str) -> int:
        return self._counts.get(name, 0)

    # -- timings ----------------------------------------------------------

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock duration of the enclosed block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    def add_time(self, name: str, seconds: float) -> None:
        self._timings[name] = self._timings.get(name, 0.0) + seconds

    def seconds(self, name: str) -> float:
        return self._timings.get(name, 0.0)

    # -- gauges -----------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        self._gauges[name] = value

    def gauge(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    # -- histograms -------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Record one value into the named histogram (created lazily)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram()
            self._histograms[name] = histogram
        histogram.observe(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created empty if missing."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram()
            self._histograms[name] = histogram
        return histogram

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def histogram_summaries(self) -> Dict[str, Dict]:
        return {name: histogram.to_dict()
                for name, histogram in sorted(self._histograms.items())}

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """One flat mapping of counters, ``_s``-suffixed timings, gauges."""
        merged: Dict[str, float] = dict(self._counts)
        for name, seconds in self._timings.items():
            merged[f"{name}_s"] = seconds
        merged.update(self._gauges)
        return merged

    def merge(self, other: "MetricsRegistry") -> None:
        for name, value in other._counts.items():
            self.incr(name, value)
        for name, seconds in other._timings.items():
            self.add_time(name, seconds)
        self._gauges.update(other._gauges)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = Histogram()
                self._histograms[name] = mine
            mine.merge(histogram)

    def to_state(self) -> Dict:
        """Exact registry state as one JSON-safe document.

        The inter-process METRICS frame: a worker serializes its whole
        registry (histograms included, losslessly) and the controller
        folds it into the run's registry with :meth:`merge_state`.
        """
        return {
            "counts": dict(self._counts),
            "timings": dict(self._timings),
            "gauges": dict(self._gauges),
            "histograms": {name: histogram.to_state()
                           for name, histogram in self._histograms.items()},
        }

    @classmethod
    def from_state(cls, state: Dict) -> "MetricsRegistry":
        registry = cls()
        registry._counts = dict(state.get("counts", {}))
        registry._timings = dict(state.get("timings", {}))
        registry._gauges = dict(state.get("gauges", {}))
        registry._histograms = {
            name: Histogram.from_state(histogram_state)
            for name, histogram_state
            in state.get("histograms", {}).items()}
        return registry

    def merge_state(self, state: Dict) -> None:
        """Merge a serialized snapshot (see :meth:`to_state`) into self."""
        self.merge(MetricsRegistry.from_state(state))

    def reset(self) -> None:
        self._counts.clear()
        self._timings.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __repr__(self) -> str:
        return (f"MetricsRegistry({len(self._counts)} counters, "
                f"{len(self._timings)} timings, {len(self._gauges)} "
                f"gauges, {len(self._histograms)} histograms)")
