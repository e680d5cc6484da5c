"""Metric primitives: counters, timings, gauges, and log-bucketed histograms.

:class:`MetricsRegistry` is the storage layer behind every measurement
the pipeline takes.  It keeps the three flat kinds
:class:`repro.perf.PerfCounters` always had — monotonic **counters**,
accumulated wall-clock **timings**, last-write-wins **gauges** — and adds
**histograms**: log-bucketed distributions with quantile extraction, the
representation Figures 6/15 (timing-error and latency CDFs) actually
need.  ``PerfCounters`` is now a thin facade over this class, so every
counter the hot paths already increment lands here unchanged.

Histogram buckets grow geometrically (default 1.25x from 1 µs), so the
whole latency range from microseconds to minutes fits in ~100 sparse
buckets and any quantile is recovered to within one bucket width —
the resolution the acceptance tests assert against exact percentiles.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple


class Histogram:
    """A log-bucketed value distribution with quantile extraction.

    Values at or below ``min_value`` share bucket 0 (``[0, min_value]``);
    bucket ``i > 0`` covers ``(min_value * growth**(i-1),
    min_value * growth**i]``.  Exact count/sum/min/max are tracked on
    the side, so means are exact and quantiles are only ever off by the
    width of the bucket they land in.
    """

    __slots__ = ("growth", "min_value", "_log_growth", "_buckets",
                 "count", "total", "min", "max")

    def __init__(self, growth: float = 1.25, min_value: float = 1e-6):
        if growth <= 1.0:
            raise ValueError("histogram growth factor must be > 1")
        if min_value <= 0.0:
            raise ValueError("histogram min_value must be > 0")
        self.growth = growth
        self.min_value = min_value
        self._log_growth = math.log(growth)
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    # -- recording --------------------------------------------------------

    def observe(self, value: float) -> None:
        index = self._index(value)
        self._buckets[index] = self._buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _index(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        # ceil() keeps the bucket's upper bound >= value.
        return max(1, math.ceil(
            math.log(value / self.min_value) / self._log_growth - 1e-9))

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``(low, high]`` value range of bucket ``index``."""
        if index <= 0:
            return (0.0, self.min_value)
        return (self.min_value * self.growth ** (index - 1),
                self.min_value * self.growth ** index)

    # -- analysis ---------------------------------------------------------

    def mean(self) -> Optional[float]:
        if self.count == 0:
            return None
        return self.total / self.count

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
                representative = math.sqrt(max(low, high / self.growth)
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
        if (other.growth != self.growth
                or other.min_value != self.min_value):
            raise ValueError("cannot merge histograms with different "
                             "bucket layouts")
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.total += other.total
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
            "growth": self.growth,
            "min_value": self.min_value,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            # JSON keys are strings; bucket indices round-trip via int().
            "buckets": {str(index): count
                        for index, count in self._buckets.items()},
        }

    @classmethod
    def from_state(cls, state: Dict) -> "Histogram":
        histogram = cls(growth=state["growth"],
                        min_value=state["min_value"])
        histogram.count = state["count"]
        histogram.total = state["total"]
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

    The superset of the old ``PerfCounters`` API: everything that class
    offered keeps its exact semantics (``snapshot()`` flattens counters,
    ``_s``-suffixed timings, and gauges; histograms are reported
    separately via :meth:`histogram_summaries` so existing snapshot
    consumers see no new keys).
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

    def histogram(self, name: str, growth: float = 1.25,
                  min_value: float = 1e-6) -> Histogram:
        """The named histogram, created with this layout if missing."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(growth=growth, min_value=min_value)
            self._histograms[name] = histogram
        return histogram

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def histogram_summaries(self) -> Dict[str, Dict]:
        return {name: histogram.to_dict()
                for name, histogram in sorted(self._histograms.items())}

    # -- derived ----------------------------------------------------------

    def hit_rate(self, hits: str, misses: str) -> Optional[float]:
        """``hits / (hits + misses)`` or None when nothing was counted."""
        total = self.count(hits) + self.count(misses)
        if total == 0:
            return None
        return self.count(hits) / total

    def rate(self, counter: str, timing: str) -> Optional[float]:
        """Events per wall-clock second, or None without data."""
        seconds = self.seconds(timing)
        if seconds <= 0.0:
            return None
        return self.count(counter) / seconds

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
                mine = Histogram(growth=histogram.growth,
                                 min_value=histogram.min_value)
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
