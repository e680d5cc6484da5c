"""Periodic load sampling on the simulated clock.

The paper's server-side evaluation is time series — memory/connection
trajectories sampled once a minute (Fig 13/14), dstat-style CPU windows
(Fig 11).  :class:`TimeSeriesSampler` is the one sampling loop behind
all of them: named probes are read every period into one row, and
arbitrary collectors (like :class:`ResourceTimeline`, which snapshots a
:class:`~repro.netsim.ServerResourceModel`) run on the same tick so
every series shares sample times.

The sampler schedules itself on the :class:`~repro.netsim.EventLoop`
with exactly the cadence the old ``ResourceMonitor`` used (first sample
one period after start), so migrated experiments see identical sample
times.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple


class TimeSeriesSampler:
    """Samples on the simulated event loop, ResourceMonitor-style."""

    def __init__(self, loop, period: float):
        if period <= 0:
            raise ValueError("sampling period must be > 0")
        self.loop = loop
        self.period = period
        self._timer = None
        self._running = False
        self._probes: Dict[str, Callable[[], float]] = {}
        self._collectors: List[Callable[[float], None]] = []
        # Each row: {"time": t, probe_name: value, ...}
        self.points: List[Dict[str, float]] = []

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        """Read ``probe()`` into column ``name`` on every tick."""
        self._probes[name] = probe

    def add_collector(self, collector: Callable[[float], None]) -> None:
        """Run ``collector(now)`` on every tick (for side tables)."""
        self._collectors.append(collector)

    def start(self) -> None:
        self._running = True
        self._timer = self.loop.call_later(self.period, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        self._sample(self.loop.now)
        self._timer = self.loop.call_later(self.period, self._tick)

    def _sample(self, now: float) -> None:
        row: Dict[str, float] = {"time": now}
        for name, probe in self._probes.items():
            row[name] = probe()
        self.points.append(row)
        for collector in self._collectors:
            collector(now)

    # -- series access ----------------------------------------------------

    def series(self, name: str) -> List[Tuple[float, float]]:
        """``(time, value)`` rows of one probe column."""
        return [(row["time"], row[name]) for row in self.points
                if name in row]

    def columns(self) -> List[str]:
        names: List[str] = []
        for row in self.points:
            for name in row:
                if name not in names:
                    names.append(name)
        return names


class ResourceTimeline:
    """Server resource samples collected on the telemetry sampler.

    A drop-in replacement for :class:`repro.netsim.ResourceMonitor`
    where experiments only read ``samples`` / ``steady_state()``: it
    registers itself as a collector on a sampler and snapshots the
    resource model on every shared tick.
    """

    def __init__(self, sampler: TimeSeriesSampler, model):
        self.sampler = sampler
        self.model = model
        self.samples: List = []
        sampler.add_collector(self._collect)

    @property
    def period(self) -> float:
        return self.sampler.period

    def _collect(self, _now: float) -> None:
        self.samples.append(self.model.sample())

    def steady_state(self, skip: float = 300.0) -> List:
        """Samples after startup transients (paper: steady by ~5 min)."""
        if not self.samples:
            return []
        start = self.samples[0].time + skip
        return [s for s in self.samples if s.time >= start]
