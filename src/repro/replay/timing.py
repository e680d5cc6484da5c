"""Replay timing: the Δt̄ − Δt correction and a calibrated jitter model.

LDplayer replays query *i* at ``ΔT_i = Δt̄_i − Δt_i`` in the future,
where Δt̄ is the relative trace time and Δt the relative real time
already consumed by input processing (§2.6).  If input falls behind
(ΔT ≤ 0) the query goes out immediately.

The simulator's clock is perfectly precise, so replaying in simulation
would show zero timing error — unlike the real system, whose timers and
syscalls add jitter (Figure 6 measures exactly that).  To reproduce the
paper's *measured* behaviour inside the simulation,
:class:`TimerJitterModel` injects deterministic, seeded noise calibrated
to Figure 6: quartiles around ±2.5 ms at most interarrivals, the ±8 ms
anomaly at the 0.1 s timescale (the paper blames an application/kernel
timer interaction), and extremes clamped near ±17 ms.  The live replay
path (:mod:`repro.replay.multiproc`) measures real OS jitter instead.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional


class TimingController:
    """Tracks trace time vs. clock time for one replay (§2.6)."""

    def __init__(self) -> None:
        self.trace_start: Optional[float] = None   # t̄1
        self.clock_start: Optional[float] = None   # t1

    def synchronize(self, trace_time: float, clock_time: float) -> None:
        """Handle the controller's time-synchronization broadcast."""
        self.trace_start = trace_time
        self.clock_start = clock_time

    @property
    def synchronized(self) -> bool:
        return self.trace_start is not None

    def send_delay(self, trace_time: float, clock_time: float) -> float:
        """ΔT = Δt̄ − Δt; never negative (late queries go immediately)."""
        if self.trace_start is None or self.clock_start is None:
            raise RuntimeError("timing not synchronized")
        relative_trace = trace_time - self.trace_start
        relative_clock = clock_time - self.clock_start
        return max(0.0, relative_trace - relative_clock)

    def target_clock_time(self, trace_time: float) -> float:
        if self.trace_start is None or self.clock_start is None:
            raise RuntimeError("timing not synchronized")
        return self.clock_start + (trace_time - self.trace_start)


# Figure 6 calibration: quartile half-width of the send-time error, by
# fixed interarrival; "varying" covers real traces like B-Root.
_QUARTILE_ERROR_MS = {
    1.0: 2.0,
    0.1: 8.0,       # the paper's timer-interaction anomaly
    0.01: 2.5,
    0.001: 1.2,
    0.0001: 0.8,
    None: 1.5,      # varying interarrivals (B-Root)
}
_MAX_ERROR_MS = 17.0
# τ, the seconds of drift memory behind the error's AR(1) correlation.
_BIAS_TIMESCALE_S = 0.4


@dataclass
class TimerJitterModel:
    """Deterministic, seeded scheduling noise for simulated replay.

    Timer error on a real host is dominated by slowly-drifting bias
    (scheduler load, timer coalescing), not independent per-event noise:
    Figure 6 shows multi-millisecond *absolute* errors while Figure 7's
    inter-arrival CDFs and Figure 8's per-second rates stay tight, which
    is only possible when consecutive errors are strongly correlated.
    The model is therefore an AR(1) process, ``e_i = ρ·e_{i-1} + ξ_i``,
    with the stationary quartiles calibrated to Figure 6 and values
    clamped to the paper's observed extremes (±17 ms).
    """

    interval_hint: Optional[float] = None
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)
    _state: float = field(init=False, repr=False, default=0.0)
    _correlation: float = field(init=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        # hash(None) is id-based on CPython < 3.12 and varies per
        # process under ASLR, which would break run-to-run
        # repeatability (§2.1) for hint-less models.
        hint_key = (hash(self.interval_hint)
                    if self.interval_hint is not None else 0x5EED)
        self._rng = random.Random((self.seed << 20) ^ hint_key & 0xFFFFF)
        self._state = 0.0
        # Correlation decays with elapsed *time* between events, not
        # event count: ρ = exp(-interval / τ).
        interval = (self.interval_hint
                    if self.interval_hint is not None else 0.02)
        self._correlation = math.exp(-interval / _BIAS_TIMESCALE_S)

    def _quartile_ms(self) -> float:
        if self.interval_hint is None:
            return _QUARTILE_ERROR_MS[None]
        best = min((key for key in _QUARTILE_ERROR_MS if key is not None),
                   key=lambda key: abs(key - self.interval_hint))
        return _QUARTILE_ERROR_MS[best]

    def draw(self) -> float:
        """Next timer-error sample in seconds (may be negative)."""
        # Stationary std from the target quartile (Gaussian: q = 0.6745σ)
        sigma = (self._quartile_ms() / 1000.0) / 0.6745
        innovation_sigma = sigma * (1.0 - self._correlation ** 2) ** 0.5
        self._state = (self._correlation * self._state
                       + self._rng.gauss(0.0, innovation_sigma))
        limit = _MAX_ERROR_MS / 1000.0
        self._state = max(-limit, min(limit, self._state))
        return self._state
