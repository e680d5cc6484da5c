"""Replay supervision: pacing, heartbeats, watchdog, deadline shedding.

A replay that outlives its server is worse than one that fails: the
paper's what-if experiments (DoS replay, 14x rate scaling) need the
client side to *cooperate* with an overloaded server and to *terminate
truthfully* when part of the replay tree wedges.  Three mechanisms:

* **AIMD pacing** (:class:`PacingConfig` / :class:`AimdPacer`) — each
  querier caps its send rate; observed SERVFAILs and timeouts cut the
  rate multiplicatively, successful responses grow it additively, the
  same control law TCP congestion avoidance uses.  Off by default.

* **heartbeats + watchdog** (:class:`SupervisionConfig` /
  :class:`ReplayWatchdog`) — a watchdog thread flags any subject that
  dies, or whose ``heartbeat`` (if it stamps one) goes stale, while it
  still has queued work, and the process tree fails its sources over
  to live queriers.

* **deadline shedding** — an optional wall-clock budget for the whole
  replay; when it expires, queued-but-unsent records are counted as
  shed (``ReplayResult.deadline_shed``) instead of silently lost, and
  the replay returns.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence


@dataclass
class PacingConfig:
    """AIMD send-rate governor knobs (all rates in queries/second)."""

    initial_rate: float = 200.0
    min_rate: float = 1.0
    max_rate: float = 10_000.0
    increase: float = 5.0    # additive q/s growth per successful response
    decrease: float = 0.5    # multiplicative cut on SERVFAIL/timeout


class AimdPacer:
    """Additive-increase/multiplicative-decrease send-time governor.

    ``reserve`` books the next allowed send slot against a token-style
    schedule at the current rate; congestion signals halve the rate (by
    ``decrease``), successes claw it back linearly.
    """

    def __init__(self, config: PacingConfig, now: float):
        self.config = config
        self.rate = config.initial_rate
        self._next_free = now

    def reserve(self, now: float) -> float:
        """Earliest time the next query may leave; books the slot."""
        at = max(now, self._next_free)
        self._next_free = at + 1.0 / self.rate
        return at

    def on_success(self) -> None:
        self.rate = min(self.config.max_rate,
                        self.rate + self.config.increase)

    def on_congestion(self) -> bool:
        """Cut the rate; True if the rate actually decreased."""
        cut = max(self.config.min_rate, self.rate * self.config.decrease)
        if cut < self.rate:
            self.rate = cut
            return True
        return False


@dataclass
class SupervisionConfig:
    """Watchdog knobs for the live distributed replay."""

    heartbeat_interval: float = 0.2   # watchdog poll period
    stall_timeout: float = 2.0        # stale-heartbeat threshold
    deadline: Optional[float] = None  # wall-clock budget for the replay


class ReplayWatchdog(threading.Thread):
    """Monitors subjects with ``heartbeat``/``has_work()``; flags stalls.

    A subject is stalled when its heartbeat is older than
    ``stall_timeout`` *and* it still has work — an idle querier blocked
    waiting for input is not a stall.  Each subject is flagged at most
    once; ``on_stall`` does the remediation (the process tree closes
    the worker's control link so routing fails over).

    Subjects that expose ``is_alive()`` (the process tree's worker
    handles) are additionally checked for death: a dead subject with
    work outstanding is flagged immediately, without waiting out the
    stall timeout — a crashed querier process cannot stamp a heartbeat,
    and its queries must be reassigned (the distributor's
    ``StickyAssigner.remove`` failover) right away.
    """

    def __init__(self, config: SupervisionConfig, subjects: Sequence,
                 on_stall: Callable, on_deadline: Optional[Callable] = None):
        super().__init__(daemon=True, name="replay-watchdog")
        self.config = config
        self.subjects = list(subjects)
        self.on_stall = on_stall
        self.on_deadline = on_deadline
        self.stalled: List = []
        self._flagged = set()
        self._stop_event = threading.Event()
        self._deadline_fired = False
        self._started_at = time.monotonic()

    def run(self) -> None:
        while not self._stop_event.wait(self.config.heartbeat_interval):
            now = time.monotonic()
            if (self.config.deadline is not None
                    and not self._deadline_fired
                    and now - self._started_at >= self.config.deadline):
                self._deadline_fired = True
                if self.on_deadline is not None:
                    self.on_deadline()
            for subject in self.subjects:
                if id(subject) in self._flagged:
                    continue
                if not subject.has_work():
                    continue
                if self._is_dead(subject):
                    self._flag(subject)
                    continue
                beat = getattr(subject, "heartbeat", None)
                if beat is None:
                    continue
                if now - beat >= self.config.stall_timeout:
                    self._flag(subject)

    @staticmethod
    def _is_dead(subject) -> bool:
        """A started subject whose thread/process has exited."""
        alive = getattr(subject, "is_alive", None)
        if alive is None or alive():
            return False
        # Never started (ident/pid unset) is "not yet running", not dead
        # — the watchdog may begin polling before the workers launch.
        return getattr(subject, "ident", getattr(subject, "pid", 1)) \
            is not None

    def _flag(self, subject) -> None:
        self._flagged.add(id(subject))
        self.stalled.append(subject)
        self.on_stall(subject)

    def add_subject(self, subject) -> None:
        """Adopt a subject mid-run (a respawned worker handle)."""
        self.subjects.append(subject)

    def deadline_expired(self) -> bool:
        return self._deadline_fired

    def stop(self) -> None:
        self._stop_event.set()
