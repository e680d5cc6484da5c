"""Replay pacing: an AIMD send-rate governor for the simulated querier.

A replay that outlives its server is worse than one that fails: the
paper's what-if experiments (DoS replay, 14x rate scaling) need the
client side to *cooperate* with an overloaded server.  Each querier
caps its send rate (:class:`PacingConfig` / :class:`AimdPacer`);
observed SERVFAILs and timeouts cut the rate multiplicatively,
successful responses grow it additively, the same control law TCP
congestion avoidance uses.  Off by default.

The live tree's other supervision lives where its decisions are made:
worker death in the controller's reader EOF path
(:mod:`repro.replay.multiproc`), and the wall-clock budget
``DistributedConfig.deadline``, which a controller timer turns into
SHUTDOWN frames and each querier enforces locally from TIME_SYNC.
"""

from __future__ import annotations

from dataclasses import dataclass


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
