"""Dynamic (CDN-style) answers — the paper's stated future work.

§2.3: "the address mapping for names may change over time, such as
content delivery network (CDN) redirecting by updating DNS using its
own algorithm ... Simulating the various CDN algorithms to give
different addresses for queries is future work."

This module implements that simulation: a :class:`DynamicOverlay` maps
owner names to a :class:`CdnPolicy` that picks the answer per query —
round-robin across a pool (classic load balancing), hashed by client
source (sticky mapping / geo-ish steering), or time-windowed rotation
(periodic reconfiguration).  The authoritative engine consults the
overlay before the zone, so a single deployment can serve both static
and CDN-backed names.

The zone constructor's "inconsistent replies → first answer wins" rule
(§2.3) exists precisely because of such servers; the integration tests
replay against a dynamic server and check that zone construction still
produces one consistent snapshot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from ..dns import Name, RRClass, RRType, RRset
from ..dns import rdata as rd


@dataclass
class CdnPolicy:
    """How one owner name answers A queries.

    strategies:
      ``round_robin``  — rotate through the pool per query,
      ``source_hash``  — stable per-client address (sticky steering),
      ``time_window``  — switch addresses every ``window`` seconds.
    """

    addresses: Sequence[str]
    strategy: str = "round_robin"
    ttl: int = 60
    window: float = 300.0
    _counter: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.addresses:
            raise ValueError("CDN policy needs at least one address")
        if self.strategy not in ("round_robin", "source_hash",
                                 "time_window"):
            raise ValueError(f"unknown CDN strategy {self.strategy!r}")

    def pick(self, source: str, now: float) -> str:
        pool = self.addresses
        if self.strategy == "round_robin":
            address = pool[self._counter % len(pool)]
            self._counter += 1
            return address
        if self.strategy == "source_hash":
            digest = hashlib.sha256(source.encode()).digest()
            return pool[int.from_bytes(digest[:4], "big") % len(pool)]
        # time_window
        return pool[int(now / self.window) % len(pool)]


class DynamicOverlay:
    """Per-name dynamic answer policies layered over static zones."""

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._policies: Dict[Name, CdnPolicy] = {}
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.answers_synthesized = 0

    def add(self, name: Name, policy: CdnPolicy) -> None:
        self._policies[name] = policy

    def remove(self, name: Name) -> None:
        self._policies.pop(name, None)

    def policy_for(self, name: Name) -> Optional[CdnPolicy]:
        return self._policies.get(name)

    def answer(self, name: Name, rrtype: RRType,
               source: str) -> Optional[RRset]:
        """Synthesize the dynamic answer, or None if not covered."""
        if rrtype != RRType.A:
            return None
        policy = self._policies.get(name)
        if policy is None:
            return None
        self.answers_synthesized += 1
        address = policy.pick(source, self._clock())
        return RRset(name, RRClass.IN, RRType.A, policy.ttl,
                     [rd.A(address)])

    def __len__(self) -> int:
        return len(self._policies)
