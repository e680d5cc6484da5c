"""A TTL-driven resolver cache.

Stores positive RRsets and negative (NXDOMAIN / NODATA) entries keyed by
(name, type).  Entries expire by TTL against the simulation clock; the
cold/warm distinction is central to both the paper's zone construction
("caching makes raw traces incomplete if captured after the cache is
warm", §2.3) and to replay fidelity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..dns import Name, RRType, RRset


class CacheOutcome(enum.Enum):
    HIT = "hit"
    NEGATIVE_HIT = "negative"
    MISS = "miss"


@dataclass
class CacheEntry:
    rrset: Optional[RRset]       # None for negative entries
    expires: float
    negative_rcode: Optional[int] = None


class DnsCache:
    """TTL cache with positive and negative entries and hit statistics."""

    def __init__(self, clock: Callable[[], float],
                 max_entries: int = 1_000_000,
                 max_ttl: float = 86400.0):
        self._clock = clock
        self._entries: Dict[Tuple[Name, RRType], CacheEntry] = {}
        self.max_entries = max_entries
        self.max_ttl = max_ttl
        self.hits = 0
        self.negative_hits = 0
        self.misses = 0
        self.insertions = 0
        self.evictions = 0

    def get(self, name: Name, rrtype: RRType) -> Tuple[CacheOutcome,
                                                       Optional[CacheEntry]]:
        key = (name, rrtype)
        entry = self._entries.get(key)
        now = self._clock()
        if entry is None or entry.expires <= now:
            if entry is not None:
                del self._entries[key]
            self.misses += 1
            return CacheOutcome.MISS, None
        if entry.rrset is None:
            self.negative_hits += 1
            return CacheOutcome.NEGATIVE_HIT, entry
        self.hits += 1
        return CacheOutcome.HIT, entry

    def put(self, rrset: RRset) -> None:
        ttl = min(float(rrset.ttl), self.max_ttl)
        self._insert((rrset.name, rrset.rrtype),
                     CacheEntry(rrset, self._clock() + ttl))

    def put_negative(self, name: Name, rrtype: RRType, ttl: float,
                     rcode: int) -> None:
        ttl = min(ttl, self.max_ttl)
        self._insert((name, rrtype),
                     CacheEntry(None, self._clock() + ttl,
                                negative_rcode=rcode))

    def _insert(self, key: Tuple[Name, RRType], entry: CacheEntry) -> None:
        if len(self._entries) >= self.max_entries and key not in self._entries:
            self._evict_one()
        self._entries[key] = entry
        self.insertions += 1

    def _evict_one(self) -> None:
        """Evict the soonest-to-expire entry (cheap TTL-ordered policy)."""
        if not self._entries:
            return
        victim = min(self._entries, key=lambda k: self._entries[k].expires)
        del self._entries[victim]
        self.evictions += 1

    def flush(self) -> None:
        """Cold-cache reset; every resolution walks the hierarchy again."""
        self._entries.clear()

    def expire_now(self) -> int:
        """Drop all expired entries; returns how many were removed."""
        now = self._clock()
        expired = [k for k, e in self._entries.items() if e.expires <= now]
        for key in expired:
            del self._entries[key]
        return len(expired)

    def best_nameservers(self, qname: Name) -> Optional[RRset]:
        """The deepest cached NS RRset enclosing ``qname`` (RFC 1034
        resolver algorithm step: find the best servers to ask)."""
        now = self._clock()
        for ancestor in qname.ancestors():
            entry = self._entries.get((ancestor, RRType.NS))
            if entry is not None and entry.rrset is not None \
                    and entry.expires > now:
                return entry.rrset
        return None

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "negative_hits": self.negative_hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
        }
