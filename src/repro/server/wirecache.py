"""Response-wire cache for the authoritative engine.

LDplayer replays are heavily skewed: a handful of names (the zone apex,
popular second-level domains, the NXDOMAIN long tail's covering NSECs)
dominate the query stream, so the same response is encoded over and over.
The cache stores the *encoded wire* of a response keyed by everything
that determines its bytes — the view, the exact-case qname, qtype/qclass,
the RD bit, EDNS presence, the DO bit, and the effective payload limit —
and answers repeat queries by patching the 2-byte message ID into a
stored buffer instead of re-running lookup + encode.

A root server's stream defeats that key (single-use junk TLDs, one-off
``exampleNNN.<tld>`` referrals), yet a referral or NXDOMAIN depends on the
qname only through the zone cut or closest encloser (plus the covering
NSEC owner) it falls under.  So a second key shape, tried after the exact
probe misses, holds a *relocatable template*: the response past the
question plus its compression-pointer positions.  A hit splices the
query's ID and question in front and shifts the pointers by the
qname-length difference; such responses are not stored under their qname.

Entries are validated against the zone data they were built from: each
entry records the :class:`~repro.server.authoritative.ZoneSet` version
and the generation of the answering :class:`~repro.dns.zone.Zone`.  Any
zone mutation (dynamic update, AXFR reload via ``ZoneSet.replace``)
bumps those counters and lazily invalidates the stale entries.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Optional, Tuple

from ..dns.name import MAX_POINTER_TARGET
from ..dns.zone import NameKey

# (view id, labels, qtype, qclass, rd, edns, do, limit), or for a template
# (view id, AnswerKind, node key, covering owner key, rd, edns, do, limit)
CacheKey = Tuple


class WireCacheEntry:
    """One cached response: canonical wire (message ID zeroed) + validity.

    ``body_view`` is a readonly :class:`memoryview` over everything past
    the 2-byte message ID, shared by every zero-copy hit served from
    this entry.  The view is created once at construction; because it is
    readonly and ``wire`` is immutable ``bytes``, no consumer can mutate
    the cached response through a served reference.

    A *template* (see :meth:`as_template`) additionally knows where its
    question ends, where its compression pointers sit, how deep its node
    is, and which labels just below the node it must decline (``guard``).
    """

    __slots__ = ("wire", "body_view", "zones_version", "zone",
                 "zone_generation", "stat_deltas", "question_end",
                 "pointers", "depth", "guard")

    def __init__(self, wire: bytes, zones_version: int, zone,
                 zone_generation: int, stat_deltas: Tuple[int, ...]):
        self.wire = wire
        self.body_view = memoryview(wire)[2:]
        self.zones_version = zones_version
        self.zone = zone  # None for cached REFUSED (no matching zone)
        self.zone_generation = zone_generation
        self.stat_deltas = stat_deltas

    def as_template(self, qname: NameKey, node: NameKey, question_end: int,
                    owners: Iterable[NameKey]) -> bool:
        """Make this entry relocatable, if its response allows it.

        ``qname`` is the lowercased name it answers, ``node`` the cut or
        closest encloser it will be keyed under, and ``owners`` the
        lowercased owner names of its records.  An owner under ``node``
        whose next label is also the qname's would have compressed into
        the qname beyond ``node`` (``x.nic.com.`` against the glue
        ``ns1.nic.com.``): such a qname neither builds a template nor is
        served from one.  Truncated and >16 KiB responses are refused too.
        """
        wire = self.wire
        self.depth = depth = len(node)
        self.guard = frozenset(
            key[-depth - 1] for key in owners
            if len(key) > depth and key[len(key) - depth:] == node)
        if self._declines(qname) or wire[2] & 0x02 \
                or len(wire) > MAX_POINTER_TARGET:
            return False
        # Walk the records for their pointers.  Only owner names are ever
        # compressed (rdata names are written in full, see dns/rdata.py).
        pointers = []
        pos, end = question_end, len(wire)
        while pos < end:
            while wire[pos]:
                if wire[pos] >= 0xC0:
                    pointers.append(pos - question_end)
                    pos += 1
                    break
                pos += 1 + wire[pos]
            pos += 11 + ((wire[pos + 9] << 8) | wire[pos + 10])
        self.question_end = question_end
        self.pointers = pointers
        return True

    def _declines(self, qname: NameKey) -> bool:
        return len(qname) > self.depth and qname[-self.depth - 1] in self.guard

    def splice(self, ident: bytes, question: bytes, qname: NameKey,
               limit: Optional[int]) -> Optional[bytes]:
        """The template's response to a query with this ID and question.

        None when the template cannot vouch for it: the qname's label
        just under the node is guarded, or the spliced response would
        pass the payload limit or the compression-pointer range.
        """
        delta = 12 + len(question) - self.question_end
        total = len(self.wire) + delta
        if self._declines(qname) or total > MAX_POINTER_TARGET \
                or (limit is not None and total > limit):
            return None
        tail = self.body_view[self.question_end - 2:]
        if delta:
            tail = bytearray(tail)
            for pos in self.pointers:
                value = ((tail[pos] << 8) | tail[pos + 1]) + delta
                tail[pos] = value >> 8
                tail[pos + 1] = value & 0xFF
        return b"".join((ident, self.body_view[:10], question, tail))

    def is_valid(self, zones_version: int) -> bool:
        if self.zones_version != zones_version:
            return False
        if self.zone is not None and self.zone.generation != self.zone_generation:
            return False
        return True


class ResponseWireCache:
    """An LRU cache of encoded responses with explicit invalidation."""

    def __init__(self, max_entries: int = 4096):
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[CacheKey, WireCacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.template_hits = 0  # the subset of ``hits`` served by splicing

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey, zones_version: int) -> Optional[WireCacheEntry]:
        """The valid entry for ``key``, or None (stale entries are dropped).

        Counts a hit or a miss; a stale entry counts as both an
        invalidation and a miss.
        """
        entry = self.get_if_hit(key, zones_version)
        if entry is None:
            self.misses += 1
            if self._entries.pop(key, None) is not None:
                self.invalidations += 1
        return entry

    def get_if_hit(self, key: CacheKey,
                   zones_version: int) -> Optional[WireCacheEntry]:
        """Like :meth:`get`, but only *hits* are counted.

        Both serving paths probe the exact-qname key, then the template
        key, and only then book the query's one miss (the decode-free
        path leaves that to the slow path it falls back to, whose
        :meth:`put` replaces a stale entry): no miss is booked twice.
        """
        entry = self._entries.get(key)
        if entry is None or not entry.is_valid(zones_version):
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek(self, key: CacheKey,
             zones_version: int) -> Optional[WireCacheEntry]:
        """The valid entry under ``key`` or None; nothing is counted.

        A template may still decline the query (``splice``), so its hit
        is booked afterwards, with :meth:`hit_template`.
        """
        entry = self._entries.get(key)
        if entry is None or not entry.is_valid(zones_version):
            return None
        return entry

    def hit_template(self, key: CacheKey) -> None:
        self._entries.move_to_end(key)
        self.hits += 1
        self.template_hits += 1

    def put(self, key: CacheKey, entry: WireCacheEntry) -> None:
        if key in self._entries:  # only a stale entry is ever replaced
            self.invalidations += 1
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self.invalidations += len(self._entries)
        self._entries.clear()

    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        if total == 0:
            return None
        return self.hits / total

    def counters(self) -> dict:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "template_hits": self.template_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (f"ResponseWireCache({len(self._entries)}/{self.max_entries} "
                f"entries, {self.hits} hits, {self.misses} misses)")
