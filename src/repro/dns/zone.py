"""The zone data model and authoritative lookup semantics.

A :class:`Zone` stores RRsets indexed by owner name and type, knows where
its delegations (zone cuts) are, and implements the lookup algorithm an
authoritative server needs: exact answers, referrals, CNAMEs, wildcard
synthesis (RFC 4592), NXDOMAIN, and NODATA.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

from . import rdata as rd
from .constants import RRClass, RRType
from .name import Name
from .rrset import RR, RRset


NameKey = Tuple[bytes, ...]  # a name's lowercased labels (``Name.key``)


class NameIndex(NamedTuple):
    """Which names a zone has, for O(qname depth) lookups by set probe."""

    existing: Set[NameKey]  # owner names and the empty non-terminals above
    cuts: Set[NameKey]      # delegation points
    signed: bool            # some node carries an NSEC


class ZoneError(ValueError):
    """Raised for structurally invalid zones."""


class AnswerKind(enum.Enum):
    """Classification of a zone lookup result."""

    ANSWER = "answer"          # authoritative data for the qname/qtype
    CNAME = "cname"            # owner has a CNAME; follow it
    REFERRAL = "referral"      # below a zone cut: NS rrset of the cut
    NODATA = "nodata"          # name exists, type does not
    NXDOMAIN = "nxdomain"      # name does not exist
    OUT_OF_ZONE = "out_of_zone"


@dataclass
class LookupResult:
    kind: AnswerKind
    rrsets: List[RRset] = field(default_factory=list)
    # For referrals: the delegation point; for wildcard answers: the
    # wildcard owner that synthesized the answer.
    node: Optional[Name] = None
    wildcard: bool = False


class Zone:
    """One zone: an origin, an RRset store, and its delegation points."""

    def __init__(self, origin: Name, rrclass: RRClass = RRClass.IN):
        self.origin = origin
        self.rrclass = rrclass
        self._nodes: Dict[Name, Dict[RRType, RRset]] = {}
        self._canonical_cache: Optional[List[Name]] = None
        # Bumped on every mutation; response-wire cache entries record the
        # generation they were built against and are invalid once it moves.
        self.generation = 0
        self._index = NameIndex(set(), set(), False)
        self._index_generation = 0

    # -- construction ----------------------------------------------------

    def add_rr(self, rr: RR) -> None:
        if not rr.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{rr.name} is outside zone {self.origin}")
        self._canonical_cache = None
        self.generation += 1
        node = self._nodes.setdefault(rr.name, {})
        rrset = node.get(rr.rrtype)
        if rrset is None:
            node[rr.rrtype] = RRset(rr.name, rr.rrclass, rr.rrtype,
                                    rr.ttl, [rr.rdata])
        else:
            rrset.ttl = min(rrset.ttl, rr.ttl)
            rrset.add(rr.rdata)

    def add_rrset(self, rrset: RRset) -> None:
        for rr in rrset.to_rrs():
            self.add_rr(rr)

    def remove(self, name: Name, rrtype: Optional[RRType] = None) -> None:
        node = self._nodes.get(name)
        self._canonical_cache = None
        self.generation += 1
        if node is None:
            return
        if rrtype is None:
            del self._nodes[name]
        else:
            node.pop(rrtype, None)
            if not node:
                del self._nodes[name]

    # -- accessors ---------------------------------------------------------

    def get(self, name: Name, rrtype: RRType) -> Optional[RRset]:
        node = self._nodes.get(name)
        if node is None:
            return None
        return node.get(rrtype)

    def node_types(self, name: Name) -> Tuple[RRType, ...]:
        node = self._nodes.get(name, {})
        return tuple(node.keys())

    def names(self) -> List[Name]:
        return sorted(self._nodes.keys())

    def iter_rrsets(self) -> Iterator[RRset]:
        for name in self.names():
            for rrtype in sorted(self._nodes[name], key=int):
                yield self._nodes[name][rrtype]

    def iter_rrs(self) -> Iterator[RR]:
        for rrset in self.iter_rrsets():
            yield from rrset.to_rrs()

    @property
    def soa(self) -> Optional[RRset]:
        return self.get(self.origin, RRType.SOA)

    def record_count(self) -> int:
        return sum(len(rrset) for rrset in self.iter_rrsets())

    def validate(self) -> None:
        """Check invariants a DNS server would enforce at load time."""
        soa = self.soa
        if soa is None:
            raise ZoneError(f"zone {self.origin} lacks an SOA at its apex")
        if len(soa) != 1:
            raise ZoneError(f"zone {self.origin} has {len(soa)} SOA records")
        if self.get(self.origin, RRType.NS) is None:
            raise ZoneError(f"zone {self.origin} lacks apex NS records")
        for name, node in self._nodes.items():
            cname = node.get(RRType.CNAME)
            if cname is None:
                continue
            if len(cname) > 1:
                raise ZoneError(f"{name} has multiple CNAME records")
            others = [t for t in node
                      if t not in (RRType.CNAME, RRType.RRSIG, RRType.NSEC)]
            if others:
                raise ZoneError(f"{name} has CNAME alongside other data")

    # -- delegation and lookup ---------------------------------------------

    def name_index(self) -> NameIndex:
        """The :class:`NameIndex`, rebuilt on first use after a mutation."""
        if self._index_generation != self.generation:
            existing: Set[NameKey] = set()
            cuts: Set[NameKey] = set()
            signed = False
            apex_depth = len(self.origin)
            for name, node in self._nodes.items():
                key = name.key
                for start in range(len(key) - apex_depth + 1):
                    if key[start:] in existing:
                        break  # so are all of its ancestors
                    existing.add(key[start:])
                if RRType.NS in node and len(key) > apex_depth:
                    cuts.add(key)
                signed = signed or RRType.NSEC in node
            self._index = NameIndex(existing, cuts, signed)
            self._index_generation = self.generation
        return self._index

    def _cut_start(self, key: NameKey) -> Optional[int]:
        """Where in ``key`` the deepest cut at-or-above it starts."""
        cuts = self.name_index().cuts
        for start in range(len(key) - len(self.origin) if cuts else 0):
            if key[start:] in cuts:
                return start
        return None

    def _encloser_start(self, key: NameKey) -> Optional[int]:
        """Where in ``key`` its closest existing proper ancestor starts."""
        existing = self.name_index().existing
        for start in range(1, len(key) - len(self.origin) + 1):
            if key[start:] in existing:
                return start
        return None

    def delegation_for(self, name: Name) -> Optional[Name]:
        """The deepest zone cut at-or-above ``name``, excluding the apex."""
        start = self._cut_start(name.key)
        if start is None:
            return None
        return Name._trusted(name.labels[start:], name.key[start:])

    def is_delegation(self, name: Name) -> bool:
        return name.key in self.name_index().cuts

    def cut_or_encloser(self, key: NameKey, ds: bool
                        ) -> Optional[Tuple[AnswerKind, NameKey]]:
        """The node a referral or NXDOMAIN for ``key`` is determined by.

        ``key`` is the lowercased label tuple of a qname under the
        origin.  Returns ``(REFERRAL, cut)`` or ``(NXDOMAIN, closest
        encloser)`` when :meth:`lookup` depends on the qname only through
        that node, else None: the name exists, a wildcard sits at the
        closest encloser, or it is the parent-side DS query at a cut
        (``ds``).  Builds no :class:`Name` (decode-free serving path).
        """
        start = self._cut_start(key)
        if start is not None:
            if start == 0 and ds:
                return None
            return AnswerKind.REFERRAL, key[start:]
        existing = self.name_index().existing
        start = None if key in existing else self._encloser_start(key)
        if start is None or (b"*",) + key[start:] in existing:
            return None
        return AnswerKind.NXDOMAIN, key[start:]

    def glue_for(self, ns_rrset: RRset) -> List[RRset]:
        """In-zone A/AAAA records for nameservers in an NS rrset."""
        glue = []
        for rdata_obj in ns_rrset:
            target = rdata_obj.target  # type: ignore[attr-defined]
            if not target.is_subdomain_of(self.origin):
                continue
            for rrtype in (RRType.A, RRType.AAAA):
                rrset = self.get(target, rrtype)
                if rrset is not None:
                    glue.append(rrset)
        return glue

    def lookup(self, qname: Name, qtype: RRType) -> LookupResult:
        """Authoritative lookup implementing RFC 1034 section 4.3.2."""
        if not qname.is_subdomain_of(self.origin):
            return LookupResult(AnswerKind.OUT_OF_ZONE)

        cut = self.delegation_for(qname)
        if cut is not None and not (cut == qname and qtype == RRType.DS):
            # DS is looked up on the parent side of a cut; everything else
            # below a cut is a referral.
            ns = self._nodes[cut][RRType.NS]
            return LookupResult(AnswerKind.REFERRAL, [ns], node=cut)

        node = self._nodes.get(qname)
        if node is not None:
            rrset = node.get(qtype)
            if rrset is not None:
                return LookupResult(AnswerKind.ANSWER, [rrset], node=qname)
            if qtype == RRType.ANY:
                rrsets = [node[t] for t in sorted(node, key=int)]
                return LookupResult(AnswerKind.ANSWER, rrsets, node=qname)
            cname = node.get(RRType.CNAME)
            if cname is not None:
                return LookupResult(AnswerKind.CNAME, [cname], node=qname)
            return LookupResult(AnswerKind.NODATA, node=qname)

        if qname.key in self.name_index().existing:
            # An "empty non-terminal": the name exists implicitly.
            return LookupResult(AnswerKind.NODATA, node=qname)

        wildcard = self._match_wildcard(qname)
        if wildcard is not None:
            node = self._nodes[wildcard]
            rrset = node.get(qtype)
            if rrset is not None:
                synthesized = RRset(qname, rrset.rrclass, rrset.rrtype,
                                    rrset.ttl, rrset.rdatas)
                return LookupResult(AnswerKind.ANSWER, [synthesized],
                                    node=wildcard, wildcard=True)
            cname = node.get(RRType.CNAME)
            if cname is not None:
                synthesized = RRset(qname, cname.rrclass, cname.rrtype,
                                    cname.ttl, cname.rdatas)
                return LookupResult(AnswerKind.CNAME, [synthesized],
                                    node=wildcard, wildcard=True)
            return LookupResult(AnswerKind.NODATA, node=wildcard,
                                wildcard=True)

        return LookupResult(AnswerKind.NXDOMAIN)

    def canonical_names(self) -> List[Name]:
        """Zone names in RFC 4034 canonical order (cached)."""
        if self._canonical_cache is None:
            self._canonical_cache = sorted(self._nodes.keys())
        return self._canonical_cache

    def covering_name(self, qname: Name) -> Optional[Name]:
        """The greatest existing name canonically <= ``qname``.

        This is the owner of the NSEC record that proves ``qname`` does
        not exist (RFC 4035 §3.1.3.2).
        """
        names = self.canonical_names()
        if not names:
            return None
        index = bisect.bisect_right(names, qname)
        if index == 0:
            return names[-1]  # the chain wraps around
        return names[index - 1]

    def _match_wildcard(self, qname: Name) -> Optional[Name]:
        """Find the wildcard owner covering ``qname`` per RFC 4592.

        The closest encloser is the longest existing ancestor; the source
        of synthesis is ``*.<closest encloser>``.
        """
        start = self._encloser_start(qname.key)
        if start is None:
            return None
        candidate = Name._trusted((b"*",) + qname.labels[start:],
                                  (b"*",) + qname.key[start:])
        return candidate if candidate in self._nodes else None

    def __contains__(self, name: Name) -> bool:
        return name in self._nodes

    def __repr__(self) -> str:
        return (f"Zone({self.origin}, {len(self._nodes)} names, "
                f"{self.record_count()} records)")


def make_soa(origin: Name, serial: int = 1,
             mname: Optional[Name] = None) -> RR:
    """A synthetic-but-valid SOA, used when traces lack one (§2.3)."""
    if mname is None:
        mname = Name.from_text("ns.fake-soa.invalid.")
    rname = Name.from_text("hostmaster.fake-soa.invalid.")
    return RR(origin, 3600, RRClass.IN,
              rd.SOA(mname, rname, serial, 7200, 900, 1209600, 86400))
