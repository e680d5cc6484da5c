"""The authoritative DNS engine with split-horizon views.

This is the logic of the paper's meta-DNS-server (§2.4): a single server
instance hosting *many* zones — potentially every level of the hierarchy —
that selects the zone to answer from based on the query's *source
address* (split-horizon DNS, BIND's ``view``/``match-clients``).  The
recursive proxy rewrites each query's source to the original query
destination address (OQDA), so the source address identifies which
emulated nameserver the query was "really" sent to, and the engine can
give a referral from the root zone or an answer from ``google.com``
for the *same* query content, exactly as independent servers would.

The engine is transport-agnostic: it maps a query ``Message`` plus its
addressing to a response ``Message``.  Socket bindings live in
:mod:`repro.server.hosting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..dns import (AnswerKind, Edns, Flag, Message, Name, Opcode, Question,
                   RRClass, RRType, RRset, Rcode, UDP_PAYLOAD_LIMIT, Zone)
from ..netsim.packet import WireView
from ..perf import PerfCounters
from ..dns.zone import NameKey
from .wirecache import ResponseWireCache, WireCacheEntry


class ConfigError(ValueError):
    pass


@dataclass
class ServerStats:
    queries: int = 0
    responses: int = 0
    refused: int = 0
    nxdomain: int = 0
    referrals: int = 0
    truncated: int = 0
    response_bytes: int = 0
    servfails_shed: int = 0  # overload sheds answered with SERVFAIL
    queries_by_transport: Dict[str, int] = field(default_factory=dict)

    def note_transport(self, transport: str) -> None:
        self.queries_by_transport[transport] = (
            self.queries_by_transport.get(transport, 0) + 1)


class ZoneSet:
    """Zones indexed for longest-origin-match lookup.

    ``version`` increments whenever the *set* of zones changes (a zone is
    added or replaced wholesale); response-wire cache entries record the
    version they were built against, so a reload invalidates them.
    Mutations *inside* a zone are tracked separately by
    :attr:`repro.dns.zone.Zone.generation`.
    """

    def __init__(self, zones: Iterable[Zone] = ()):
        self._zones: Dict[NameKey, Zone] = {}  # by origin.key
        self.version = 0
        for zone in zones:
            self.add(zone)

    def add(self, zone: Zone) -> None:
        if zone.origin.key in self._zones:
            raise ConfigError(f"duplicate zone {zone.origin}")
        self._zones[zone.origin.key] = zone
        self.version += 1

    def replace(self, zone: Zone) -> Optional[Zone]:
        """Swap in a freshly transferred copy of a zone (AXFR reload).

        Returns the previous zone with the same origin, if any.
        """
        previous = self._zones.get(zone.origin.key)
        self._zones[zone.origin.key] = zone
        self.version += 1
        return previous

    def find(self, qname: Name) -> Optional[Zone]:
        """The zone with the longest origin that encloses ``qname``."""
        return self.find_key(qname.key)

    def find_key(self, key: NameKey) -> Optional[Zone]:
        """:meth:`find` on a lowercased label tuple (no :class:`Name`)."""
        zones = self._zones
        for start in range(len(key) + 1):  # deepest first: first hit wins
            zone = zones.get(key[start:])
            if zone is not None:
                return zone
        return None

    def zones(self) -> List[Zone]:
        return list(self._zones.values())

    def zone_at(self, origin: Name) -> Optional[Zone]:
        """The zone with exactly this origin, if hosted."""
        return self._zones.get(origin.key)

    def __len__(self) -> int:
        return len(self._zones)

    def __contains__(self, origin: Name) -> bool:
        return origin.key in self._zones


@dataclass
class View:
    """A split-horizon view: client addresses -> the zones they see.

    ``match_clients`` lists source addresses (the proxies' OQDAs); an
    empty list makes this the catch-all view, like BIND's
    ``match-clients { any; }``.
    """

    name: str
    zones: ZoneSet
    match_clients: Tuple[str, ...] = ()

    def matches(self, source: str) -> bool:
        return not self.match_clients or source in self.match_clients


_DEFAULT_CACHE = object()  # sentinel: build a ResponseWireCache per server


class AuthoritativeServer:
    """Answers queries from hosted zones, selecting by view.

    ``dynamic`` optionally layers CDN-style per-query answers over the
    static zones (see :mod:`repro.server.dynamic`).

    ``wire_cache`` caches encoded responses for the :meth:`serve_wire`
    fast path; it is on by default and can be disabled by passing
    ``wire_cache=None``.  ``perf`` optionally records cache and encode
    counters into a :class:`repro.perf.PerfCounters` registry.
    """

    def __init__(self, views: Optional[Sequence[View]] = None,
                 minimal_responses: bool = True, dynamic=None,
                 wire_cache=_DEFAULT_CACHE,
                 perf: Optional[PerfCounters] = None):
        self.views: List[View] = list(views) if views is not None else []
        self.minimal_responses = minimal_responses
        self.dynamic = dynamic
        self.wire_cache: Optional[ResponseWireCache] = (
            ResponseWireCache() if wire_cache is _DEFAULT_CACHE else wire_cache)
        self.perf = perf
        # Telemetry hub, mirrored from the hosting layer (like perf)
        # only when per-query recording is enabled.
        self.telemetry = None
        self.stats = ServerStats()

    @classmethod
    def single_view(cls, zones: Iterable[Zone]) -> "AuthoritativeServer":
        return cls([View("default", ZoneSet(zones))])

    def add_view(self, view: View) -> None:
        self.views.append(view)

    def view_for(self, source: str) -> Optional[View]:
        for view in self.views:
            if view.matches(source):
                return view
        return None

    def handle_axfr(self, query: Message,
                    source: str = "0.0.0.0") -> Optional[List[Message]]:
        """RFC 5936 zone transfer out of the source's view (TCP only)."""
        from .axfr import handle_axfr as dispatch
        view = self.view_for(source)
        if view is None:
            return [Message.make_response(query, rcode=Rcode.REFUSED)]
        zones_by_origin = {zone.origin: zone
                           for zone in view.zones.zones()}
        return dispatch(zones_by_origin, query)

    # -- query handling --------------------------------------------------

    def handle_query(self, query: Message, source: str = "0.0.0.0",
                     transport: str = "udp") -> Message:
        """Produce the response message for one query."""
        self.stats.queries += 1
        self.stats.note_transport(transport)

        if query.opcode != Opcode.QUERY or not query.question:
            return self._finish(self._refuse(query, Rcode.NOTIMP), transport)
        question = query.question[0]
        if question.rrclass != RRClass.IN:
            return self._finish(self._refuse(query, Rcode.REFUSED), transport)

        view = self.view_for(source)
        if view is None:
            return self._finish(self._refuse(query, Rcode.REFUSED), transport)
        zone = view.zones.find(question.name)
        if zone is None:
            return self._finish(self._refuse(query, Rcode.REFUSED), transport)

        response = Message.make_response(query)
        dnssec = query.dnssec_ok
        if self.dynamic is not None:
            synthesized = self.dynamic.answer(question.name,
                                              question.rrtype, source)
            if synthesized is not None:
                response.set_flag(Flag.AA)
                response.answer.extend(synthesized.to_rrs())
                return self._finish(response, transport)
        self._answer_from_zone(zone, question, response, dnssec)
        return self._finish(response, transport)

    def _answer_from_zone(self, zone: Zone, question: Question,
                          response: Message, dnssec: bool) -> None:
        qname, qtype = question.name, question.rrtype
        visited = set()
        while True:
            result = zone.lookup(qname, qtype)
            if result.kind == AnswerKind.ANSWER:
                response.set_flag(Flag.AA)
                for rrset in result.rrsets:
                    response.answer.extend(rrset.to_rrs())
                    if dnssec:
                        self._add_rrsigs(zone, result, rrset, response.answer)
                    if rrset.rrtype == RRType.NS:
                        # Real servers attach in-zone nameserver
                        # addresses; zone harvesting relies on this.
                        for glue in zone.glue_for(rrset):
                            response.additional.extend(glue.to_rrs())
                return
            if result.kind == AnswerKind.CNAME:
                response.set_flag(Flag.AA)
                cname_rrset = result.rrsets[0]
                response.answer.extend(cname_rrset.to_rrs())
                if dnssec:
                    self._add_rrsigs(zone, result, cname_rrset,
                                     response.answer)
                target = cname_rrset.rdatas[0].target  # type: ignore
                if target in visited or not target.is_subdomain_of(zone.origin):
                    return  # out-of-zone target: client re-queries
                visited.add(target)
                qname = target
                continue
            if result.kind == AnswerKind.REFERRAL:
                self.stats.referrals += 1
                ns_rrset = result.rrsets[0]
                response.authority.extend(ns_rrset.to_rrs())
                if dnssec:
                    ds = zone.get(result.node, RRType.DS)
                    if ds is not None:
                        response.authority.extend(ds.to_rrs())
                        self._append_sigs(zone, result.node, RRType.DS,
                                          response.authority)
                for glue in zone.glue_for(ns_rrset):
                    response.additional.extend(glue.to_rrs())
                return
            if result.kind == AnswerKind.NXDOMAIN:
                self.stats.nxdomain += 1
                response.rcode = Rcode.NXDOMAIN
                response.set_flag(Flag.AA)
                self._add_soa(zone, response, dnssec)
                if dnssec:
                    self._add_denial(zone, qname, response)
                return
            if result.kind == AnswerKind.NODATA:
                response.set_flag(Flag.AA)
                self._add_soa(zone, response, dnssec)
                if dnssec:
                    self._add_denial(zone, qname, response,
                                     nodata=True)
                return
            # OUT_OF_ZONE cannot happen: the zone was chosen by suffix.
            response.rcode = Rcode.SERVFAIL
            return

    def _add_soa(self, zone: Zone, response: Message, dnssec: bool) -> None:
        soa = zone.soa
        if soa is not None:
            response.authority.extend(soa.to_rrs())
            if dnssec:
                self._append_sigs(zone, zone.origin, RRType.SOA,
                                  response.authority)

    def _add_denial(self, zone: Zone, qname: Name, response: Message,
                    nodata: bool = False) -> None:
        """NSEC denial of existence (RFC 4035 §3.1.3): the covering NSEC
        for the qname plus, for NXDOMAIN, the wildcard-denying apex
        NSEC.  This is what makes signed negative answers large — the
        dominant term in root DNSSEC traffic (Fig 10)."""
        owners = []
        covering = zone.covering_name(qname)
        if covering is not None:
            owners.append(covering)
        if not nodata and zone.origin not in owners:
            owners.append(zone.origin)
        seen = set()
        for owner in owners:
            if owner in seen:
                continue
            seen.add(owner)
            nsec = zone.get(owner, RRType.NSEC)
            if nsec is not None:
                response.authority.extend(nsec.to_rrs())
                self._append_sigs(zone, owner, RRType.NSEC,
                                  response.authority)

    def _add_rrsigs(self, zone: Zone, result, rrset: RRset,
                    target_section: List) -> None:
        owner = result.node if result.wildcard else rrset.name
        self._append_sigs(zone, owner, rrset.rrtype, target_section,
                          rename_to=rrset.name)

    def _append_sigs(self, zone: Zone, owner: Name, covered: RRType,
                     section: List, rename_to: Optional[Name] = None) -> None:
        sigs = zone.get(owner, RRType.RRSIG)
        if sigs is None:
            return
        for rr in sigs.to_rrs():
            if rr.rdata.type_covered == covered:  # type: ignore[attr-defined]
                if rename_to is not None and rename_to != rr.name:
                    rr = type(rr)(rename_to, rr.ttl, rr.rrclass, rr.rdata)
                section.append(rr)

    def _refuse(self, query: Message, rcode: Rcode) -> Message:
        self.stats.refused += 1
        return Message.make_response(query, rcode=rcode)

    def _finish(self, response: Message, transport: str) -> Message:
        self.stats.responses += 1
        return response

    def shed_response(self, query: Message, transport: str = "udp") -> bytes:
        """Answer an overload-shed query with a minimal SERVFAIL.

        Bypasses lookup entirely — the whole point of shedding is not
        doing the work — but keeps the books: the shed is visible in
        :class:`ServerStats` rather than disappearing into a timeout.
        """
        from .overload import minimal_wire
        self.stats.servfails_shed += 1
        return minimal_wire(query, rcode=Rcode.SERVFAIL)

    @staticmethod
    def udp_limit(query: Message) -> int:
        """Maximum UDP response size the client advertised."""
        if query.edns is not None:
            return max(query.edns.payload_size, UDP_PAYLOAD_LIMIT)
        return UDP_PAYLOAD_LIMIT

    def encode_response(self, query: Message, response: Message,
                        transport: str) -> bytes:
        """Encode for the transport, truncating oversize UDP replies."""
        if transport != "udp":
            return response.to_wire()
        limit = self.udp_limit(query)
        full = response.to_wire()
        if len(full) <= limit:
            self.stats.response_bytes += len(full)
            return full
        self.stats.truncated += 1
        wire = response.to_wire(max_size=limit)
        self.stats.response_bytes += len(wire)
        return wire

    # -- wire fast path ---------------------------------------------------

    def serve_wire(self, query: Message, source: str = "0.0.0.0",
                   transport: str = "udp") -> bytes:
        """Answer ``query`` as encoded bytes via the response-wire cache.

        On a hit, the stored wire is returned with only the 2-byte
        message ID patched — or, for a referral or NXDOMAIN, a per-node
        template with the query's question spliced in — and lookup and
        encoding are skipped entirely.
        Responses are byte-identical to the uncached
        ``handle_query`` + ``encode_response`` path modulo the message ID.
        Queries the cache cannot key safely (non-QUERY opcodes, non-IN
        classes, multi-question messages, names covered by the dynamic
        overlay, sources with no matching view) fall through to the slow
        path untouched.
        """
        cache = self.wire_cache
        question = query.question[0] if query.question else None
        cacheable = (cache is not None
                     and query.opcode == Opcode.QUERY
                     and len(query.question) == 1
                     and question.rrclass == RRClass.IN)
        if cacheable and self.dynamic is not None \
                and self.dynamic.policy_for(question.name) is not None:
            cacheable = False
        view = self.view_for(source) if cacheable else None
        if cacheable and view is None:
            cacheable = False
        if not cacheable:
            response = self.handle_query(query, source, transport)
            return self.encode_response(query, response, transport)

        edns = query.edns
        qname, qtype = question.name, int(question.rrtype)
        flags = (bool(query.flags & Flag.RD), edns is not None,
                 edns.dnssec_ok if edns is not None else False,
                 self.udp_limit(query) if transport == "udp" else None)
        key = (id(view), qname.labels, qtype, int(question.rrclass)) + flags
        evictions_before = cache.evictions
        invalidations_before = cache.invalidations
        ident = query.msg_id.to_bytes(2, "big")
        entry = cache.get_if_hit(key, view.zones.version)
        template_key = None
        if entry is not None:
            self._book_hit(entry, transport, entry.stat_deltas[4])
            wire = ident + entry.wire[2:]
        else:
            wire, template_key = self._serve_template(
                cache, view, qname.labels, qname.key, qtype, flags, ident,
                qname.to_wire() + qtype.to_bytes(2, "big") + b"\x00\x01",
                transport)
        if wire is not None:
            if self.telemetry is not None:
                self.telemetry.server_event(query, "server.cache_hit")
            return wire

        cache.misses += 1
        stats = self.stats
        before = (stats.refused, stats.nxdomain, stats.referrals,
                  stats.truncated, stats.response_bytes)
        zone = view.zones.find(qname)
        zone_generation = zone.generation if zone is not None else -1
        response = self.handle_query(query, source, transport)
        wire = self.encode_response(query, response, transport)
        entry = WireCacheEntry(
            b"\x00\x00" + wire[2:], view.zones.version, zone,
            zone_generation,
            (stats.refused - before[0], stats.nxdomain - before[1],
             stats.referrals - before[2], stats.truncated - before[3],
             stats.response_bytes - before[4]))
        # A response a template can serve is stored once under its node,
        # never under its (often single-use) qname.
        if template_key is not None and entry.as_template(
                qname.key, template_key[2], 16 + len(qname.to_wire()),
                [rr.name.key for section in (response.answer,
                                             response.authority,
                                             response.additional)
                 for rr in section]):
            key = template_key
        cache.put(key, entry)
        if self.perf is not None:
            self.perf.incr("server.wire_cache_misses")
            # Mirror the cache's own eviction/invalidation tallies into
            # the registry, so they reach rendered reports (they were
            # previously counted on the cache object only).
            evicted = cache.evictions - evictions_before
            if evicted:
                self.perf.incr("server.wire_cache_evictions", evicted)
            invalidated = cache.invalidations - invalidations_before
            if invalidated:
                self.perf.incr("server.wire_cache_invalidations",
                               invalidated)
        if self.telemetry is not None:
            self.telemetry.server_event(query, "server.cache_miss")
        return wire

    def _book_hit(self, entry: WireCacheEntry, transport: str,
                  response_bytes: int, counter: str = "") -> None:
        """Leave :class:`ServerStats` where the uncached engine would."""
        stats = self.stats
        stats.queries += 1
        stats.responses += 1
        stats.note_transport(transport)
        deltas = entry.stat_deltas
        stats.refused += deltas[0]
        stats.nxdomain += deltas[1]
        stats.referrals += deltas[2]
        stats.truncated += deltas[3]
        stats.response_bytes += response_bytes
        if self.perf is not None:
            self.perf.incr("server.wire_cache_hits")
            if counter:
                self.perf.incr(counter)

    def _serve_template(self, cache: ResponseWireCache, view: View,
                        labels: NameKey, lowered: NameKey, qtype: int,
                        flags: Tuple, ident: bytes, question: bytes,
                        transport: str
                        ) -> Tuple[Optional[bytes], Optional[Tuple]]:
        """Probe the wire cache's second key shape (see wirecache.py).

        ``flags`` is the exact key's ``(rd, edns, do, limit)`` tail and
        ``question`` the query's question section.  Returns ``(response,
        None)`` on a hit, which is booked here; ``(None, key)`` when the
        slow path's response may become the template under ``key``; and
        ``(None, None)`` when the key cannot prove that the answer
        depends on the qname only through a zone cut or closest encloser
        (a dynamic overlay, a name that exists, a wildcard, DS at a cut)
        or the stored template declines this qname (see
        :meth:`WireCacheEntry.splice`).  The slow path then answers, and
        stays the reference the differential suite compares against.
        """
        if self.dynamic is not None:
            return None, None
        zone = view.zones.find_key(lowered)
        located = zone.cut_or_encloser(lowered, qtype == RRType.DS) \
            if zone is not None else None
        if located is None:
            return None, None
        kind, node = located
        covering = None
        if kind is AnswerKind.NXDOMAIN and flags[2] and zone.name_index().signed:
            # Signed denial: the NSEC chosen depends on the qname too.
            covering = zone.covering_name(Name._trusted(labels, lowered)).key
        key = (id(view), kind, node, covering) + flags
        entry = cache.peek(key, view.zones.version)
        if entry is None:
            return None, key
        wire = entry.splice(ident, question, lowered, flags[3])
        if wire is None:
            return None, None
        cache.hit_template(key)
        self._book_hit(entry, transport, len(wire) if flags[3] else 0,
                       "server.wire_cache_template_hits")
        return wire, None

    def serve_wire_fast(self, wire_query: bytes, source: str = "0.0.0.0",
                        transport: str = "udp"
                        ) -> Union[WireView, bytes, None]:
        """Zero-copy cache probe straight off the encoded query.

        The hot-loop complement to :meth:`serve_wire`: the cache key is
        parsed out of the wire with :func:`_parse_query_key` — no
        :meth:`Message.from_wire`, which dominates the per-query cost —
        and an exact-qname hit is served as a :class:`WireView` pairing
        the query's own 2-byte message ID with the entry's shared
        readonly body view: no ``bytes`` copy of the response, ever.
        When that probe misses, the per-node template is tried
        (:meth:`_serve_template`); its hit is a freshly spliced ``bytes``.

        Returns None whenever the full path must run: cache disabled, a
        dynamic overlay installed (its per-name policies are invisible
        to the wire-level key), a query shape the key parser does not
        cover, no matching view, or simply a cache miss.  Misses are
        *not* counted here — the slow path books them — so hit/miss
        accounting stays single-entry.

        Safety: the parser only produces a key after validating the
        query's complete structure (header counts and RCODE, label
        lengths, EDNS options, exact wire consumption), so a wire the
        hardened decoder would reject is declined here too and falls
        through to the decode path to fail exactly as before.
        """
        cache = self.wire_cache
        if cache is None or self.dynamic is not None:
            return None
        parsed = _parse_query_key(wire_query, transport == "udp")
        if parsed is None:
            return None
        view = self.view_for(source)
        if view is None:
            return None
        entry = cache.get_if_hit((id(view),) + parsed, view.zones.version)
        if entry is None:
            labels = parsed[0]
            question_end = 17 + len(labels) + sum(map(len, labels))
            return self._serve_template(
                cache, view, labels, tuple([label.lower() for label in labels]),
                parsed[1], parsed[3:], wire_query[:2],
                wire_query[12:question_end], transport)[0]
        self._book_hit(entry, transport, entry.stat_deltas[4],
                       "server.zero_copy_hits")
        return WireView(wire_query[:2], entry.body_view)


def _parse_query_key(wire: bytes, is_udp: bool) -> Optional[Tuple]:
    """Extract the wire-cache key fields from an encoded query.

    Returns ``(labels, qtype, qclass, rd, edns_present, do, limit)`` —
    exactly the tail of the key :meth:`AuthoritativeServer.serve_wire`
    builds from a decoded :class:`Message` — or None for any shape the
    fast path does not handle: responses, non-QUERY opcodes, anything
    but exactly one question, answer/authority records in a query,
    compressed or oversized labels, more than a lone well-formed OPT in
    additional, non-IN classes, an undefined RCODE, ragged EDNS options or
    trailing bytes.  The decoder rejects the last three, so the fast path
    must not accept them either: a template hit, unlike an exact-qname
    hit, needs no earlier decoded query to have vouched for the name.
    """
    n = len(wire)
    if n < 16:  # header + root qname + qtype + qclass
        return None
    flags = (wire[2] << 8) | wire[3]
    if flags & 0xF800 or flags & 0x000F > 5:  # QR, opcode != QUERY, RCODE
        return None  # (an undefined RCODE fails the decoder's enum)
    if wire[4] or wire[5] != 1:  # QDCOUNT != 1
        return None
    if wire[6] or wire[7] or wire[8] or wire[9]:  # ANCOUNT/NSCOUNT != 0
        return None
    if wire[10] or wire[11] > 1:  # ARCOUNT > 1
        return None
    pos = 12
    labels = []
    name_length = 1
    while True:
        length = wire[pos]
        if length == 0:
            pos += 1
            break
        if length > 63:  # compression pointer or malformed label
            return None
        end = pos + 1 + length
        name_length += length + 1
        if end >= n or name_length > 255:
            return None
        labels.append(wire[pos + 1:end])
        pos = end
    if pos + 4 > n:
        return None
    qtype = (wire[pos] << 8) | wire[pos + 1]
    qclass = (wire[pos + 2] << 8) | wire[pos + 3]
    if qclass != 1:  # IN only, matching the serve_wire cacheable check
        return None
    pos += 4
    edns_present = False
    dnssec_ok = False
    payload_size = 0
    if wire[11]:  # the lone additional record must be a root-owned OPT
        if pos + 11 > n or wire[pos] != 0:
            return None
        if wire[pos + 1] or wire[pos + 2] != 41:  # TYPE != OPT
            return None
        edns_present = True
        payload_size = (wire[pos + 3] << 8) | wire[pos + 4]
        dnssec_ok = bool(wire[pos + 7] & 0x80)
        if pos + 11 + ((wire[pos + 9] << 8) | wire[pos + 10]) != n:
            return None
        pos += 11
        while pos + 4 <= n:  # options: the decoder rejects a ragged tail
            pos += 4 + ((wire[pos + 2] << 8) | wire[pos + 3])
    if pos != n:  # trailing bytes: the decode path rejects these
        return None
    if is_udp:
        limit = max(payload_size, UDP_PAYLOAD_LIMIT) if edns_present \
            else UDP_PAYLOAD_LIMIT
    else:
        limit = None
    return (tuple(labels), qtype, qclass, bool(flags & 0x0100),
            edns_present, dnssec_ok, limit)
