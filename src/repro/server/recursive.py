"""An iterative (recursive-resolving) DNS server over the simulator.

Implements the resolver side of RFC 1034 §5.3.3: start from the best
cached nameservers (ultimately root hints), follow referrals down the
hierarchy, chase CNAMEs, resolve nameserver addresses when glue is
absent, cache everything by TTL, and answer stub queries.

This is the "recursive server" of the paper's replay architecture
(Figure 1): replayed stub queries hit this resolver, whose upstream
queries are diverted by the recursive proxy toward the meta-DNS-server.
The resolver itself is unaware of the proxies — it believes it is
talking to ``a.root-servers.net`` and friends at their public addresses,
which is exactly the property the proxy/split-horizon machinery must
preserve (§2.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..dns import (DNS_PORT, Edns, Flag, Message, Name, Opcode, Question,
                   RRType, RRset, Rcode)
from ..netsim import EventLoop, Host, TcpOptions, TcpStack
from .cache import CacheOutcome, DnsCache
from .dnsio import StreamFramer, frame_message

MAX_REFERRALS = 30
MAX_CNAME_CHAIN = 12
MAX_NS_RESOLUTION_DEPTH = 4
DEFAULT_QUERY_TIMEOUT = 2.0
DEFAULT_NEGATIVE_TTL = 900.0


@dataclass
class ResolverStats:
    stub_queries: int = 0
    upstream_queries: int = 0
    upstream_timeouts: int = 0
    servfail: int = 0
    answered_from_cache: int = 0
    aggregated_queries: int = 0  # duplicates joined onto in-flight work
    tcp_fallbacks: int = 0       # truncated UDP replies re-asked over TCP


@dataclass
class _Resolution:
    """State of one in-progress iterative resolution."""

    question: Question
    on_complete: Callable[[Message], None]
    dnssec_ok: bool
    referrals: int = 0
    cname_chain: int = 0
    depth: int = 0
    answer_rrs: List = field(default_factory=list)
    servers_tried: int = 0
    candidate_addresses: List[str] = field(default_factory=list)
    current_zone: Optional[Name] = None


class RecursiveResolver:
    """Iterative resolution engine bound to a simulated host."""

    def __init__(self, host: Host, root_hints: Dict[Name, List[str]],
                 query_timeout: float = DEFAULT_QUERY_TIMEOUT,
                 dnssec_ok: bool = False):
        self.host = host
        self.loop: EventLoop = host.network.loop
        self.root_hints = root_hints
        self.query_timeout = query_timeout
        self.dnssec_ok = dnssec_ok
        self.cache = DnsCache(lambda: self.loop.now)
        self.stats = ResolverStats()
        self._socket = host.bind_udp(host.primary_address, 0,
                                     self._on_upstream_response)
        self._next_id = 1
        self._in_flight: Dict[int, Tuple[_Resolution, object]] = {}
        # Query aggregation: identical concurrent questions share one
        # resolution (what BIND/unbound call duplicate suppression).
        self._aggregated: Dict[Tuple[Name, RRType, bool],
                               List[Callable[[Message], None]]] = {}

    # -- engine interface (used by HostedDnsServer) ------------------------

    def handle_query_async(self, query: Message, source: str,
                           transport: str,
                           respond: Callable[[Message], None]) -> None:
        self.stats.stub_queries += 1
        if query.opcode != Opcode.QUERY or not query.question:
            respond(Message.make_response(query, rcode=Rcode.NOTIMP))
            return
        question = query.question[0]

        def complete(result: Message) -> None:
            result.msg_id = query.msg_id
            result.question = list(query.question)
            result.set_flag(Flag.RA)
            result.set_flag(Flag.QR)
            if query.flags & Flag.RD:
                result.set_flag(Flag.RD)
            if query.edns is not None and result.edns is None:
                result.edns = Edns(dnssec_ok=query.dnssec_ok)
            respond(result)

        self.resolve(question, complete, dnssec_ok=query.dnssec_ok)

    # -- public resolution API -------------------------------------------

    def resolve(self, question: Question,
                on_complete: Callable[[Message], None],
                dnssec_ok: Optional[bool] = None) -> None:
        do_bit = self.dnssec_ok if dnssec_ok is None else dnssec_ok
        key = (question.name, question.rrtype, do_bit)
        waiters = self._aggregated.get(key)
        if waiters is not None:
            # Same question already resolving: join it (aggregation).
            self.stats.aggregated_queries += 1
            waiters.append(on_complete)
            return
        self._aggregated[key] = [on_complete]

        def fan_out(result: Message) -> None:
            callbacks = self._aggregated.pop(key, [])
            for index, callback in enumerate(callbacks):
                if index == 0:
                    callback(result)
                else:
                    # Later waiters get their own copy: each stub reply
                    # is stamped with a different message ID.
                    callback(Message.from_wire(result.to_wire()))

        resolution = _Resolution(question=question, on_complete=fan_out,
                                 dnssec_ok=do_bit)
        self._step(resolution)

    # -- resolution machinery ------------------------------------------------

    def _step(self, resolution: _Resolution) -> None:
        question = resolution.question
        outcome, entry = self.cache.get(question.name, question.rrtype)
        if outcome == CacheOutcome.HIT:
            self.stats.answered_from_cache += 1
            resolution.answer_rrs.extend(entry.rrset.to_rrs())
            self._complete(resolution, Rcode.NOERROR)
            return
        if outcome == CacheOutcome.NEGATIVE_HIT:
            self.stats.answered_from_cache += 1
            self._complete(resolution, Rcode(entry.negative_rcode))
            return
        # Chase a cached CNAME before asking the network.
        cname_outcome, cname_entry = self.cache.get(question.name,
                                                    RRType.CNAME)
        if (cname_outcome == CacheOutcome.HIT
                and question.rrtype != RRType.CNAME):
            resolution.answer_rrs.extend(cname_entry.rrset.to_rrs())
            if not self._follow_cname(resolution, cname_entry.rrset):
                return
            self._step(resolution)
            return
        self._query_authorities(resolution)

    def _query_authorities(self, resolution: _Resolution) -> None:
        question = resolution.question
        addresses = self._nameserver_addresses(resolution, question.name)
        if addresses is None:
            return  # a sub-resolution for NS addresses is in flight
        if not addresses:
            self._fail(resolution)
            return
        resolution.candidate_addresses = addresses
        resolution.servers_tried = 0
        self._send_upstream(resolution)

    def _nameserver_addresses(self, resolution: _Resolution,
                              qname: Name) -> Optional[List[str]]:
        """Addresses of the best-known nameservers for ``qname``.

        Returns None when an address sub-resolution was kicked off; the
        parent resolution resumes once it lands.
        """
        ns_rrset = self.cache.best_nameservers(qname)
        if ns_rrset is not None:
            resolution.current_zone = ns_rrset.name
            targets = [r.target for r in ns_rrset.rdatas]
        else:
            resolution.current_zone = Name(())
            targets = sorted(self.root_hints.keys())

        addresses: List[str] = []
        missing: List[Name] = []
        for target in targets:
            hinted = self.root_hints.get(target)
            if hinted:
                addresses.extend(hinted)
                continue
            outcome, entry = self.cache.get(target, RRType.A)
            if outcome == CacheOutcome.HIT:
                addresses.extend(r.address for r in entry.rrset.rdatas)
            else:
                missing.append(target)

        if addresses:
            return addresses
        if not missing:
            return []
        if resolution.depth >= MAX_NS_RESOLUTION_DEPTH:
            self._fail(resolution)
            return None
        # Resolve the first missing nameserver's address, then resume.
        target = missing[0]

        def resumed(result: Message) -> None:
            if result.rcode == Rcode.NOERROR and result.answer:
                self._query_authorities(resolution)
            else:
                self._fail(resolution)

        sub = _Resolution(question=Question(target, RRType.A),
                          on_complete=resumed, dnssec_ok=False,
                          depth=resolution.depth + 1)
        self._step(sub)
        return None

    def _send_upstream(self, resolution: _Resolution) -> None:
        if resolution.servers_tried >= len(resolution.candidate_addresses):
            self._fail(resolution)
            return
        address = resolution.candidate_addresses[resolution.servers_tried]
        resolution.servers_tried += 1

        msg_id = self._allocate_id()
        query = Message.make_query(
            resolution.question.name, resolution.question.rrtype,
            msg_id=msg_id, recursion_desired=False,
            edns=Edns(dnssec_ok=resolution.dnssec_ok))
        self.stats.upstream_queries += 1
        timer = self.loop.call_later(self.query_timeout,
                                     self._on_timeout, msg_id)
        self._in_flight[msg_id] = (resolution, timer)
        self._socket.sendto(query.to_wire(), address, DNS_PORT)

    def _allocate_id(self) -> int:
        for _ in range(0xFFFF):
            msg_id = self._next_id
            self._next_id = (self._next_id % 0xFFFF) + 1
            if msg_id not in self._in_flight:
                return msg_id
        raise RuntimeError("no free query IDs")

    def _on_timeout(self, msg_id: int) -> None:
        entry = self._in_flight.pop(msg_id, None)
        if entry is None:
            return
        resolution, _timer = entry
        self.stats.upstream_timeouts += 1
        self._send_upstream(resolution)  # try the next server

    def _on_upstream_response(self, _sock, data: bytes, src: str,
                              _sport: int) -> None:
        try:
            response = Message.from_wire(data)
        except Exception:
            return
        entry = self._in_flight.pop(response.msg_id, None)
        if entry is None:
            return
        resolution, timer = entry
        timer.cancel()
        self._process_response(resolution, response, source=src)

    def _retry_over_tcp(self, resolution: _Resolution, address: str,
                        truncated: Message) -> None:
        """RFC 7766: a TC=1 UDP reply means re-ask over TCP."""
        self.stats.tcp_fallbacks += 1
        if self.host.tcp_stack is None:
            TcpStack(self.host)
        query = Message.make_query(
            resolution.question.name, resolution.question.rrtype,
            msg_id=truncated.msg_id, recursion_desired=False,
            edns=Edns(dnssec_ok=resolution.dnssec_ok))
        framer = StreamFramer()
        connection = self.host.tcp_stack.connect(
            self.host.primary_address, address, DNS_PORT,
            TcpOptions(nagle=False))
        state = {"done": False}

        def finish_failure(*_args) -> None:
            if not state["done"]:
                state["done"] = True
                connection.close()
                self._send_upstream(resolution)  # try the next server

        def on_message(wire: bytes) -> None:
            if state["done"]:
                return
            state["done"] = True
            try:
                full = Message.from_wire(wire)
            except Exception:
                finish_failure()
                return
            connection.close()
            self._process_response(resolution, full)

        framer.on_message = on_message
        connection.on_data = lambda _cn, data: framer.feed(data)
        connection.on_reset = finish_failure
        connection.on_close = lambda cn: (finish_failure(), cn.close())
        connection.send(frame_message(query.to_wire()))

    def _process_response(self, resolution: _Resolution,
                          response: Message, source: Optional[str] = None
                          ) -> None:
        question = resolution.question
        if response.flags & Flag.TC and source is not None:
            self._retry_over_tcp(resolution, source, response)
            return
        if response.rcode == Rcode.NXDOMAIN:
            ttl = self._soa_ttl(response)
            self.cache.put_negative(question.name, question.rrtype, ttl,
                                    int(Rcode.NXDOMAIN))
            self._complete(resolution, Rcode.NXDOMAIN,
                           authority=response.authority)
            return
        if response.rcode != Rcode.NOERROR:
            self._send_upstream(resolution)  # lame server: try another
            return

        for section in (response.answer, response.authority,
                        response.additional):
            self._cache_section(section)

        answer_rrsets = _group_rrsets(response.answer)
        direct = [rs for rs in answer_rrsets
                  if rs.name == question.name and rs.rrtype == question.rrtype]
        cnames = [rs for rs in answer_rrsets
                  if rs.name == question.name and rs.rrtype == RRType.CNAME]

        if direct:
            resolution.answer_rrs.extend(response.answer)
            self._complete(resolution, Rcode.NOERROR)
            return
        if cnames and question.rrtype != RRType.CNAME:
            resolution.answer_rrs.extend(cnames[0].to_rrs())
            if not self._follow_cname(resolution, cnames[0]):
                return
            self._step(resolution)
            return

        ns_sets = [rs for rs in _group_rrsets(response.authority)
                   if rs.rrtype == RRType.NS]
        if ns_sets and not response.flags & Flag.AA:
            # A referral: descend if it makes progress.
            referral_zone = ns_sets[0].name
            if (resolution.current_zone is not None
                    and len(referral_zone) <= len(resolution.current_zone)):
                self._send_upstream(resolution)  # no progress: bad referral
                return
            resolution.referrals += 1
            if resolution.referrals > MAX_REFERRALS:
                self._fail(resolution)
                return
            self._query_authorities(resolution)
            return

        # NODATA: the name exists but not this type.
        ttl = self._soa_ttl(response)
        self.cache.put_negative(question.name, question.rrtype, ttl,
                                int(Rcode.NOERROR))
        self._complete(resolution, Rcode.NOERROR,
                       authority=response.authority)

    def _follow_cname(self, resolution: _Resolution, rrset: RRset) -> bool:
        resolution.cname_chain += 1
        if resolution.cname_chain > MAX_CNAME_CHAIN:
            self._fail(resolution)
            return False
        target = rrset.rdatas[0].target  # type: ignore[attr-defined]
        resolution.question = Question(target, resolution.question.rrtype,
                                       resolution.question.rrclass)
        return True

    def _cache_section(self, section) -> None:
        for rrset in _group_rrsets(section):
            if rrset.rrtype == RRType.RRSIG:
                continue
            self.cache.put(rrset)

    def _soa_ttl(self, response: Message) -> float:
        for rr in response.authority:
            if rr.rrtype == RRType.SOA:
                return float(min(rr.ttl, rr.rdata.minimum))
        return DEFAULT_NEGATIVE_TTL

    def _complete(self, resolution: _Resolution, rcode: Rcode,
                  authority=None) -> None:
        message = Message(rcode=rcode, flags=Flag.QR)
        message.answer = list(resolution.answer_rrs)
        if authority:
            message.authority = list(authority)
        resolution.on_complete(message)

    def _fail(self, resolution: _Resolution) -> None:
        self.stats.servfail += 1
        resolution.on_complete(Message(rcode=Rcode.SERVFAIL, flags=Flag.QR))


def _group_rrsets(section) -> List[RRset]:
    groups: Dict[tuple, List] = {}
    order: List[tuple] = []
    for rr in section:
        key = (rr.name, rr.rrclass, rr.rrtype)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rr)
    return [RRset.from_rrs(groups[key]) for key in order]
