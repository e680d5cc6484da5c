"""Synthetic workload and zone generators.

The paper drives its evaluation with B-Root DITL captures, a
department-level recursive trace (Rec-17), and five fixed-interval
synthetic traces (Table 1).  The real captures are proprietary
(DNS-OARC), so this module generates statistically-shaped stand-ins
(substitution documented in DESIGN.md):

* :func:`fixed_interval_trace` — syn-0 … syn-4: one query every
  0.1 ms … 1 s, each with a unique name (§4.1);
* :class:`BRootWorkload` — root-server traffic with the properties the
  experiments depend on: a heavy-tailed client population (≈1 % of
  clients send ≈75 % of queries; ≈81 % send fewer than 10 — Fig 15c),
  rate variation over time, ≈72.3 % DO-bit queries, ≈3 % TCP, and a
  qname mix of delegated TLDs and junk (root reality: most queries are
  NXDOMAIN);
* :class:`RecursiveWorkload` — Rec-17-like: ~91 clients, ~20 k queries
  per hour, names spread over ~549 zones;
* :func:`make_root_zone` / :func:`make_hierarchy_zones` — matching zone
  data so generated queries are answerable.

Everything is seeded and deterministic: replaying the same spec twice,
in any process, yields byte-identical traces (§2.1 repeatability).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import ipaddress
import math
import random
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dns import (DNS_PORT, Edns, Message, Name, RRClass, RRType, Zone,
                   make_soa, rdata_from_text)
from ..dns import rdata as rd
from ..dns.rrset import RR
from .record import QueryRecord, Trace

DEFAULT_SERVER_ADDRESS = "10.0.0.2"

# A representative TLD list: the real root has ~1500 delegations; tests
# and experiments usually scale this down.
_COMMON_TLDS = [
    "com", "net", "org", "edu", "gov", "mil", "int", "arpa", "io", "co",
    "uk", "de", "jp", "fr", "au", "us", "ru", "ch", "it", "nl", "se",
    "no", "es", "br", "ca", "cn", "in", "kr", "mx", "pl", "tv", "info",
    "biz", "name", "mobi", "app", "dev", "cloud", "online", "site",
]


def _tld_names(count: int) -> List[str]:
    names = list(_COMMON_TLDS[:count])
    index = 0
    while len(names) < count:
        names.append(f"tld{index:04d}")
        index += 1
    return names


def _address_block(base: str, index: int) -> str:
    return str(ipaddress.IPv4Address(int(ipaddress.IPv4Address(base))
                                     + index))


# ---------------------------------------------------------------------------
# Zones
# ---------------------------------------------------------------------------

def make_root_zone(tld_count: int = 40,
                   servers_per_tld: int = 2) -> Zone:
    """A root zone with ``tld_count`` delegations and glue."""
    root = Name(())
    zone = Zone(root)
    zone.add_rr(make_soa(root))
    root_ns = Name.from_text("a.root-servers.net.")
    zone.add_rr(RR(root, 518400, RRClass.IN, rd.NS(root_ns)))
    zone.add_rr(RR(root_ns, 518400, RRClass.IN, rd.A("198.41.0.4")))
    for index, tld in enumerate(_tld_names(tld_count)):
        tld_name = Name.from_text(tld + ".")
        for server in range(servers_per_tld):
            ns_name = Name.from_text(f"ns{server + 1}.nic.{tld}.")
            zone.add_rr(RR(tld_name, 172800, RRClass.IN, rd.NS(ns_name)))
            address = _address_block("192.16.0.0",
                                     index * servers_per_tld + server)
            zone.add_rr(RR(ns_name, 172800, RRClass.IN, rd.A(address)))
    return zone


def make_hierarchy_zones(tld_count: int = 4, slds_per_tld: int = 6,
                         hosts_per_sld: int = 3) -> List[Zone]:
    """Root + TLD + SLD zones forming a consistent small hierarchy.

    Used by hierarchy-emulation tests, the recursive workload, and the
    zone-construction pipeline (each SLD has its own nameserver with a
    distinct public address, so zone cuts are real).
    """
    zones = [make_root_zone(tld_count)]
    sld_address_index = 0
    for tld_index, tld in enumerate(_tld_names(tld_count)):
        tld_origin = Name.from_text(tld + ".")
        tld_zone = Zone(tld_origin)
        tld_zone.add_rr(make_soa(tld_origin))
        for server in range(2):
            ns_name = Name.from_text(f"ns{server + 1}.nic.{tld}.")
            tld_zone.add_rr(RR(tld_origin, 172800, RRClass.IN,
                               rd.NS(ns_name)))
            address = _address_block("192.16.0.0", tld_index * 2 + server)
            tld_zone.add_rr(RR(ns_name, 172800, RRClass.IN, rd.A(address)))
        for sld_index in range(slds_per_tld):
            sld = f"domain{sld_index:03d}.{tld}."
            sld_origin = Name.from_text(sld)
            ns_name = Name.from_text(f"ns1.{sld}")
            address = _address_block("198.51.100.0", sld_address_index)
            sld_address_index += 1
            # Delegation + glue in the TLD zone.
            tld_zone.add_rr(RR(sld_origin, 86400, RRClass.IN,
                               rd.NS(ns_name)))
            tld_zone.add_rr(RR(ns_name, 86400, RRClass.IN, rd.A(address)))
            # The child zone itself.
            sld_zone = Zone(sld_origin)
            sld_zone.add_rr(make_soa(sld_origin))
            sld_zone.add_rr(RR(sld_origin, 86400, RRClass.IN,
                               rd.NS(ns_name)))
            sld_zone.add_rr(RR(ns_name, 86400, RRClass.IN, rd.A(address)))
            for host_index in range(hosts_per_sld):
                host_name = Name.from_text(f"host{host_index}.{sld}")
                sld_zone.add_rr(RR(host_name, 300, RRClass.IN,
                                   rd.A(_address_block("203.0.113.0",
                                                       host_index))))
            www = Name.from_text(f"www.{sld}")
            sld_zone.add_rr(RR(www, 300, RRClass.IN,
                               rd.CNAME(Name.from_text(f"host0.{sld}"))))
            zones.append(sld_zone)
        zones.append(tld_zone)
    return zones


# ---------------------------------------------------------------------------
# Fixed-interval synthetic traces (syn-0 .. syn-4)
# ---------------------------------------------------------------------------

def fixed_interval_trace(interval: float, duration: float,
                         client_count: int = 10000,
                         server: str = DEFAULT_SERVER_ADDRESS,
                         domain: str = "example.com.",
                         name: str = "synthetic",
                         seed: int = 1) -> Trace:
    """One query per ``interval`` seconds, each with a unique name.

    Matches §4.1: "each query uses a unique name to allow us to
    associate queries with responses after-the-fact".  Clients rotate
    through a fixed population, as the paper's client counts imply.
    """
    rng = random.Random(seed)
    clients = [_address_block("10.128.0.0", i) for i in range(client_count)]
    records = []
    count = int(round(duration / interval))
    for index in range(count):
        timestamp = index * interval
        qname = f"q{index:09d}.{domain}"
        src = clients[index % client_count]
        records.append(QueryRecord(
            timestamp, src, 1024 + (index * 7) % 60000, server, DNS_PORT,
            "udp",
            Message.make_query(Name.from_text(qname), RRType.A,
                               msg_id=(index % 0xFFFF) + 1,
                               edns=Edns()).to_wire()))
    return Trace(records, name=name)


def burst_trace(query_count: int, client_count: int = 64,
                server: str = DEFAULT_SERVER_ADDRESS,
                domain: str = "example.com.",
                name: str = "burst") -> Trace:
    """``query_count`` queries all due at t=0: a saturation workload.

    The §4.3 throughput methodology ("a continuous stream … without
    timer events") as a trace: every record carries the same timestamp,
    so the timing discipline releases them immediately and the replay
    runs as fast as the client machinery allows.  Sources rotate through
    ``client_count`` addresses so sticky routing still spreads the load
    across the whole distributor/querier tree.
    """
    clients = [_address_block("10.144.0.0", i) for i in range(client_count)]
    records = []
    for index in range(query_count):
        qname = f"b{index:09d}.{domain}"
        records.append(QueryRecord(
            0.0, clients[index % client_count],
            1024 + (index * 7) % 60000, server, DNS_PORT, "udp",
            Message.make_query(Name.from_text(qname), RRType.A,
                               msg_id=(index % 0xFFFF) + 1,
                               edns=Edns()).to_wire()))
    return Trace(records, name=name)


def zipf_trace(query_count: int, population: int = 200,
               exponent: float = 1.1, interval: float = 0.001,
               client_count: int = 100,
               server: str = DEFAULT_SERVER_ADDRESS,
               domain: str = "example.com.",
               qtype: RRType = RRType.A,
               name: str = "zipf", seed: int = 11) -> Trace:
    """Fixed-rate queries over a Zipf-skewed name population.

    Real resolver and authoritative workloads repeat a small set of
    popular names heavily (unlike :func:`fixed_interval_trace`, whose
    unique-per-query names defeat any response caching by design).  This
    generator draws each qname from ``population`` distinct names with
    probability proportional to ``rank ** -exponent``, which is the
    shape the response-wire cache benchmark needs: a small hot set
    dominating the stream.  Deterministic for a given seed.
    """
    if query_count <= 0:
        raise ValueError("query_count must be positive")
    rng = random.Random(seed)
    names = [f"name{rank:05d}.{domain}" for rank in range(population)]
    cumulative = _cumulative([(rank + 1) ** -exponent
                              for rank in range(population)])
    clients = [_address_block("10.96.0.0", i) for i in range(client_count)]
    records = []
    for index in range(query_count):
        qname = names[_pick(cumulative, rng.random())]
        records.append(QueryRecord(
            index * interval, clients[index % client_count],
            1024 + (index * 13) % 60000, server, DNS_PORT, "udp",
            Message.make_query(Name.from_text(qname), qtype,
                               msg_id=(index % 0xFFFF) + 1,
                               edns=Edns()).to_wire()))
    return Trace(records, name=name)


SYNTHETIC_SPECS = {
    # name: (interval seconds, client count) — Table 1
    "syn-0": (1.0, 3000),
    "syn-1": (0.1, 9700),
    "syn-2": (0.01, 10000),
    "syn-3": (0.001, 10000),
    "syn-4": (0.0001, 10000),
}


def table1_synthetic(name: str, duration: float = 3600.0,
                     server: str = DEFAULT_SERVER_ADDRESS) -> Trace:
    interval, clients = SYNTHETIC_SPECS[name]
    return fixed_interval_trace(interval, duration, client_count=clients,
                                server=server, name=name)


# ---------------------------------------------------------------------------
# B-Root-like workload
# ---------------------------------------------------------------------------

@dataclass
class ClientClassSpec:
    """One stratum of the client population."""

    fraction: float      # of the client population
    load_share: float    # of total queries


# Fig 15c targets: ~1 % of *observed* clients carry ~75 % of queries and
# ~81 % are inactive (<10 queries).  The mixture below reproduces those
# shares at the scaled sizes our experiments use (tuned empirically; the
# observed-client statistics are self-referential, so population
# fractions differ from observed fractions).
DEFAULT_CLIENT_CLASSES = (
    ClientClassSpec(fraction=0.002, load_share=0.65),
    ClientClassSpec(fraction=0.010, load_share=0.15),
    ClientClassSpec(fraction=0.080, load_share=0.165),
    ClientClassSpec(fraction=0.908, load_share=0.035),
)


@dataclass
class BRootWorkload:
    """Generator of root-server traffic with DITL-like shape."""

    duration: float = 60.0
    mean_rate: float = 1000.0          # queries/second (scaled; real ~38 k)
    client_count: int = 10000
    server: str = DEFAULT_SERVER_ADDRESS
    tld_count: int = 40
    do_fraction: float = 0.723         # DO-bit share as of mid-2016 (§5.1)
    tcp_fraction: float = 0.03         # §5.2: 3 % of root queries use TCP
    junk_fraction: float = 0.35        # nonexistent-TLD queries (NXDOMAIN)
    rate_swing: float = 0.10           # ±10 % diurnal-style variation
    swing_period: float = 600.0
    # Clients frequently issue companion queries moments after the first
    # (the classic A+AAAA pair, plus DS/DNSKEY chains).  Bursts are what
    # let occasional clients share one TCP/TLS connection setup — the
    # source of Fig 15b's 1-RTT 25th percentile and the TLS 2→4-RTT
    # median growth.  ``burst_fraction`` starts a burst; each further
    # companion continues with ``burst_continue`` (geometric).  The base
    # arrival rate is thinned so the *total* rate stays ``mean_rate``.
    burst_fraction: float = 0.65
    burst_continue: float = 0.50
    burst_gap_range: Tuple[float, float] = (0.002, 0.120)
    seed: int = 42
    client_classes: Tuple[ClientClassSpec, ...] = DEFAULT_CLIENT_CLASSES
    name: str = "b-root-like"

    # qtype mix seen at roots (approximate DITL shares).
    QTYPE_MIX = (
        (RRType.A, 0.50), (RRType.AAAA, 0.22), (RRType.NS, 0.06),
        (RRType.DS, 0.06), (RRType.MX, 0.04), (RRType.TXT, 0.04),
        (RRType.SOA, 0.04), (RRType.DNSKEY, 0.02), (RRType.SRV, 0.02),
    )

    def generate(self) -> Trace:
        return Trace(self.generate_stream(), name=self.name)

    def generate_stream(self) -> Iterator[QueryRecord]:
        """Yield the workload in timestamp order with bounded memory.

        A 10⁸-query trace streams through a small reorder buffer instead
        of existing as a list: records are generated in arrival order
        and pass through a heap keyed ``(timestamp, generation order)``,
        the total order a stable sort by timestamp would produce.

        Companion (burst) queries are generated up to one burst span
        ahead of the arrival process, so the heap can only flush
        records older than the newest arrival: every future record is
        stamped after it (companions clamp at ``duration - 1e-6``,
        hence the threshold).  Heap occupancy is roughly
        ``mean_rate × burst span`` — thousands of records at B-Root
        rates, never the trace.

        Query wires are assembled directly — 2-byte ID, the EDNS
        variant's header, the qname's labels, the variant's
        qtype/class/OPT tail (:func:`_query_frame`) — and are byte for
        byte what ``Message.make_query(...).to_wire()`` would encode.
        """
        rng = random.Random(self.seed)
        clients, weights = self._client_population(rng)
        cumulative = _cumulative(weights)
        tlds = [_label(tld) + b"\x00" for tld in _tld_names(self.tld_count)]
        qtypes = [qtype for qtype, _weight in self.QTYPE_MIX]
        qtype_cum = _cumulative([weight for _qtype, weight in self.QTYPE_MIX])
        pack_id = struct.Struct("!H").pack

        heap: List[Tuple[float, int, QueryRecord]] = []
        now = 0.0
        index = 0
        # Thin the arrival process so initial + companion queries total
        # ``mean_rate`` on average.
        expected_companions = (self.burst_fraction
                               / max(1.0 - self.burst_continue, 1e-6))
        base_rate_fraction = 1.0 / (1.0 + expected_companions)
        while now < self.duration:
            rate = base_rate_fraction * self.mean_rate * (
                1.0 + self.rate_swing
                * math.sin(2 * math.pi * now / self.swing_period))
            now += rng.expovariate(max(rate, 1e-9))
            if now >= self.duration:
                break
            client = clients[_pick(cumulative, rng.random())]
            qname = self._qname(rng, tlds, index)
            qtype = qtypes[_pick(qtype_cum, rng.random())]
            dnssec = rng.random() < self.do_fraction
            protocol = "tcp" if rng.random() < self.tcp_fraction else "udp"
            header, tail = _query_frame(
                qtype, dnssec if dnssec or rng.random() < 0.9 else None)
            sport = 1024 + (zlib.crc32(client.encode()) + index) % 60000
            heapq.heappush(heap, (now, index, QueryRecord(
                now, client, sport, self.server, DNS_PORT, protocol,
                pack_id(index % 0xFFFF + 1) + header + qname + tail)))
            index += 1
            companion_time = now
            continue_probability = self.burst_fraction
            while rng.random() < continue_probability:
                # Companion query (e.g. the AAAA of an A+AAAA pair).
                companion_time += rng.uniform(*self.burst_gap_range)
                header, tail = _query_frame(
                    RRType.AAAA if qtype == RRType.A else RRType.A, dnssec)
                stamped = min(companion_time, self.duration - 1e-6)
                heapq.heappush(heap, (stamped, index, QueryRecord(
                    stamped, client, sport, self.server, DNS_PORT, protocol,
                    pack_id(index % 0xFFFF + 1) + header + qname + tail)))
                index += 1
                continue_probability = self.burst_continue
            # Safe to emit anything older than every record still to
            # come: future arrivals land after ``now`` and future
            # companions never stamp before ``duration - 1e-6``.
            threshold = min(now, self.duration - 1e-6)
            while heap and heap[0][0] < threshold:
                yield heapq.heappop(heap)[2]
        while heap:
            yield heapq.heappop(heap)[2]

    def _client_population(self, rng: random.Random
                           ) -> Tuple[List[str], List[float]]:
        clients = [_address_block("10.64.0.0", i)
                   for i in range(self.client_count)]
        rng.shuffle(clients)
        weights: List[float] = []
        start = 0
        for spec in self.client_classes:
            size = max(1, int(round(self.client_count * spec.fraction)))
            size = min(size, self.client_count - start)
            # Within a class, spread load with a mild power law.
            raw = [(rank + 1) ** -1.0 for rank in range(size)]
            total = sum(raw)
            weights.extend(spec.load_share * value / total for value in raw)
            start += size
            if start >= self.client_count:
                break
        while len(weights) < self.client_count:
            weights.append(0.0)
        return clients, weights

    def _qname(self, rng: random.Random, tlds: Sequence[bytes],
               index: int) -> bytes:
        """The next qname in wire form; ``tlds`` are ``<tld>.`` wires."""
        roll = rng.random()
        if roll < self.junk_fraction:
            # Chromium-style junk / typos: unique nonexistent TLDs.
            return (b"\x0ejunk-%09d" % rng.randrange(10 ** 9)
                    + _label("invalid%d" % (index % 97)) + b"\x00")
        tld = tlds[min(int(rng.paretovariate(1.2)) - 1, len(tlds) - 1)]
        if roll < self.junk_fraction + 0.4:
            return tld
        return b"\x0aexample%03d" % rng.randrange(1000) + tld


def _label(text: str) -> bytes:
    return bytes((len(text),)) + text.encode()


@functools.lru_cache(maxsize=None)
def _query_frame(qtype: RRType, dnssec_ok: Optional[bool]
                 ) -> Tuple[bytes, bytes]:
    """What surrounds the qname in an RD=0 query wire: header bytes 2–12
    and the qtype/class/OPT tail (no OPT when ``dnssec_ok`` is None)."""
    wire = Message.make_query(
        Name(()), qtype, recursion_desired=False,
        edns=None if dnssec_ok is None else Edns(dnssec_ok=dnssec_ok)
    ).to_wire()
    return wire[2:12], wire[13:]


def scale_stream(query_count: int, mean_rate: float = 100_000.0,
                 client_count: int = 100_000,
                 server: str = DEFAULT_SERVER_ADDRESS,
                 wire_pool: int = 4096, tld_count: int = 40,
                 tcp_fraction: float = 0.03, skew: float = 4.0,
                 seed: int = 42) -> Iterator[QueryRecord]:
    """B-Root-*shaped* query stream built for 10⁸-record benchmarks.

    :meth:`BRootWorkload.generate_stream` is the faithful model, but it
    builds a fresh DNS message per record (~17 µs each — hours at
    10⁸).  Scale benchmarks need the stream's *mechanical* properties —
    monotonic timestamps at ``mean_rate``, a heavy-tailed sticky client
    population, realistic wire sizes, a TCP share — not per-record
    payload novelty.  This generator pre-builds ``wire_pool`` distinct
    query wires once and then stamps each record by patching the
    message ID (a 2-byte splice), which keeps generation around 2 µs a
    record so a 10⁸-query run is minutes, not hours.

    ``skew`` shapes the client pick (``u**skew`` of the population
    index): 4.0 sends ≈75 % of queries from ≈1 % of clients, matching
    the Fig 15c concentration the sticky-routing path must absorb.
    Deterministic for a given seed, constant memory.
    """
    if query_count < 0:
        raise ValueError("query_count must be >= 0")
    rng = random.Random(seed)
    clients = [_address_block("10.64.0.0", i) for i in range(client_count)]
    rng.shuffle(clients)
    tlds = _tld_names(tld_count)
    wires = []
    for pool_index in range(wire_pool):
        qname = (f"scale{pool_index:06d}."
                 f"{tlds[pool_index % len(tlds)]}.")
        qtype = RRType.AAAA if pool_index % 4 == 0 else RRType.A
        wires.append(Message.make_query(
            Name.from_text(qname), qtype, msg_id=1,
            recursion_desired=False,
            edns=Edns(dnssec_ok=pool_index % 4 != 3)).to_wire())
    interval = 1.0 / mean_rate
    tcp_per_hundred = int(round(tcp_fraction * 100))
    uniform = rng.random
    for index in range(query_count):
        template = wires[index % wire_pool]
        wire = (index % 0xFFFF + 1).to_bytes(2, "big") + template[2:]
        client = clients[int(uniform() ** skew * client_count)]
        protocol = "tcp" if index % 100 < tcp_per_hundred else "udp"
        yield QueryRecord(
            index * interval, client, 1024 + (index * 7) % 60000,
            server, DNS_PORT, protocol, wire)


# ---------------------------------------------------------------------------
# Rec-17-like recursive workload
# ---------------------------------------------------------------------------

@dataclass
class RecursiveWorkload:
    """Department-level recursive-server traffic (Rec-17 in Table 1)."""

    duration: float = 3600.0
    total_queries: int = 20000
    client_count: int = 91
    zones: Optional[List[Zone]] = None     # hierarchy the names come from
    recursive_address: str = "172.16.1.1"
    seed: int = 7
    name: str = "rec-17-like"

    def generate(self) -> Trace:
        rng = random.Random(self.seed)
        zones = self.zones if self.zones is not None \
            else make_hierarchy_zones()
        sld_origins = [z.origin for z in zones
                       if len(z.origin) >= 2]
        if not sld_origins:
            raise ValueError("no SLD zones to query")
        weights = [(i + 1) ** -1.0 for i in range(len(sld_origins))]
        cumulative = _cumulative(weights)
        clients = [_address_block("10.32.0.0", i)
                   for i in range(self.client_count)]
        client_weights = [(i + 1) ** -1.0 for i in range(self.client_count)]
        client_cum = _cumulative(client_weights)

        records = []
        for index in range(self.total_queries):
            timestamp = rng.uniform(0, self.duration)
            origin = sld_origins[_pick(cumulative, rng.random())]
            host = rng.choice(["www", "host0", "host1", "host2", ""])
            qname = (host + "." if host else "") + origin.to_text()
            qtype = RRType.AAAA if rng.random() < 0.2 else RRType.A
            client = clients[_pick(client_cum, rng.random())]
            message = Message.make_query(
                Name.from_text(qname), qtype, msg_id=(index % 0xFFFF) + 1,
                recursion_desired=True, edns=Edns())
            records.append(QueryRecord(
                timestamp, client, 1024 + index % 60000,
                self.recursive_address, DNS_PORT, "udp", message.to_wire()))
        trace = Trace(records, name=self.name)
        trace.sort()
        return trace


# ---------------------------------------------------------------------------

def _cumulative(weights: Sequence[float]) -> List[float]:
    total = sum(weights)
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    cumulative[-1] = 1.0
    return cumulative


def _pick(cumulative: Sequence[float], roll: float) -> int:
    """Binary search a cumulative weight table."""
    return min(bisect.bisect_left(cumulative, roll), len(cumulative) - 1)
