"""The one-time fetch that seeds zone construction (§2.3).

"We send all unique queries in the original trace to a recursive server
with cold cache and allow it to query [the] Internet to satisfy each
query ... We then capture all the DNS responses that authoritative
servers respond, recording the traffic at the upstream network interface
of the recursive server."

Here the Internet is a :class:`~repro.hierarchy.internet.
SimulatedInternet` (substitution documented in DESIGN.md); the capture
point, the cold cache, the per-query hierarchy walk, and the harvesting
pipeline are exactly the paper's.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..dns import DNS_PORT, Message, Name, RRType, WireError, Zone
from ..hierarchy import SimulatedInternet
from ..netsim import EventLoop, IpPacket, Network, UdpSegment
from ..server import HostedDnsServer, RecursiveResolver
from ..trace import Trace
from .harvest import ZoneConstructor, ZoneLibrary

RECURSIVE_ADDRESS = "10.200.0.53"
STUB_ADDRESS = "10.200.0.1"


def unique_questions(trace: Trace) -> List[Tuple[Name, RRType]]:
    """The deduplicated (qname, qtype) set of a query trace."""
    seen: Dict[Tuple[Name, RRType], None] = {}
    for record in trace:
        if record.is_response():
            continue
        question = record.question()
        if question is not None:
            seen.setdefault((question[0], question[1]), None)
    return list(seen)


def build_zones_from_trace(trace: Trace, internet_zones: Iterable[Zone],
                           probe_zone_cuts: bool = True,
                           query_spacing: float = 0.05) -> ZoneLibrary:
    """Run the one-time fetch for a trace against a simulated Internet.

    Returns the reconstructed :class:`ZoneLibrary`.  ``probe_zone_cuts``
    adds the paper's explicit NS probe at each change of hierarchy.
    """
    loop = EventLoop()
    network = Network(loop)
    internet = SimulatedInternet(network, internet_zones)

    recursive_host = network.add_host("zonegen-recursive",
                                      RECURSIVE_ADDRESS)
    resolver = RecursiveResolver(recursive_host, internet.root_hints())
    HostedDnsServer(recursive_host, resolver)

    constructor = ZoneConstructor()

    def capture(direction: str, packet: IpPacket) -> None:
        # The upstream interface: responses arriving from port 53 that
        # are not our own stub-facing replies.
        if direction != "in":
            return
        segment = packet.segment
        if not isinstance(segment, UdpSegment) or segment.sport != DNS_PORT:
            return
        if packet.src == STUB_ADDRESS:
            return
        try:
            message = Message.from_wire(segment.data)
        except WireError:
            return
        constructor.add_response(packet.src, message)

    recursive_host.capture_hooks.append(capture)

    stub = network.add_host("zonegen-stub", STUB_ADDRESS)
    sock = stub.bind_udp(STUB_ADDRESS, 0, lambda *args: None)

    questions = unique_questions(trace)
    if probe_zone_cuts:
        questions = questions + _cut_probes(questions)

    for index, (qname, qtype) in enumerate(questions):
        query = Message.make_query(qname, qtype,
                                   msg_id=(index % 0xFFFF) + 1)
        loop.call_at(index * query_spacing, sock.sendto, query.to_wire(),
                     RECURSIVE_ADDRESS, DNS_PORT)
    loop.run(max_time=len(questions) * query_spacing + 30.0)

    root_addresses = [address
                      for addresses in internet.root_hints().values()
                      for address in addresses]
    return constructor.build(root_addresses=root_addresses)


def _cut_probes(questions: List[Tuple[Name, RRType]]
                ) -> List[Tuple[Name, RRType]]:
    """NS probes at each change of hierarchy (§2.3 zone-cut probing)."""
    probes: Dict[Tuple[Name, RRType], None] = {}
    for qname, _qtype in questions:
        # Probe every level including the root: the resolver reaches the
        # root via hints, so root NS/glue never appear in referrals.
        for ancestor in qname.ancestors():
            probes.setdefault((ancestor, RRType.NS), None)
    existing = set(questions)
    return [probe for probe in probes if probe not in existing]
