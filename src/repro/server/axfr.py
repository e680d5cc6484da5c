"""Zone transfer (AXFR, RFC 5936) — the zone-acquisition path §2.3
mentions: "when emulating an authoritative server, we can often acquire
the zone from its manager".

The authoritative engine answers ``AXFR`` queries over TCP with the
standard multi-message stream — SOA first, every record, SOA again —
and :func:`axfr_fetch` is the client side, pulling a zone off a
simulated server into a :class:`~repro.dns.Zone` ready for hosting or
for :mod:`repro.zonegen` merging.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..dns import DNS_PORT, Flag, Message, Name, RRType, Rcode, Zone
from ..netsim import Host, RetryPolicy, TcpOptions, TcpStack
from .dnsio import StreamFramer, frame_message

AXFR = RRType.make(252)

# Real servers pack up to ~16 KiB of records per AXFR message; small
# messages here keep multi-message streams testable with small zones.
RECORDS_PER_MESSAGE = 40


class AxfrError(RuntimeError):
    pass


def axfr_response_stream(zone: Zone, query: Message,
                         records_per_message: int = RECORDS_PER_MESSAGE
                         ) -> List[Message]:
    """The RFC 5936 message sequence for one zone transfer."""
    soa = zone.soa
    if soa is None:
        raise AxfrError(f"zone {zone.origin} has no SOA; cannot transfer")
    records = [rr for rr in zone.iter_rrs() if rr.rrtype != RRType.SOA]
    sequence = soa.to_rrs() + records + soa.to_rrs()

    messages = []
    for start in range(0, len(sequence), records_per_message):
        message = Message.make_response(query)
        message.set_flag(Flag.AA)
        message.answer = sequence[start : start + records_per_message]
        messages.append(message)
    return messages


def handle_axfr(zones_by_origin, query: Message) -> Optional[List[Message]]:
    """Server-side dispatch: the messages for an AXFR query, or None."""
    if not query.question or query.question[0].rrtype != AXFR:
        return None
    origin = query.question[0].name
    zone = zones_by_origin.get(origin)
    if zone is None:
        refused = Message.make_response(query, rcode=Rcode.REFUSED)
        return [refused]
    return axfr_response_stream(zone, query)


def axfr_fetch(client_host: Host, server_address: str, origin: Name,
               on_complete: Callable[[Optional[Zone]], None],
               port: int = DNS_PORT, msg_id: int = 1,
               retry: Optional[RetryPolicy] = None) -> None:
    """Pull a zone over TCP; calls ``on_complete(zone)`` (None on failure).

    Follows RFC 5936 client rules: the stream ends when the opening SOA
    appears a second time; anything else (REFUSED, connection loss before
    the closing SOA) fails the transfer.  With a ``retry`` policy, a
    failed transfer is re-attempted with backoff (``retry.timeout_for``)
    up to ``retry.max_retries`` times before ``on_complete(None)``.
    """
    if client_host.tcp_stack is None:
        TcpStack(client_host)
    loop = client_host.network.loop

    def attempt(tries: int) -> None:
        query = Message.make_query(origin, AXFR, msg_id=msg_id,
                                   recursion_desired=False)
        framer = StreamFramer()
        state = {"zone": Zone(origin), "soa_count": 0, "done": False}

        def finish(zone: Optional[Zone]) -> None:
            if state["done"]:
                return
            state["done"] = True
            connection.close()
            if zone is None and retry is not None \
                    and tries < retry.max_retries:
                loop.call_later(retry.timeout_for(tries),
                                attempt, tries + 1)
                return
            on_complete(zone)

        def on_message(wire: bytes) -> None:
            if state["done"]:
                return
            message = Message.from_wire(wire)
            if message.rcode != Rcode.NOERROR:
                finish(None)
                return
            for rr in message.answer:
                if rr.rrtype == RRType.SOA and rr.name == origin:
                    state["soa_count"] += 1
                    if state["soa_count"] == 2:
                        finish(state["zone"])
                        return
                    # fall through: the opening SOA is zone data too
                if state["soa_count"] == 0:
                    finish(None)  # stream must open with the SOA
                    return
                state["zone"].add_rr(rr)

        framer.on_message = on_message
        stack: TcpStack = client_host.tcp_stack
        connection = stack.connect(client_host.primary_address,
                                   server_address, port,
                                   TcpOptions(nagle=False))
        connection.on_data = lambda _cn, data: framer.feed(data)
        connection.on_close = lambda cn: (finish(None), cn.close())
        connection.on_reset = lambda _cn: finish(None)
        connection.send(frame_message(query.to_wire()))

    attempt(0)
