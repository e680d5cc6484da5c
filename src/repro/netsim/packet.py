"""Simulated IP packets and transport segments.

Packets carry a pseudo-header checksum over (src, dst, transport bytes).
The LDplayer proxies rewrite packet addresses and must recompute the
checksum afterwards (§2.4); hosts in this simulator verify checksums on
receipt and drop mismatches, so a proxy that forgets the recompute fails
visibly, just as it would on a real network.
"""

from __future__ import annotations

import ipaddress
import struct
from zlib import crc32
from enum import IntFlag
from typing import NamedTuple, Optional, Tuple, Union

Address = str  # dotted-quad IPv4 within the testbed


def validate_address(address: Address) -> Address:
    ipaddress.IPv4Address(address)
    return address


# Every checksum starts with the packed source and destination addresses,
# and the packets of a flow repeat the same pair; parsing dotted-quad
# text through ``ipaddress`` dominated the checksum cost, so the CRC of
# the packed pair is memoized and each checksum streams on from it.  The
# population of pairs is bounded by the experiment's flows; the cap is a
# safety valve for adversarial traces.
_PAIR_CACHE_LIMIT = 1 << 16
_pair_crcs: dict = {}

# A UDP checksum goes on from its flow's prefix CRC (the pair, ``"U"``
# and the ports), memoized per flow and cleared when full.
_FLOW_CACHE_LIMIT = 4096
_flow_crcs: dict = {}

_UDP_PREFIX = struct.Struct("!cHH").pack
_tuple_new = tuple.__new__


def _pair_crc(src: Address, dst: Address) -> int:
    crc = crc32(ipaddress.IPv4Address(dst).packed,
                crc32(ipaddress.IPv4Address(src).packed))
    if len(_pair_crcs) >= _PAIR_CACHE_LIMIT:
        _pair_crcs.clear()
    _pair_crcs[(src, dst)] = crc
    return crc


def _flow_crc(src: Address, dst: Address, sport: int, dport: int) -> int:
    # A memoized CRC of 0 reads as a miss and is recomputed: still exact.
    crc = crc32(_UDP_PREFIX(b"U", sport, dport),
                _pair_crcs.get((src, dst)) or _pair_crc(src, dst))
    if len(_flow_crcs) >= _FLOW_CACHE_LIMIT:
        _flow_crcs.clear()
    _flow_crcs[(src, dst, sport, dport)] = crc
    return crc


class WireView:
    """A zero-copy DNS response wire: 2-byte scratch header + shared body.

    Wire-cache hits used to be served as ``msg_id + entry.wire[2:]`` — a
    full ``bytes`` copy per hit.  A :class:`WireView` instead pairs a
    per-response 2-byte message-ID header with a readonly ``memoryview``
    over the immutable cached buffer, so a 500-byte response costs a
    2-byte header object instead of a 500-byte copy.  The body view is
    shared between every hit for the same cache entry; it is readonly,
    so no consumer can mutate the cached wire through it (the aliasing
    guard in ``tests/test_shard_differential.py`` proves this).

    The container behaves like ``bytes`` where the hot path needs it
    (``len``, indexing, slicing, equality, hashing) without
    materializing; anything that genuinely needs contiguous bytes calls
    ``bytes(view)`` / :meth:`tobytes` and pays the copy explicitly.
    The length is taken once, at construction: the packet path sizes
    every datagram it carries and reads ``length`` rather than calling
    ``len``.
    """

    __slots__ = ("header", "body", "length")

    def __init__(self, header: bytes, body: memoryview) -> None:
        self.header = header
        self.body = body
        self.length = len(header) + len(body)

    def parts(self) -> Tuple[bytes, memoryview]:
        return (self.header, self.body)

    def tobytes(self) -> bytes:
        return self.header + bytes(self.body)

    def __bytes__(self) -> bytes:
        return self.header + bytes(self.body)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WireView):
            return (self.header == other.header
                    and self.body == other.body)
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self.tobytes() == bytes(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.tobytes())

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step == 1:
                if stop <= 2:
                    return self.header[start:stop]
                if start >= 2:
                    return bytes(self.body[start - 2:stop - 2])
            return self.tobytes()[index]
        if index < 0:
            index += len(self)
        if index < 2:
            return self.header[index]
        return self.body[index - 2]

    def __iter__(self):
        yield from self.header
        yield from self.body

    def __add__(self, other):
        return self.tobytes() + bytes(other)

    def __radd__(self, other):
        return bytes(other) + self.tobytes()

    def __repr__(self) -> str:
        return f"WireView(len={len(self)}, id={self.header.hex()})"


class TcpFlags(IntFlag):
    SYN = 0x02
    ACK = 0x10
    FIN = 0x01
    RST = 0x04
    PSH = 0x08


IP_HEADER_SIZE = 20


# Packets and segments are tuples: immutable, and cheap to build and to
# unpack, which every simulated hop does twice.
class UdpSegment(NamedTuple):
    sport: int
    dport: int
    # ``bytes`` everywhere except the zero-copy response path, where the
    # wire cache hands the segment a WireView instead.
    data: Union[bytes, WireView]

    HEADER_SIZE = 8

    def pseudo_bytes(self) -> bytes:
        return (b"U" + self.sport.to_bytes(2, "big")
                + self.dport.to_bytes(2, "big") + bytes(self.data))


class TcpSegment(NamedTuple):
    sport: int
    dport: int
    seq: int
    ack: int
    flags: TcpFlags
    data: bytes = b""

    HEADER_SIZE = 20

    def pseudo_bytes(self) -> bytes:
        return (b"T" + self.sport.to_bytes(2, "big")
                + self.dport.to_bytes(2, "big")
                + self.seq.to_bytes(4, "big") + self.ack.to_bytes(4, "big")
                + int(self.flags).to_bytes(2, "big") + self.data)

    def describe(self) -> str:
        names = [f.name for f in TcpFlags if self.flags & f]
        return (f"[{'|'.join(names) or '-'} seq={self.seq} ack={self.ack} "
                f"len={len(self.data)}]")


Segment = Union[UdpSegment, TcpSegment]


class IpPacket(NamedTuple):
    """A simulated IPv4 packet: addresses + one transport segment."""

    src: Address
    dst: Address
    segment: Segment
    checksum: int = 0
    # Diagnostics: set by netfilter when a rule marks the packet.
    mark: int = 0

    @property
    def protocol(self) -> str:
        return "udp" if type(self.segment) is UdpSegment else "tcp"

    def wire_size(self) -> int:
        return packet_wire_size(self.segment)

    def compute_checksum(self) -> int:
        return packet_checksum(self.src, self.dst, self.segment)

    def with_checksum(self) -> "IpPacket":
        return self._replace(checksum=self.compute_checksum())

    def checksum_ok(self) -> bool:
        return self.checksum == self.compute_checksum()

    def rewritten(self, src: Optional[Address] = None,
                  dst: Optional[Address] = None,
                  recompute_checksum: bool = True) -> "IpPacket":
        """Return a copy with rewritten addresses (the proxy primitive)."""
        packet = self._replace(src=src if src is not None else self.src,
                               dst=dst if dst is not None else self.dst)
        if recompute_checksum:
            packet = packet.with_checksum()
        return packet

    def flow(self) -> Tuple[Address, int, Address, int, str]:
        return (self.src, self.segment.sport, self.dst, self.segment.dport,
                self.protocol)


def packet_checksum(src: Address, dst: Address, segment: Segment) -> int:
    """Pseudo-header checksum without constructing a packet first.

    One ``crc32`` streamed over the packed address pair (memoized), the
    transport prefix (memoized per UDP flow) and the payload: the value
    of ``crc32(packed src + packed dst + segment.pseudo_bytes())``
    without building that string.  A :class:`WireView` payload is fed
    as its header and body, so zero-copy responses stay zero-copy.
    """
    if type(segment) is not UdpSegment:
        return crc32(segment.pseudo_bytes(),
                     _pair_crcs.get((src, dst)) or _pair_crc(src, dst))
    sport, dport, data = segment
    crc = (_flow_crcs.get((src, dst, sport, dport))
           or _flow_crc(src, dst, sport, dport))
    if type(data) is WireView:
        return crc32(data.body, crc32(data.header, crc))
    return crc32(data, crc)


def packet_wire_size(segment: Segment) -> int:
    """Bytes on the wire of an IP packet carrying ``segment``.

    One call, no method chain: the hosts size every packet they send or
    receive, and a :class:`WireView` payload has its length stored.
    """
    data = segment.data
    return (IP_HEADER_SIZE + segment.HEADER_SIZE
            + (data.length if type(data) is WireView else len(data)))


def make_udp_packet(src: Address, sport: int, dst: Address, dport: int,
                    data: Union[bytes, WireView]) -> IpPacket:
    """The one place a UDP :class:`IpPacket` is built: the checksum is
    :func:`packet_checksum`'s UDP branch inline, and ``tuple.__new__``
    skips only the ``NamedTuple`` constructors' Python ``__new__``."""
    crc = (_flow_crcs.get((src, dst, sport, dport))
           or _flow_crc(src, dst, sport, dport))
    if type(data) is WireView:
        crc = crc32(data.body, crc32(data.header, crc))
    else:
        crc = crc32(data, crc)
    return _tuple_new(IpPacket, (src, dst, _tuple_new(
        UdpSegment, (sport, dport, data)), crc, 0))


def make_tcp_packet(src: Address, sport: int, dst: Address, dport: int,
                    seq: int, ack: int, flags: TcpFlags,
                    data: bytes = b"") -> IpPacket:
    segment = TcpSegment(sport, dport, seq, ack, flags, data)
    return IpPacket(src, dst, segment, packet_checksum(src, dst, segment))
