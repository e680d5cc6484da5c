"""Simulated IP packets and transport segments.

Packets carry a pseudo-header checksum over (src, dst, transport bytes).
The LDplayer proxies rewrite packet addresses and must recompute the
checksum afterwards (§2.4); hosts in this simulator verify checksums on
receipt and drop mismatches, so a proxy that forgets the recompute fails
visibly, just as it would on a real network.
"""

from __future__ import annotations

import ipaddress
import zlib
from dataclasses import dataclass, replace
from enum import IntFlag
from typing import Optional, Tuple, Union

Address = str  # dotted-quad IPv4 within the testbed


def validate_address(address: Address) -> Address:
    ipaddress.IPv4Address(address)
    return address


# Checksums pack the same source/destination addresses for every packet
# of a flow; parsing dotted-quad text through ``ipaddress`` dominated
# the checksum cost, so the packed form is memoized.  The population of
# distinct addresses is bounded by the experiment's host count; the cap
# is a safety valve for adversarial traces.
_PACKED_CACHE_LIMIT = 1 << 16
_packed_cache: dict = {}


def _packed(address: Address) -> bytes:
    packed = _packed_cache.get(address)
    if packed is None:
        packed = ipaddress.IPv4Address(address).packed
        if len(_packed_cache) >= _PACKED_CACHE_LIMIT:
            _packed_cache.clear()
        _packed_cache[address] = packed
    return packed


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
    """

    __slots__ = ("header", "body")

    def __init__(self, header: bytes, body: memoryview) -> None:
        self.header = header
        self.body = body

    def parts(self) -> Tuple[bytes, memoryview]:
        return (self.header, self.body)

    def tobytes(self) -> bytes:
        return self.header + bytes(self.body)

    def __bytes__(self) -> bytes:
        return self.header + bytes(self.body)

    def __len__(self) -> int:
        return 2 + len(self.body)

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


@dataclass(frozen=True, slots=True)
class UdpSegment:
    sport: int
    dport: int
    # ``bytes`` everywhere except the zero-copy response path, where the
    # wire cache hands the segment a WireView instead.
    data: Union[bytes, WireView]

    def header_size(self) -> int:
        return 8

    def wire_size(self) -> int:
        return self.header_size() + len(self.data)

    def pseudo_prefix(self) -> bytes:
        return (b"U" + self.sport.to_bytes(2, "big")
                + self.dport.to_bytes(2, "big"))

    def pseudo_bytes(self) -> bytes:
        return self.pseudo_prefix() + bytes(self.data)


@dataclass(frozen=True, slots=True)
class TcpSegment:
    sport: int
    dport: int
    seq: int
    ack: int
    flags: TcpFlags
    data: bytes = b""

    def header_size(self) -> int:
        return 20

    def wire_size(self) -> int:
        return self.header_size() + len(self.data)

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

IP_HEADER_SIZE = 20


@dataclass(frozen=True, slots=True)
class IpPacket:
    """A simulated IPv4 packet: addresses + one transport segment."""

    src: Address
    dst: Address
    segment: Segment
    checksum: int = 0
    # Diagnostics: set by netfilter when a rule marks the packet.
    mark: int = 0

    @property
    def protocol(self) -> str:
        return "udp" if isinstance(self.segment, UdpSegment) else "tcp"

    def wire_size(self) -> int:
        return IP_HEADER_SIZE + self.segment.wire_size()

    def compute_checksum(self) -> int:
        return packet_checksum(self.src, self.dst, self.segment)

    def with_checksum(self) -> "IpPacket":
        return replace(self, checksum=self.compute_checksum())

    def checksum_ok(self) -> bool:
        return self.checksum == self.compute_checksum()

    def rewritten(self, src: Optional[Address] = None,
                  dst: Optional[Address] = None,
                  recompute_checksum: bool = True) -> "IpPacket":
        """Return a copy with rewritten addresses (the proxy primitive)."""
        packet = replace(self, src=src if src is not None else self.src,
                         dst=dst if dst is not None else self.dst)
        if recompute_checksum:
            packet = packet.with_checksum()
        return packet

    def flow(self) -> Tuple[Address, int, Address, int, str]:
        return (self.src, self.segment.sport, self.dst, self.segment.dport,
                self.protocol)


def packet_checksum(src: Address, dst: Address, segment: Segment) -> int:
    """Pseudo-header checksum without constructing a packet first.

    Computed incrementally when the payload is a :class:`WireView` —
    ``crc32`` over the parts, never materializing the joined wire — so
    zero-copy responses stay zero-copy through checksumming too.
    """
    crc = zlib.crc32(_packed(dst), zlib.crc32(_packed(src)))
    data = getattr(segment, "data", b"")
    if type(data) is WireView:
        crc = zlib.crc32(segment.pseudo_prefix(), crc)
        crc = zlib.crc32(data.header, crc)
        crc = zlib.crc32(data.body, crc)
    else:
        crc = zlib.crc32(segment.pseudo_bytes(), crc)
    return crc & 0xFFFFFFFF


def make_udp_packet(src: Address, sport: int, dst: Address, dport: int,
                    data: bytes) -> IpPacket:
    # Construct once with the final checksum: ``with_checksum`` costs a
    # second dataclass construction via ``replace`` on the hot path.
    segment = UdpSegment(sport, dport, data)
    return IpPacket(src, dst, segment,
                    checksum=packet_checksum(src, dst, segment))


def make_tcp_packet(src: Address, sport: int, dst: Address, dport: int,
                    seq: int, ack: int, flags: TcpFlags,
                    data: bytes = b"") -> IpPacket:
    return IpPacket(
        src, dst, TcpSegment(sport, dport, seq, ack, flags, data)
    ).with_checksum()
