"""Tests for the packet model: checksums, rewriting, sizes."""

import ipaddress
import zlib
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.netsim import (IpPacket, TcpFlags, TcpSegment, UdpSegment,
                          WireView, make_tcp_packet, make_udp_packet,
                          packet_checksum)
from repro.netsim import packet as packet_module
from repro.netsim.packet import (IP_HEADER_SIZE, packet_wire_size,
                                 validate_address)


class TestSegments:
    def test_udp_sizes(self):
        segment = UdpSegment(1000, 53, b"x" * 40)
        assert segment.HEADER_SIZE == 8
        assert packet_wire_size(segment) == IP_HEADER_SIZE + 48

    def test_tcp_sizes(self):
        segment = TcpSegment(1000, 53, 1, 0, TcpFlags.SYN, b"y" * 10)
        assert segment.HEADER_SIZE == 20
        assert packet_wire_size(segment) == IP_HEADER_SIZE + 30

    def test_tcp_describe(self):
        segment = TcpSegment(1, 2, 100, 50, TcpFlags.SYN | TcpFlags.ACK,
                             b"abc")
        text = segment.describe()
        assert "SYN" in text and "ACK" in text and "len=3" in text


class TestChecksum:
    def test_checksum_valid_after_construction(self):
        packet = make_udp_packet("10.0.0.1", 1000, "10.0.0.2", 53, b"hi")
        assert packet.checksum_ok()

    def test_checksum_covers_addresses(self):
        packet = make_udp_packet("10.0.0.1", 1000, "10.0.0.2", 53, b"hi")
        moved = packet.rewritten(src="10.0.0.9", recompute_checksum=False)
        assert not moved.checksum_ok()

    def test_checksum_covers_payload(self):
        a = make_udp_packet("10.0.0.1", 1, "10.0.0.2", 53, b"aaaa")
        b = make_udp_packet("10.0.0.1", 1, "10.0.0.2", 53, b"aaab")
        assert a.checksum != b.checksum

    def test_rewrite_recomputes_by_default(self):
        packet = make_udp_packet("10.0.0.1", 1000, "10.0.0.2", 53, b"hi")
        moved = packet.rewritten(src="192.0.2.7", dst="192.0.2.8")
        assert moved.checksum_ok()
        assert moved.src == "192.0.2.7" and moved.dst == "192.0.2.8"

    def test_rewrite_preserves_payload(self):
        packet = make_tcp_packet("10.0.0.1", 1, "10.0.0.2", 53, 5, 6,
                                 TcpFlags.ACK, b"data")
        moved = packet.rewritten(dst="203.0.113.1")
        assert moved.segment == packet.segment


class TestPacket:
    def test_protocol_property(self):
        udp = make_udp_packet("10.0.0.1", 1, "10.0.0.2", 53, b"")
        tcp = make_tcp_packet("10.0.0.1", 1, "10.0.0.2", 53, 0, 0,
                              TcpFlags.SYN)
        assert udp.protocol == "udp"
        assert tcp.protocol == "tcp"

    def test_wire_size(self):
        packet = make_udp_packet("10.0.0.1", 1, "10.0.0.2", 53, b"12345")
        assert packet.wire_size() == IP_HEADER_SIZE + 8 + 5

    def test_flow_tuple(self):
        packet = make_udp_packet("10.0.0.1", 1234, "10.0.0.2", 53, b"")
        assert packet.flow() == ("10.0.0.1", 1234, "10.0.0.2", 53, "udp")

    def test_validate_address(self):
        assert validate_address("192.0.2.1") == "192.0.2.1"
        with pytest.raises(ValueError):
            validate_address("not-an-ip")


@given(st.binary(max_size=100), st.integers(1, 65535),
       st.integers(1, 65535))
def test_property_checksum_deterministic(payload, sport, dport):
    a = make_udp_packet("10.0.0.1", sport, "10.0.0.2", dport, payload)
    b = make_udp_packet("10.0.0.1", sport, "10.0.0.2", dport, payload)
    assert a.checksum == b.checksum
    assert a.checksum_ok()


def reference_checksum(src, dst, segment):
    """The pseudo-header checksum as first written: one ``crc32`` over
    the packed source, the packed destination, then the segment's
    pseudo-header bytes (the payload joined in)."""
    crc = zlib.crc32(ipaddress.IPv4Address(src).packed)
    crc = zlib.crc32(ipaddress.IPv4Address(dst).packed, crc)
    return zlib.crc32(segment.pseudo_bytes(), crc) & 0xFFFFFFFF


addresses = st.builds(lambda value: str(ipaddress.IPv4Address(value)),
                      st.integers(0, 2 ** 32 - 1))
ports = st.integers(0, 65535)


@st.composite
def payloads(draw):
    """A payload as ``bytes`` or as a zero-copy :class:`WireView`."""
    wire = draw(st.binary(min_size=2, max_size=64))
    if draw(st.booleans()):
        return WireView(wire[:2], memoryview(wire)[2:])
    return wire


segments = st.one_of(
    st.builds(UdpSegment, ports, ports, payloads()),
    st.builds(TcpSegment, ports, ports, st.integers(0, 2 ** 32 - 1),
              st.integers(0, 2 ** 32 - 1),
              st.integers(0, 0x1F).map(TcpFlags),
              st.binary(max_size=64)))


@given(st.lists(st.tuples(addresses, addresses, segments),
                min_size=1, max_size=8))
def test_property_checksum_matches_reference(flows):
    """The streamed checksum (cached address-pair CRC, then the
    transport prefix or the cached UDP flow prefix, then the payload)
    equals the reference formula, also across cache clears at the
    limits, patched small so that a few flows overrun them.  The one UDP
    packet constructor builds the packet the ``NamedTuple`` constructors
    build around the reference checksum, for ``bytes`` and for
    :class:`WireView` payloads."""
    with mock.patch.object(packet_module, "_PAIR_CACHE_LIMIT", 2), \
            mock.patch.object(packet_module, "_FLOW_CACHE_LIMIT", 2):
        packet_module._pair_crcs.clear()
        packet_module._flow_crcs.clear()
        for _round in range(2):
            for src, dst, drawn in flows:
                # Each UDP flow comes with its neighbours one port away,
                # which a memo keyed on too little confuses with it.
                for segment in ([drawn] if type(drawn) is TcpSegment else [
                        drawn, drawn._replace(sport=drawn.sport ^ 1),
                        drawn._replace(dport=drawn.dport ^ 1)]):
                    expected = reference_checksum(src, dst, segment)
                    assert packet_checksum(src, dst, segment) == expected
                    if type(segment) is UdpSegment:
                        packet = make_udp_packet(src, segment.sport, dst,
                                                 segment.dport, segment.data)
                        assert packet == IpPacket(
                            src, dst, UdpSegment(*segment), expected)
                        assert type(packet) is IpPacket
                        assert type(packet.segment) is UdpSegment
                        assert packet.segment.data is segment.data
                    assert len(packet_module._pair_crcs) <= 2
                    assert len(packet_module._flow_crcs) <= 2
    packet_module._pair_crcs.clear()
    packet_module._flow_crcs.clear()


def test_wireview_payload_checksums_as_its_joined_bytes():
    wire = b"\x12\x34" + bytes(range(40))
    view = WireView(wire[:2], memoryview(wire)[2:])
    assert len(view) == view.length == len(wire)
    assert packet_checksum("10.0.0.1", "10.0.0.2", UdpSegment(53, 9, view)) \
        == packet_checksum("10.0.0.1", "10.0.0.2", UdpSegment(53, 9, wire))


@pytest.mark.parametrize("value", [
    make_udp_packet("10.0.0.1", 1, "10.0.0.2", 53, b"x"),
    make_tcp_packet("10.0.0.1", 1, "10.0.0.2", 53, 0, 0, TcpFlags.SYN),
    UdpSegment(1, 53, b"x"),
    TcpSegment(1, 53, 0, 0, TcpFlags.ACK),
], ids=["ip-udp", "ip-tcp", "udp", "tcp"])
def test_every_field_is_read_only(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1
