"""Tests for the socket driver of the DNS server core.  Kept short: these
use real wall-clock time on loopback."""

import socket
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns import DNS_PORT, Edns, Message, Name, RRType, read_zone
from repro.netsim import EventLoop, Network
from repro.server import AuthoritativeServer, HostedDnsServer, LiveDnsServer
from repro.verify.oracles import zero_msg_id


def _client(timeout=2.0):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(timeout)
    return sock


class TestEchoServer:
    def test_start_stop(self):
        with LiveDnsServer() as server:
            assert server.port > 0
            assert server.address == "127.0.0.1"

    def test_echoes_with_qr_bit(self):
        with LiveDnsServer() as server:
            sock = _client()
            query = b"\x12\x34\x01\x00" + b"\x00" * 8 + b"payload"
            sock.sendto(query, (server.address, server.port))
            reply, _peer = sock.recvfrom(65535)
            sock.close()
        assert reply[:2] == b"\x12\x34"
        assert reply[2] & 0x80  # QR set
        assert reply[3:] == query[3:]

    def test_start_echo_stop(self):
        with LiveDnsServer() as server:
            assert server.port
            sock = _client()
            sock.sendto(b"\x12\x34" + b"\x00" * 10,
                        (server.address, server.port))
            data, _peer = sock.recvfrom(65535)
            sock.close()
            assert data[:2] == b"\x12\x34"
        assert server._process is None

    def test_short_datagram_is_a_decode_error(self):
        """Under 12 bytes the echo declines and the core's decode path
        counts the datagram; nothing is sent back."""
        with LiveDnsServer() as server:
            sock = _client(timeout=0.3)
            sock.sendto(b"\x12\x34\x01", (server.address, server.port))
            with pytest.raises(socket.timeout):
                sock.recvfrom(65535)
            sock.close()
        assert server.counters["hosting.decode_errors"] == 1
        assert server.counters["hosting.queries"] == 1
        assert "hosting.responses_sent" not in server.counters

    def test_stop_under_sustained_load(self):
        """The child looks at its stop pipe between socket batches, so
        a stop is seen while senders keep the socket full."""
        server = LiveDnsServer().start()
        process = server._process
        sending = threading.Event()
        sending.set()

        def flood():
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            query = b"\x00\x01\x01\x00" + b"\x00" * 8
            while sending.is_set():
                sock.sendto(query, (server.address, server.port))
            sock.close()

        thread = threading.Thread(target=flood, daemon=True)
        thread.start()
        try:
            time.sleep(0.3)
            began = time.monotonic()
            counters = server.stop()
            elapsed = time.monotonic() - began
        finally:
            sending.clear()
            thread.join(timeout=2.0)
            server.stop()
        assert elapsed < 1.0
        assert not process.is_alive()
        assert counters["hosting.queries"] > 0
        assert counters["hosting.responses_sent"] \
            == counters["hosting.queries"]


# ---------------------------------------------------------------------------
# sim ≡ live: one engine factory behind both drivers answers alike
# ---------------------------------------------------------------------------

ZONE = """
$ORIGIN example.com.
@ 3600 IN SOA ns1 hostmaster 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 3600 IN A 10.5.0.2
www 300 IN A 192.0.2.80
mail 300 IN MX 10 www
*.wild 300 IN A 192.0.2.7
sub 3600 IN NS ns.sub
ns.sub 3600 IN A 192.0.2.53
"""

# Answers, a wildcard, a referral (sub), NXDOMAIN (missing), NODATA
# (www MX, x.wild TXT) and REFUSED (outside the zone).
QNAMES = ["example.com.", "www.example.com.", "mail.example.com.",
          "ns1.example.com.", "x.wild.example.com.", "a.b.wild.example.com.",
          "sub.example.com.", "host.sub.example.com.", "missing.example.com.",
          "example.org."]
QTYPES = [RRType.A, RRType.AAAA, RRType.NS, RRType.MX, RRType.SOA,
          RRType.TXT]


def zone_server():
    """The engine factory both drivers build their server from."""
    zone = read_zone(ZONE, origin=Name.from_text("example.com."))
    return AuthoritativeServer.single_view([zone])


ZONE_SERVER = (__name__, zone_server.__name__, {})


class _SimServer:
    """The netsim binding of the same factory, asked one query at a time."""

    def __init__(self):
        self.loop = EventLoop()
        network = Network(self.loop)
        HostedDnsServer(network.add_host("server", "10.5.0.2"), zone_server())
        self.answers = []
        self.sock = network.add_host("client", "10.5.0.1").bind_udp(
            "10.5.0.1", 0, lambda _s, data, _a, _p: self.answers.append(
                bytes(data)))

    def ask(self, wire):
        self.sock.sendto(wire, "10.5.0.2", DNS_PORT)
        self.loop.run(max_time=self.loop.now + 5)
        return self.answers.pop()


@pytest.fixture(scope="module")
def drivers():
    with LiveDnsServer(ZONE_SERVER) as live:
        sock = _client()
        yield _SimServer(), sock, (live.address, live.port)
        sock.close()


queries = st.lists(st.tuples(st.sampled_from(QNAMES), st.sampled_from(QTYPES),
                             st.integers(0, 0xFFFF), st.booleans()),
                   min_size=1, max_size=6)


@settings(max_examples=40)
@given(batch=queries)
def test_sim_and_live_answer_byte_identically(drivers, batch):
    """The sim≡live server differential: each query, served by the
    netsim ``HostedDnsServer`` and by ``LiveDnsServer`` on the same
    ``AuthoritativeServer`` factory, gets the same answer bytes.  Names
    repeat within and across examples, so both the zero-copy cache path
    and the decode path answer."""
    sim, sock, address = drivers
    for qname, qtype, msg_id, edns in batch:
        wire = Message.make_query(Name.from_text(qname), qtype, msg_id=msg_id,
                                  edns=Edns() if edns else None).to_wire()
        sock.sendto(wire, address)
        live, _peer = sock.recvfrom(65535)
        assert zero_msg_id(live) == zero_msg_id(sim.ask(wire))
