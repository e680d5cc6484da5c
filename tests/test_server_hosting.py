"""Tests for the transport hosting layer (UDP/TCP/TLS serving)."""

import pytest

from repro.dns import (DNS_OVER_TLS_PORT, DNS_PORT, Message, Name, RRType,
                       Rcode, read_zone)
from repro.netsim import (EventLoop, Network, TcpOptions, TcpStack,
                          TlsEndpoint)
from repro.server import (AuthoritativeServer, HostedDnsServer, StreamFramer,
                          TransportConfig, frame_message)
from repro.server.dnsio import FramingError

ZONE = """
$ORIGIN example.com.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 10.5.0.2
www 300 IN A 192.0.2.80
"""


@pytest.fixture
def deployment():
    loop = EventLoop()
    network = Network(loop)
    server_host = network.add_host("server", "10.5.0.2")
    client_host = network.add_host("client", "10.5.0.1")
    zone = read_zone(ZONE, origin=Name.from_text("example.com."))
    server = HostedDnsServer(
        server_host, AuthoritativeServer.single_view([zone]),
        config=TransportConfig(udp=True, tcp=True, tls=True,
                               tcp_idle_timeout=5.0))
    return loop, network, server, client_host


def make_query(qname="www.example.com.", msg_id=7):
    return Message.make_query(Name.from_text(qname), RRType.A,
                              msg_id=msg_id).to_wire()


class TestUdpServing:
    def test_udp_query_answered(self, deployment):
        loop, network, server, client = deployment
        got = []
        sock = client.bind_udp("10.5.0.1", 0,
                               lambda s, d, a, p: got.append(
                                   Message.from_wire(d)))
        sock.sendto(make_query(), "10.5.0.2", DNS_PORT)
        loop.run(max_time=5)
        assert got and got[0].rcode == Rcode.NOERROR
        assert got[0].answer[0].rdata.address == "192.0.2.80"

    def test_garbage_counted_not_crashing(self, deployment):
        loop, network, server, client = deployment
        sock = client.bind_udp("10.5.0.1", 0)
        sock.sendto(b"\x00\x01nonsense-but-12-bytes-at-least", "10.5.0.2",
                    DNS_PORT)
        loop.run(max_time=5)
        assert server.decode_errors == 1


class TestTcpServing:
    def test_tcp_query_answered(self, deployment):
        loop, network, server, client = deployment
        stack = TcpStack(client)
        framer = StreamFramer()
        answers = []
        framer.on_message = lambda wire: answers.append(
            Message.from_wire(wire))
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_data = lambda cn, d: framer.feed(d)
        conn.send(frame_message(make_query()))
        loop.run(max_time=5)
        assert answers and answers[0].rcode == Rcode.NOERROR

    def test_multiple_queries_one_connection(self, deployment):
        loop, network, server, client = deployment
        stack = TcpStack(client)
        framer = StreamFramer()
        answers = []
        framer.on_message = lambda wire: answers.append(wire)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_data = lambda cn, d: framer.feed(d)
        for msg_id in (1, 2, 3):
            conn.send(frame_message(make_query(msg_id=msg_id)))
        loop.run(max_time=5)
        assert len(answers) == 3
        assert server.tcp_stack.established_count() == 1

    def test_queries_split_across_segments(self, deployment):
        # A query framed in two halves must still be parsed when the
        # second half lands (stream reassembly).
        loop, network, server, client = deployment
        stack = TcpStack(client)
        framer = StreamFramer()
        answers = []
        framer.on_message = lambda wire: answers.append(wire)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_data = lambda cn, d: framer.feed(d)
        framed = frame_message(make_query())

        def send_halves(cn):
            cn.send(framed[:7])
            loop.call_later(0.05, cn.send, framed[7:])

        loop.call_soon(send_halves, conn)
        loop.run(max_time=5)
        assert len(answers) == 1

    def test_idle_timeout_closes_server_side(self, deployment):
        loop, network, server, client = deployment
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_close = lambda cn: cn.close()
        conn.send(frame_message(make_query()))
        loop.run(max_time=30)
        assert server.tcp_stack.established_count() == 0
        assert server.tcp_stack.time_wait_count() == 1


class TestTlsServing:
    def test_tls_query_answered(self, deployment):
        loop, network, server, client = deployment
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_OVER_TLS_PORT,
                             TcpOptions(nagle=False))
        endpoint = TlsEndpoint(conn, "client")
        framer = StreamFramer()
        answers = []
        framer.on_message = lambda wire: answers.append(
            Message.from_wire(wire))
        endpoint.on_data = lambda ep, d: framer.feed(d)
        endpoint.send(frame_message(make_query()))
        loop.run(max_time=5)
        assert answers and answers[0].rcode == Rcode.NOERROR

    def test_tls_sessions_counted(self, deployment):
        loop, network, server, client = deployment
        stack = TcpStack(client)
        for _ in range(3):
            conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_OVER_TLS_PORT,
                                 TcpOptions(nagle=False))
            TlsEndpoint(conn, "client").send(frame_message(make_query()))
        loop.run(max_time=4)
        assert server.resources.tls_sessions == 3

    def test_cpu_charged_for_crypto(self, deployment):
        loop, network, server, client = deployment
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_OVER_TLS_PORT,
                             TcpOptions(nagle=False))
        TlsEndpoint(conn, "client").send(frame_message(make_query()))
        loop.run(max_time=5)
        busy = server.resources.cpu.busy_seconds
        assert "tls_handshake_private_key" in busy
        assert busy["tls_handshake_private_key"] > 0


class TestFraming:
    def test_frame_roundtrip(self):
        wires = [make_query(msg_id=i) for i in (1, 2, 3)]
        stream = b"".join(frame_message(w) for w in wires)
        assert StreamFramer().feed(stream) == wires

    def test_oversize_frame_rejected(self):
        with pytest.raises(FramingError):
            frame_message(b"\x00" * 70000)

    def test_framer_incremental(self):
        framer = StreamFramer()
        framed = frame_message(make_query())
        assert framer.feed(framed[:3]) == []
        out = framer.feed(framed[3:])
        assert len(out) == 1
        assert framer.pending_bytes() == 0


class TestTransportConfig:
    def make(self, **kwargs):
        loop = EventLoop()
        network = Network(loop)
        server_host = network.add_host("server2", "10.5.1.2")
        client_host = network.add_host("client2", "10.5.1.1")
        zone = read_zone(ZONE.replace("10.5.0.2", "10.5.1.2"),
                         origin=Name.from_text("example.com."))
        server = HostedDnsServer(
            server_host, AuthoritativeServer.single_view([zone]),
            config=TransportConfig(**kwargs))
        return loop, network, server, client_host

    def test_udp_disabled(self):
        loop, network, server, client = self.make(udp=False, tcp=True)
        sock = client.bind_udp("10.5.1.1", 0)
        sock.sendto(make_query(), "10.5.1.2", DNS_PORT)
        loop.run(max_time=2)
        assert network.host("server2").counters.unreachable_drops == 1

    def test_tls_disabled_by_default(self):
        loop, network, server, client = self.make()
        stack = TcpStack(client)
        refused = []
        conn = stack.connect("10.5.1.1", "10.5.1.2", DNS_OVER_TLS_PORT,
                             TcpOptions(nagle=False))
        conn.on_reset = lambda cn: refused.append(True)
        loop.run(max_time=2)
        assert refused  # RST: no TLS listener

    def test_tcp_disabled(self):
        loop, network, server, client = self.make(tcp=False)
        stack = TcpStack(client)
        refused = []
        conn = stack.connect("10.5.1.1", "10.5.1.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_reset = lambda cn: refused.append(True)
        loop.run(max_time=2)
        assert refused

    def test_no_idle_timeout_keeps_connection(self):
        loop, network, server, client = self.make(tcp_idle_timeout=None)
        stack = TcpStack(client)
        conn = stack.connect("10.5.1.1", "10.5.1.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.send(frame_message(make_query()))
        loop.run(max_time=120)
        assert server.tcp_stack.established_count() == 1


class SlowEngine:
    """Answers asynchronously after a delay — long enough for the
    client to reset the connection while the response is in flight."""

    def __init__(self, loop, delay=0.5):
        self.loop = loop
        self.delay = delay

    def handle_query_async(self, query, source, transport, respond):
        self.loop.call_later(self.delay, respond,
                             Message.make_response(query))


class TestResponseDroppedOnClosed:
    """The reset-while-response-in-flight branches of the send path."""

    def deploy_slow(self):
        loop = EventLoop()
        network = Network(loop)
        server_host = network.add_host("server", "10.5.0.2")
        client_host = network.add_host("client", "10.5.0.1")
        server = HostedDnsServer(
            server_host, SlowEngine(loop),
            config=TransportConfig(udp=True, tcp=True, tls=True))
        return loop, server, client_host

    def test_tcp_reset_while_response_in_flight(self):
        loop, server, client = self.deploy_slow()
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.send(frame_message(make_query()))
        # The engine responds at ~0.5 s; reset the connection first.
        loop.call_at(0.2, conn.abort)
        loop.run(max_time=5)
        assert server.responses_dropped_on_closed == 1

    def test_tls_reset_while_response_in_flight(self):
        loop, server, client = self.deploy_slow()
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_OVER_TLS_PORT,
                             TcpOptions(nagle=False))
        endpoint = TlsEndpoint(conn, "client")
        endpoint.send(frame_message(make_query()))
        loop.call_at(0.2, conn.abort)
        loop.run(max_time=5)
        assert server.responses_dropped_on_closed == 1

    def test_graceful_serving_does_not_count_drops(self):
        loop, server, client = self.deploy_slow()
        got = []
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_data = lambda cn, data: got.append(data)
        conn.send(frame_message(make_query()))
        loop.run(max_time=5)
        assert got
        assert server.responses_dropped_on_closed == 0
