"""Tests for TCP transport backpressure (accept backlog, watermarks)."""

import pytest

from repro.dns import DNS_PORT, Message, Name, RRType, read_zone
from repro.netsim import (EventLoop, Network, TcpFlags, TcpOptions,
                          TcpStack, make_tcp_packet)
from repro.telemetry import MetricsRegistry
from repro.server import (AuthoritativeServer, HostedDnsServer,
                          StreamFramer, TransportConfig, frame_message)

ZONE = """
$ORIGIN example.com.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 10.5.0.2
www 300 IN A 192.0.2.80
"""


def make_pair():
    loop = EventLoop()
    network = Network(loop)
    server_host = network.add_host("server", "10.5.0.2")
    client_host = network.add_host("client", "10.5.0.1")
    return loop, network, server_host, client_host


def spoofed_syn(attacker, server="10.5.0.2", sport=5000, seq=1):
    return make_tcp_packet(attacker, sport, server, DNS_PORT,
                           seq=seq, ack=0, flags=TcpFlags.SYN)


class TestAcceptBacklog:
    def flood_syns(self, backlog, count=5):
        loop, network, server_host, client_host = make_pair()
        stack = TcpStack(server_host)
        stack.perf = MetricsRegistry()
        listener = stack.listen("10.5.0.2", DNS_PORT, lambda conn: None,
                                TcpOptions(accept_backlog=backlog))
        # Spoofed SYNs that never complete the handshake: each parks a
        # half-open connection until the backlog refuses the rest.
        for i in range(count):
            loop.call_at(0.001 * i, client_host.send_packet,
                         spoofed_syn(f"203.0.113.{i + 1}", sport=6000 + i))
        loop.run(max_time=1.0)
        return loop, stack, listener

    def test_overflow_refused_with_rst(self):
        _loop, stack, listener = self.flood_syns(backlog=2, count=5)
        assert listener.half_open == 2
        assert listener.backlog_refusals == 3
        assert stack.backlog_refusals == 3
        assert stack.perf.snapshot()["tcp.backlog_refusals"] == 3
        # The refusals were loud: one RST per refused SYN.
        assert stack.resets_sent >= 3

    def test_no_backlog_accepts_everything(self):
        _loop, stack, listener = self.flood_syns(backlog=None, count=5)
        assert listener.half_open == 5
        assert listener.backlog_refusals == 0

    def test_established_frees_backlog_slot(self):
        loop, network, server_host, client_host = make_pair()
        server_stack = TcpStack(server_host)
        listener = server_stack.listen("10.5.0.2", DNS_PORT,
                                       lambda conn: None,
                                       TcpOptions(accept_backlog=1))
        client_stack = TcpStack(client_host)
        client_stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        loop.run(max_time=1.0)
        # The handshake completed, so the slot is free again.
        assert listener.half_open == 0
        assert server_stack.established_count() == 1
        client_host.send_packet(spoofed_syn("203.0.113.9"))
        loop.run(max_time=1.0)
        assert listener.backlog_refusals == 0


class TestConnectionTableRefusal:
    def fill_table(self, refuse_when_full):
        loop, network, server_host, client_host = make_pair()
        stack = TcpStack(server_host, max_connections=0,
                         refuse_when_full=refuse_when_full)
        stack.perf = MetricsRegistry()
        stack.listen("10.5.0.2", DNS_PORT, lambda conn: None,
                     TcpOptions())
        client_host.send_packet(spoofed_syn("203.0.113.1"))
        loop.run(max_time=1.0)
        return stack

    def test_silent_drop_by_default(self):
        stack = self.fill_table(refuse_when_full=False)
        assert stack.syn_drops == 1
        assert stack.syn_refused == 0
        assert stack.resets_sent == 0
        # Satellite fix: the silent drop is no longer invisible.
        assert stack.perf.snapshot()["tcp.syn_drops"] == 1

    def test_rst_refusal_when_configured(self):
        stack = self.fill_table(refuse_when_full=True)
        assert stack.syn_refused == 1
        assert stack.syn_drops == 0
        assert stack.resets_sent == 1
        assert stack.perf.snapshot()["tcp.syn_refused"] == 1


class TestSendHighwater:
    def test_watermark_pauses_then_resumes(self):
        loop, network, server_host, client_host = make_pair()
        server_stack = TcpStack(server_host)
        server_stack.listen("10.5.0.2", DNS_PORT, lambda conn: None,
                            TcpOptions())
        client_stack = TcpStack(client_host)
        conn = client_stack.connect(
            "10.5.0.1", "10.5.0.2", DNS_PORT,
            TcpOptions(nagle=False, send_highwater=2048))
        resumed = []
        conn.on_writable = lambda cn: resumed.append(loop.now)
        # Writes during the handshake queue in the send buffer (nothing
        # can flush in SYN_SENT): far above the watermark.
        conn.send(b"x" * 65536)
        assert not conn.writable
        # Establishment flushes the buffer and signals writable.
        loop.run(max_time=5.0)
        assert conn.writable
        assert len(resumed) == 1

    def test_no_watermark_always_writable(self):
        loop, network, server_host, client_host = make_pair()
        server_stack = TcpStack(server_host)
        server_stack.listen("10.5.0.2", DNS_PORT, lambda conn: None,
                            TcpOptions())
        client_stack = TcpStack(client_host)
        conn = client_stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                                    TcpOptions(nagle=False))
        conn.send(b"x" * 65536)   # still SYN_SENT: all of it buffered
        assert conn.writable


class SlowEngine:
    """Answers queries only after a long delay (pipelining builds up)."""

    def __init__(self, loop, delay=5.0):
        self.loop = loop
        self.delay = delay
        self.perf = None

    def handle_query_async(self, query, source, transport, respond):
        response = Message.make_response(query)
        self.loop.call_later(self.delay, respond, response)


class TestHostedStreamLimits:
    def deploy(self, engine=None, **config_kwargs):
        loop, network, server_host, client_host = make_pair()
        if engine is None:
            zone = read_zone(ZONE, origin=Name.from_text("example.com."))
            engine = AuthoritativeServer.single_view([zone])
        server = HostedDnsServer(
            server_host, engine,
            config=TransportConfig(udp=False, tcp=True, **config_kwargs))
        return loop, server, client_host

    def query_wire(self, msg_id=1):
        return Message.make_query(Name.from_text("www.example.com."),
                                  RRType.A, msg_id=msg_id).to_wire()

    def test_pipelining_cap_aborts_abusers(self):
        loop, server, client = self.deploy(engine=SlowEngine(None),
                                           max_pipelined=2)
        server.engine.loop = loop
        resets = []
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_reset = lambda cn: resets.append(1)
        # Three queries pipelined while the engine is still busy with
        # the first two: the third breaches the cap.
        for msg_id in (1, 2, 3):
            conn.send(frame_message(self.query_wire(msg_id)))
        loop.run(max_time=2.0)
        assert server.pipelining_aborts == 1
        assert server.perf.snapshot()["hosting.pipeline_aborts"] == 1
        assert resets

    def test_pipelining_within_cap_served(self):
        loop, server, client = self.deploy(max_pipelined=2)
        stack = TcpStack(client)
        framer = StreamFramer()
        answers = []
        framer.on_message = lambda w: answers.append(w)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_data = lambda cn, d: framer.feed(d)
        # The fast engine answers inline, so outstanding never exceeds
        # one even with many queries on the wire.
        for msg_id in range(1, 6):
            conn.send(frame_message(self.query_wire(msg_id)))
        loop.run(max_time=2.0)
        assert len(answers) == 5
        assert server.pipelining_aborts == 0

    def test_stream_buffer_overflow_aborts(self):
        loop, server, client = self.deploy(max_stream_buffer=64)
        resets = []
        stack = TcpStack(client)
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_reset = lambda cn: resets.append(1)
        # A length prefix promising a 60000-byte frame, then a partial
        # body: the reassembly buffer exceeds its 64-byte bound.
        conn.send((60000).to_bytes(2, "big") + b"z" * 500)
        loop.run(max_time=2.0)
        assert server.stream_overflows == 1
        assert server.perf.snapshot()["hosting.stream_overflows"] == 1
        assert resets
