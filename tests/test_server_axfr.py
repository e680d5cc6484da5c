"""Tests for AXFR zone transfer (RFC 5936)."""

import pytest

from repro.dns import Message, Name, RRType, Rcode, read_zone
from repro.netsim import EventLoop, Network
from repro.server import (AXFR, AuthoritativeServer, AxfrError,
                          HostedDnsServer, View, ZoneSet, axfr_fetch,
                          axfr_response_stream)


def big_zone(records=100, origin="xfer.example."):
    text = f"""
$ORIGIN {origin}
@ 3600 IN SOA ns1 h. 9 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 192.0.2.1
""" + "\n".join(f"h{i} 60 IN A 10.9.{i // 250}.{i % 250 + 1}"
                for i in range(records))
    return read_zone(text, origin=Name.from_text(origin))


class TestResponseStream:
    def test_soa_first_and_last(self):
        zone = big_zone(10)
        query = Message.make_query(zone.origin, AXFR, msg_id=1)
        messages = axfr_response_stream(zone, query)
        first = messages[0].answer[0]
        last = messages[-1].answer[-1]
        assert first.rrtype == RRType.SOA
        assert last.rrtype == RRType.SOA
        total = sum(len(m.answer) for m in messages)
        assert total == zone.record_count() + 1  # SOA appears twice

    def test_large_zone_spans_messages(self):
        zone = big_zone(150)
        query = Message.make_query(zone.origin, AXFR, msg_id=1)
        messages = axfr_response_stream(zone, query,
                                        records_per_message=40)
        assert len(messages) > 2
        assert all(m.msg_id == 1 for m in messages)

    def test_zone_without_soa_rejected(self):
        from repro.dns import Zone
        with pytest.raises(AxfrError):
            axfr_response_stream(
                Zone(Name.from_text("broken.")),
                Message.make_query(Name.from_text("broken."), AXFR))


class TestTransfer:
    def deploy(self, zone, views=None):
        loop = EventLoop()
        network = Network(loop)
        server_host = network.add_host("primary", "10.10.0.2")
        engine = (AuthoritativeServer(views) if views is not None
                  else AuthoritativeServer.single_view([zone]))
        HostedDnsServer(server_host, engine)
        client = network.add_host("secondary", "10.10.0.3")
        return loop, client

    def test_full_transfer(self):
        zone = big_zone(120)
        loop, client = self.deploy(zone)
        got = []
        axfr_fetch(client, "10.10.0.2", zone.origin, got.append)
        loop.run(max_time=10)
        assert got and got[0] is not None
        assert got[0].record_count() == zone.record_count()
        assert got[0].soa.rdatas[0].serial == 9
        got[0].validate()

    def test_transferred_zone_is_servable(self):
        zone = big_zone(30)
        loop, client = self.deploy(zone)
        got = []
        axfr_fetch(client, "10.10.0.2", zone.origin, got.append)
        loop.run(max_time=10)
        secondary = AuthoritativeServer.single_view([got[0]])
        query = Message.make_query(Name.from_text("h5.xfer.example."),
                                   RRType.A, msg_id=3)
        response = secondary.handle_query(query)
        assert response.rcode == Rcode.NOERROR
        assert response.answer

    def test_unknown_zone_refused(self):
        zone = big_zone(5)
        loop, client = self.deploy(zone)
        got = []
        axfr_fetch(client, "10.10.0.2", Name.from_text("other.example."),
                   got.append)
        loop.run(max_time=10)
        assert got == [None]

    def test_view_controls_transfer(self):
        # Only the matching view's client may transfer the zone.
        zone = big_zone(5)
        views = [View("secondary-only", ZoneSet([zone]),
                      match_clients=("10.10.0.3",))]
        loop, client = self.deploy(zone, views=views)
        allowed = []
        axfr_fetch(client, "10.10.0.2", zone.origin, allowed.append)
        loop.run(max_time=10)
        assert allowed and allowed[0] is not None

        network = client.network
        outsider = network.add_host("outsider", "10.10.0.9")
        denied = []
        axfr_fetch(outsider, "10.10.0.2", zone.origin, denied.append)
        loop.run(max_time=loop.now + 10)
        assert denied == [None]

    def test_normal_queries_still_served_on_same_connection_port(self):
        zone = big_zone(5)
        loop, client = self.deploy(zone)
        # A plain TCP query to the same server must not be hijacked by
        # the AXFR path.
        from repro.netsim import TcpOptions, TcpStack
        from repro.server import StreamFramer, frame_message
        stack = TcpStack(client)
        framer = StreamFramer()
        answers = []
        framer.on_message = lambda wire: answers.append(
            Message.from_wire(wire))
        conn = stack.connect("10.10.0.3", "10.10.0.2", 53,
                             TcpOptions(nagle=False))
        conn.on_data = lambda _cn, d: framer.feed(d)
        conn.send(frame_message(Message.make_query(
            Name.from_text("h1.xfer.example."), RRType.A,
            msg_id=9).to_wire()))
        loop.run(max_time=10)
        assert answers and answers[0].rcode == Rcode.NOERROR

    def test_a_tcp_query_is_decoded_once(self, monkeypatch):
        """The AXFR probe reads the qtype off the wire: a TCP query that
        is not a transfer is decoded only where it is served (the
        parent decoded it twice), and a transfer still streams."""
        from repro.netsim import TcpOptions, TcpStack
        from repro.server import StreamFramer, frame_message
        zone = big_zone(5)
        loop, client = self.deploy(zone)
        decoded = []
        from_wire = Message.from_wire.__func__

        def counting(cls, wire, *args, **kwargs):
            decoded.append(bytes(wire))
            return from_wire(cls, wire, *args, **kwargs)

        monkeypatch.setattr(Message, "from_wire", classmethod(counting))
        framer = StreamFramer()
        answers = []
        framer.on_message = answers.append
        conn = TcpStack(client).connect("10.10.0.3", "10.10.0.2", 53,
                                        TcpOptions(nagle=False))
        conn.on_data = lambda _cn, d: framer.feed(d)
        query = Message.make_query(Name.from_text("h1.xfer.example."),
                                   RRType.A, msg_id=9).to_wire()
        conn.send(frame_message(query))
        loop.run(max_time=10)
        assert decoded == [query]
        monkeypatch.undo()
        assert Message.from_wire(answers[0]).rcode == Rcode.NOERROR
        got = []
        axfr_fetch(client, "10.10.0.2", zone.origin, got.append)
        loop.run(max_time=loop.now + 10)
        assert got and got[0].record_count() == zone.record_count()


class TestReloadInvalidation:
    """AXFR reloads must evict stale response-wire cache entries."""

    def ask(self, engine, qname, msg_id=1):
        query = Message.make_query(Name.from_text(qname), RRType.A,
                                   msg_id=msg_id)
        return Message.from_wire(engine.serve_wire(query))

    def test_replace_serves_fresh_data(self):
        engine = AuthoritativeServer.single_view([big_zone(10)])
        qname = "h3.xfer.example."
        first = self.ask(engine, qname)
        assert first.answer[0].rdata.address == "10.9.0.4"
        assert self.ask(engine, qname).answer[0].rdata.address == "10.9.0.4"
        assert engine.wire_cache.hits == 1

        # A secondary-style reload: the whole zone object is replaced.
        reloaded = read_zone("""
$ORIGIN xfer.example.
@ 3600 IN SOA ns1 h. 10 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 192.0.2.1
h3 60 IN A 203.0.113.3
""", origin=Name.from_text("xfer.example."))
        previous = engine.views[0].zones.replace(reloaded)
        assert previous is not None

        fresh = self.ask(engine, qname, msg_id=2)
        assert fresh.answer[0].rdata.address == "203.0.113.3"

    def test_transferred_zone_replaces_and_invalidates(self):
        # End to end: fetch over the wire, install with replace(), and
        # confirm the cached pre-transfer answer is gone.
        zone = big_zone(20)
        loop = EventLoop()
        network = Network(loop)
        server_host = network.add_host("primary", "10.10.0.2")
        HostedDnsServer(server_host, AuthoritativeServer.single_view([zone]))
        client = network.add_host("secondary", "10.10.0.3")

        stale = read_zone("""
$ORIGIN xfer.example.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 192.0.2.250
""", origin=Name.from_text("xfer.example."))
        secondary = AuthoritativeServer.single_view([stale])
        assert self.ask(secondary, "ns1.xfer.example.").answer[0] \
            .rdata.address == "192.0.2.250"

        got = []
        axfr_fetch(client, "10.10.0.2", zone.origin, got.append)
        loop.run(max_time=10)
        secondary.views[0].zones.replace(got[0])
        assert self.ask(secondary, "ns1.xfer.example.", msg_id=2) \
            .answer[0].rdata.address == "192.0.2.1"


class TestTransferRetry:
    """Failed transfers re-attempt with backoff under a RetryPolicy."""

    def deploy_empty(self):
        from repro.netsim import EventLoop, Network
        loop = EventLoop()
        network = Network(loop)
        server_host = network.add_host("primary", "10.10.0.2")
        engine = AuthoritativeServer.single_view([])
        HostedDnsServer(server_host, engine)
        client = network.add_host("secondary", "10.10.0.3")
        return loop, client, engine

    def test_retry_succeeds_after_zone_appears(self):
        from repro.netsim import RetryPolicy
        zone = big_zone(20)
        loop, client, engine = self.deploy_empty()
        got = []
        # First attempt is REFUSED (zone not hosted yet); the zone
        # shows up before the backoff expires and the retry transfers.
        axfr_fetch(client, "10.10.0.2", zone.origin, got.append,
                   retry=RetryPolicy(udp_timeout=0.5, max_retries=2))
        loop.call_at(0.3, engine.views[0].zones.add, zone)
        loop.run(max_time=20)
        assert got and got[0] is not None
        assert got[0].record_count() == zone.record_count()

    def test_gives_up_after_budget(self):
        from repro.netsim import RetryPolicy
        zone = big_zone(5)
        loop, client, engine = self.deploy_empty()
        got = []
        axfr_fetch(client, "10.10.0.2", zone.origin, got.append,
                   retry=RetryPolicy(udp_timeout=0.2, max_retries=1))
        loop.run(max_time=20)
        # Exactly one completion callback, after both attempts failed.
        assert got == [None]

    def test_no_policy_fails_immediately(self):
        zone = big_zone(5)
        loop, client, engine = self.deploy_empty()
        got = []
        axfr_fetch(client, "10.10.0.2", zone.origin, got.append)
        loop.run(max_time=20)
        assert got == [None]
