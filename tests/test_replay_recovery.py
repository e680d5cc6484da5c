"""Tests for failure recovery in the replay pipeline.

UDP timeout/retry/backoff/TCP-fallback, stream reconnection,
(id, qname, qtype) response matching, duplicate accounting, and
crashed-querier failover in the distribution tree.
"""

from dataclasses import replace

import pytest

from repro.dns import DNS_PORT, Message, Name, RRType, read_zone
from repro.netsim import (EventLoop, FaultInjector, FaultPlan, Network,
                          RetryPolicy)
from repro.replay import (QuerierConfig, ReplayConfig, SimQuerier,
                          SimReplayEngine)
from repro.dns import wire as wire_module
from repro.replay.querier import ANSWERED_WINDOW
from repro.replay.result import ReplayResult
from repro.server import AuthoritativeServer, HostedDnsServer, \
    TransportConfig
from repro.server.dnsio import frame_message
from repro.trace import QueryRecord, Trace
from repro.trace.binfmt import pack_record_body

from live_fakes import fake_querier

pytestmark = pytest.mark.faults

ZONE = """
$ORIGIN example.com.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 10.66.0.2
www 300 IN A 192.0.2.80
api 300 IN A 192.0.2.81
"""

SERVER = "10.66.0.2"
CLIENT = "10.66.0.1"


def make_record(timestamp=0.0, qname="www.example.com.", msg_id=1,
                protocol="udp", src="198.51.100.1"):
    wire = Message.make_query(Name.from_text(qname), RRType.A,
                              msg_id=msg_id).to_wire()
    return QueryRecord(timestamp=timestamp, src=src, sport=5000,
                       dst=SERVER, dport=DNS_PORT, protocol=protocol,
                       wire=wire)


def deploy(retry=None, tls=False):
    loop = EventLoop()
    network = Network(loop)
    server_host = network.add_host("server", SERVER)
    client_host = network.add_host("client", CLIENT)
    network.latency.set_rtt("server", "client", 0.02)
    zone = read_zone(ZONE, origin=Name.from_text("example.com."))
    server = HostedDnsServer(
        server_host, AuthoritativeServer.single_view([zone]),
        config=TransportConfig(udp=True, tcp=True, tls=tls))
    result = ReplayResult()
    querier = SimQuerier(0, client_host, result,
                         QuerierConfig(retry=retry))
    return loop, network, server, querier, result


class TestUdpRetry:
    def test_lost_query_retried_and_answered(self):
        retry = RetryPolicy(udp_timeout=0.5, max_retries=3)
        loop, network, server, querier, result = deploy(retry)
        # Drop everything for the first 0.3 s: the original send dies,
        # the 0.5 s retry goes through.
        FaultInjector(network, FaultPlan().loss_burst(0.0, 0.3, 1.0))
        loop.call_at(0.01, querier.send, 0, make_record(), 0.01)
        loop.run_until(5.0)
        entry = result.sent[0]
        assert entry.answered_at is not None
        assert entry.retries == 1
        assert entry.timeouts == 1
        assert result.udp_timeouts == 1
        assert result.retries == 1
        assert result.unanswered() == 0

    def test_gives_up_after_budget(self):
        retry = RetryPolicy(udp_timeout=0.2, backoff=2.0, max_retries=2)
        loop, network, server, querier, result = deploy(retry)
        FaultInjector(network, FaultPlan().loss_burst(0.0, 100.0, 1.0))
        loop.call_at(0.01, querier.send, 0, make_record(), 0.01)
        loop.run_until(30.0)
        entry = result.sent[0]
        assert entry.answered_at is None
        assert entry.gave_up
        assert entry.retries == 2
        assert result.gave_up == 1
        assert result.unanswered() == 1
        # Timeouts: initial try + 2 retries all timed out.
        assert result.udp_timeouts == 3

    def test_no_policy_means_no_retry(self):
        loop, network, server, querier, result = deploy(retry=None)
        FaultInjector(network, FaultPlan().loss_burst(0.0, 100.0, 1.0))
        loop.call_at(0.01, querier.send, 0, make_record(), 0.01)
        loop.run_until(10.0)
        assert result.udp_timeouts == 0
        assert result.retries == 0
        assert result.unanswered() == 1

    def test_tcp_fallback_after_timeouts(self):
        retry = RetryPolicy(udp_timeout=0.2, max_retries=5,
                            tcp_fallback_after=2)
        loop, network, server, querier, result = deploy(retry)
        # Total loss until 0.55 s: the original UDP send and its first
        # retry both die; the second timeout triggers the TCP fallback
        # at ~0.61 s, after the window, and that query completes.
        FaultInjector(network,
                      FaultPlan().loss_burst(0.0, 0.55, 1.0,
                                             src="client", dst="server"))
        loop.call_at(0.01, querier.send, 0, make_record(), 0.01)
        loop.run_until(10.0)
        entry = result.sent[0]
        assert entry.tcp_fallback
        assert entry.answered_at is not None
        assert result.tcp_fallbacks == 1
        assert result.unanswered() == 0

    def test_duplicate_responses_counted(self):
        loop, network, server, querier, result = deploy()
        FaultInjector(network, FaultPlan().duplication(0.0, 10.0, 1.0))
        loop.call_at(0.01, querier.send, 0, make_record(), 0.01)
        loop.run_until(5.0)
        assert result.sent[0].answered_at is not None
        assert result.duplicate_responses >= 1
        assert result.unmatched_responses == 0


class _Matcher:
    """One querier's response matching, driven directly.

    ``driver`` is ``udp`` or ``tcp`` for a :class:`SimQuerier`, whose
    sends go onto the simulated network, which is never run; an answer
    is handed to the querier as if it had just arrived on the record's
    socket (UDP) or connection (TCP).  ``live-list`` and
    ``live-aggregate`` are a live querier's ``_send`` onto a
    :class:`LoopbackSocket` that answers only when told, and its
    ``_drain_responses``.  A copy of the query wire serves as its
    answer: every driver matches on what the query carries.
    """

    def __init__(self, driver):
        self.driver = driver
        self.base = make_record(protocol="tcp" if driver == "tcp" else "udp")
        self.index = 0
        if driver.startswith("live"):
            self.querier, self.socket = fake_querier(
                lag=None, aggregate=driver == "live-aggregate")
            self.result = self.querier.result
            self.sent = {}      # test id -> the wire the querier sent
        else:
            _loop, _network, _server, self.querier, self.result = deploy()

    def record(self, msg_id):
        return replace(self.base,
                       wire=msg_id.to_bytes(2, "big") + self.base.wire[2:])

    def send(self, msg_id):
        record = self.record(msg_id)
        if self.driver.startswith("live"):
            # The live querier numbers its message ids by its send
            # sequence: pinned, a test id is one key every time it is sent.
            querier = self.querier
            querier._sequence = msg_id
            querier._send(pack_record_body(record), 0.0, self.index)
            self.result.count_sends("udp", querier._sends)
            querier._sends.clear()
            self.sent[msg_id] = self.socket.last
        else:
            self.querier.send(self.index, record, 0.0)
        self.index += 1

    def answer(self, msg_id):
        if self.driver.startswith("live"):
            self.socket.echo(self.sent[msg_id])
            self.querier._drain_responses()
            return
        wire = self.record(msg_id).wire
        if self.driver == "udp":
            sock = self.querier._udp_sockets["198.51.100.1"]
            self.querier._on_udp_response(sock, wire, SERVER, DNS_PORT)
        else:
            channel = self.querier._channels[("198.51.100.1", "tcp")]
            channel._on_bytes(frame_message(wire))

    def table(self):
        if self.driver.startswith("live"):
            return self.querier._pending
        if self.driver == "udp":
            return self.querier._udp_pending
        return self.querier._channels[("198.51.100.1", "tcp")].pending

    def exchange(self, msg_ids):
        for msg_id in msg_ids:
            self.send(msg_id)
            self.answer(msg_id)


@pytest.mark.parametrize("driver",
                         ["udp", "tcp", "live-list", "live-aggregate"])
class TestAnsweredWindow:
    """The bounded window that tells a duplicate from an unmatched
    answer: one ResponseTable in every querier."""

    def test_duplicate_inside_the_window(self, driver):
        matcher = _Matcher(driver)
        matcher.exchange([1, 2, 3])
        matcher.answer(2)
        assert matcher.result.duplicate_responses == 1
        assert matcher.result.unmatched_responses == 0
        assert matcher.result.unanswered() == 0

    def test_stale_copy_past_two_windows_is_unmatched(self, driver):
        matcher = _Matcher(driver)
        matcher.exchange([1])
        matcher.exchange(range(2, 2 * ANSWERED_WINDOW + 3))
        matcher.answer(1)
        assert matcher.result.duplicate_responses == 0
        assert matcher.result.unmatched_responses == 1

    def test_resent_key_matches_its_fresh_answer(self, driver):
        matcher = _Matcher(driver)
        matcher.exchange([7])
        matcher.send(7)
        matcher.answer(7)
        assert len(matcher.result) == 2
        assert matcher.result.unanswered() == 0
        assert matcher.result.duplicate_responses == 0
        assert matcher.result.unmatched_responses == 0
        matcher.answer(7)
        assert matcher.result.duplicate_responses == 1

    def test_window_stays_bounded(self, driver):
        matcher = _Matcher(driver)
        matcher.exchange(range(1, 30_001))
        assert matcher.result.unanswered() == 0
        table = matcher.table()
        assert not table
        assert len(table.newer) <= ANSWERED_WINDOW
        assert len(table.older) <= ANSWERED_WINDOW


def test_sim_and_live_queriers_agree_on_a_mixed_case_qname():
    """Both drivers name a sent query by the one rule: the lowercased
    presentation name of its question."""
    record = make_record(qname="WwW.ExAmple.COM.")
    wire_module._QUESTIONS.clear()
    _loop, _network, _server, sim, sim_result = deploy()
    sim.send(0, record, 0.0)
    wire_module._QUESTIONS.clear()
    live, _socket = fake_querier(lag=None)
    live._send(pack_record_body(record), 0.0, 0)
    assert sim_result.sent[0].qname == live.result.sent[0].qname \
        == "www.example.com."


class TestStreamMatching:
    def test_same_id_different_qname_matched_correctly(self):
        # Two in-flight TCP queries share msg_id 7 on one connection;
        # matching by id alone would answer them in arrival order.
        loop, network, server, querier, result = deploy()
        first = make_record(qname="www.example.com.", msg_id=7,
                            protocol="tcp")
        second = make_record(qname="api.example.com.", msg_id=7,
                             protocol="tcp")
        loop.call_at(0.01, querier.send, 0, first, 0.01)
        loop.call_at(0.011, querier.send, 1, second, 0.011)
        loop.run_until(5.0)
        assert result.unanswered() == 0
        assert result.unmatched_responses == 0
        channel = querier._channels[("198.51.100.1", "tcp")]
        assert not channel.pending

    def test_reconnect_resends_in_flight_queries(self):
        # Query 1 completes on a TCP channel; the server then crashes
        # and restarts.  Query 2 goes out on the stale connection, the
        # restarted stack answers with RST, and the channel reconnects
        # and re-sends it.
        retry = RetryPolicy(udp_timeout=0.5, max_retries=3)
        loop, network, server, querier, result = deploy(retry)
        FaultInjector(network,
                      FaultPlan().server_outage(1.0, 1.0, host="server"))
        loop.call_at(0.5, querier.send, 0, make_record(protocol="tcp"),
                     0.5)
        loop.call_at(2.5, querier.send, 1,
                     make_record(qname="api.example.com.", msg_id=2,
                                 protocol="tcp"), 2.5)
        loop.run_until(20.0)
        assert result.reconnects == 1
        assert result.retries >= 1
        assert all(q.answered_at is not None for q in result.sent)
        assert result.unanswered() == 0

    def test_no_policy_stranded_queries_stay_stranded(self):
        loop, network, server, querier, result = deploy(retry=None)
        FaultInjector(network,
                      FaultPlan().server_outage(1.0, 1.0, host="server"))
        loop.call_at(0.5, querier.send, 0, make_record(protocol="tcp"),
                     0.5)
        loop.call_at(2.5, querier.send, 1,
                     make_record(qname="api.example.com.", msg_id=2,
                                 protocol="tcp"), 2.5)
        loop.run_until(20.0)
        assert result.reconnects == 0
        assert result.unanswered() == 1


class TestEngineFailover:
    def replay_with_outage(self, crash_instance=True):
        loop = EventLoop()
        network = Network(loop)
        server_host = network.add_host("server", SERVER)
        zone = read_zone(ZONE, origin=Name.from_text("example.com."))
        HostedDnsServer(server_host,
                        AuthoritativeServer.single_view([zone]))
        retry = RetryPolicy(udp_timeout=0.5, max_retries=4)
        engine = SimReplayEngine(
            network,
            ReplayConfig(client_instances=2, queriers_per_instance=2,
                         querier=QuerierConfig(retry=retry)))
        # Crash the first client instance for the middle of the run.
        plan = FaultPlan()
        if crash_instance:
            plan.server_outage(2.0, 100.0, host="client-1")
        FaultInjector(network, plan)
        records = [make_record(timestamp=i * 0.1,
                               src=f"198.51.100.{i % 8 + 1}", msg_id=i + 1)
                   for i in range(80)]
        trace = Trace(records, name="failover")
        result = engine.replay(trace, extra_time=20.0)
        return result

    def test_queries_reassigned_off_crashed_instance(self):
        result = self.replay_with_outage()
        assert result.reassigned_queries > 0
        # Everything routed to live queriers is answered; queries the
        # crashed host sent just before dying are retried... but the
        # host is down for the rest of the run, so they are lost with
        # its sockets.  Reassigned ones all complete.
        reassigned_ok = [q for q in result.sent
                         if q.answered_at is not None]
        assert len(reassigned_ok) >= result.reassigned_queries

    def test_no_crash_no_reassignment(self):
        result = self.replay_with_outage(crash_instance=False)
        assert result.reassigned_queries == 0
        assert result.unanswered() == 0
