"""Tests for the overload-control subsystem (admission queue + RRL)."""

import pytest

from repro.dns import (DNS_PORT, Edns, Flag, Message, Name, RRType, Rcode,
                       read_zone)
from repro.netsim import EventLoop, Network
from repro.telemetry import MetricsRegistry
from repro.server import (AdmissionQueue, AuthoritativeServer,
                          HostedDnsServer, OverloadConfig, OverloadControl,
                          ResponseRateLimiter, RrlConfig, TokenBucket,
                          TransportConfig, minimal_wire, subnet_of)

ZONE = """
$ORIGIN example.com.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 10.5.0.2
www 300 IN A 192.0.2.80
"""


def make_query(qname="www.example.com.", msg_id=7):
    return Message.make_query(Name.from_text(qname), RRType.A,
                              msg_id=msg_id, edns=Edns())


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, now=0.0)
        assert [bucket.take(0.0) for _ in range(4)] \
            == [True, True, True, False]

    def test_refills_with_time(self):
        bucket = TokenBucket(rate=2.0, burst=2.0, now=0.0)
        bucket.take(0.0), bucket.take(0.0)
        assert not bucket.take(0.0)
        assert bucket.take(0.5)   # 0.5 s * 2/s = 1 token back

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        assert [bucket.take(100.0) for _ in range(3)] \
            == [True, True, False]


class TestSubnetOf:
    def test_slash_24(self):
        assert subnet_of("192.0.2.77", 24) == "192.0.2.0/24"

    def test_slash_16(self):
        assert subnet_of("10.128.37.200", 16) == "10.128.0.0/16"

    def test_whole_internet(self):
        assert subnet_of("1.2.3.4", 0) == "0.0.0.0/0"

    def test_non_ipv4_individual(self):
        assert subnet_of("not-an-ip", 24) == "not-an-ip"


class TestResponseRateLimiter:
    def make(self, **kwargs):
        return ResponseRateLimiter(RrlConfig(**kwargs), MetricsRegistry())

    def test_allows_under_rate(self):
        rrl = self.make(responses_per_second=5.0, window=2.0)
        verdicts = [rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
                    for _ in range(10)]
        assert verdicts == [ResponseRateLimiter.ALLOW] * 10  # burst = 10

    def test_drops_and_slips_over_rate(self):
        rrl = self.make(responses_per_second=1.0, window=1.0, slip=2)
        assert rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0) \
            == ResponseRateLimiter.ALLOW
        over = [rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
                for _ in range(4)]
        # Every 2nd suppressed response slips as a TC stub.
        assert over == [ResponseRateLimiter.DROP, ResponseRateLimiter.SLIP,
                        ResponseRateLimiter.DROP, ResponseRateLimiter.SLIP]

    def test_leak_passes_full_response(self):
        rrl = self.make(responses_per_second=1.0, window=1.0, slip=0,
                        leak=3)
        rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
        over = [rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
                for _ in range(6)]
        assert over.count(ResponseRateLimiter.LEAK) == 2
        assert ResponseRateLimiter.SLIP not in over

    def test_keys_isolate_subnets_and_qnames(self):
        rrl = self.make(responses_per_second=1.0, window=1.0)
        rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
        assert rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0) \
            != ResponseRateLimiter.ALLOW
        # Same qname, other /24: fresh bucket.
        assert rrl.decide("198.51.100.1", "q.example.com.", 0, 0.0) \
            == ResponseRateLimiter.ALLOW
        # Same subnet, other qname: fresh bucket.
        assert rrl.decide("192.0.2.9", "other.example.com.", 0, 0.0) \
            == ResponseRateLimiter.ALLOW

    def test_early_drop_follows_debt(self):
        rrl = self.make(responses_per_second=1.0, window=1.0,
                        suppression_window=1.0)
        # No debt yet: queries pass.
        assert not rrl.should_early_drop("192.0.2.1", "q.example.com.", 0.0)
        rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
        rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)  # suppressed
        assert rrl.should_early_drop("192.0.2.1", "q.example.com.", 0.5)
        # Another source in the same /24 is covered too.
        assert rrl.should_early_drop("192.0.2.200", "q.example.com.", 0.5)
        # ...but other qnames are not.
        assert not rrl.should_early_drop("192.0.2.1", "x.example.com.", 0.5)

    def test_early_drop_debt_expires(self):
        rrl = self.make(responses_per_second=1.0, window=1.0,
                        suppression_window=1.0)
        rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
        rrl.decide("192.0.2.1", "q.example.com.", 0, 0.0)
        # Matching queries refresh the suppression while the flood lasts.
        assert rrl.should_early_drop("192.0.2.1", "q.example.com.", 0.9)
        # Once the flood pauses past the window, the debt is forgotten.
        assert not rrl.should_early_drop("192.0.2.1", "q.example.com.", 3.0)

    def test_table_bounded(self):
        rrl = self.make(max_table_size=10)
        for i in range(50):
            rrl.decide(f"10.{i}.0.1", "q.example.com.", 0, 0.0)
        assert rrl.table_size() <= 10


class TestAdmissionQueue:
    def make(self, limit, policy, rate=10.0):
        loop = EventLoop()
        return loop, AdmissionQueue(loop, limit, policy, rate,
                                    MetricsRegistry())

    def test_inline_without_service_rate(self):
        loop = EventLoop()
        queue = AdmissionQueue(loop, 5, "drop-oldest", None,
                               MetricsRegistry())
        ran = []
        queue.submit(lambda: ran.append(1), lambda: ran.append("shed"))
        assert ran == [1]

    def test_drains_at_service_rate(self):
        loop, queue = self.make(limit=None, policy="drop-oldest",
                                rate=10.0)
        ran = []
        for i in range(5):
            queue.submit(lambda i=i: ran.append((i, loop.now)),
                         lambda: None)
        loop.run(max_time=2.0)
        assert [i for i, _t in ran] == [0, 1, 2, 3, 4]
        gaps = [b[1] - a[1] for a, b in zip(ran, ran[1:])]
        assert all(gap == pytest.approx(0.1) for gap in gaps)

    def test_drop_oldest_evicts_head(self):
        loop, queue = self.make(limit=2, policy="drop-oldest")
        ran = []
        for i in range(4):
            queue.submit(lambda i=i: ran.append(i), lambda: None)
        loop.run(max_time=2.0)
        # 0 and 1 were evicted to make room for 2 and 3.
        assert ran == [2, 3]

    def test_drop_newest_refuses_tail(self):
        loop, queue = self.make(limit=2, policy="drop-newest")
        ran = []
        for i in range(4):
            queue.submit(lambda i=i: ran.append(i), lambda: None)
        loop.run(max_time=2.0)
        assert ran == [0, 1]

    def test_servfail_shed_answers_overflow(self):
        loop, queue = self.make(limit=1, policy="servfail-shed")
        ran, shed = [], []
        for i in range(3):
            queue.submit(lambda i=i: ran.append(i),
                         lambda i=i: shed.append(i))
        loop.run(max_time=2.0)
        assert ran == [0]
        assert shed == [1, 2]

    def test_peak_depth_tracked(self):
        loop, queue = self.make(limit=10, policy="drop-oldest", rate=1.0)
        for _ in range(7):
            queue.submit(lambda: None, lambda: None)
        assert queue.peak_depth == 7


class TestConfig:
    def test_defaults_disabled(self):
        assert not OverloadConfig().enabled()

    def test_any_knob_enables(self):
        assert OverloadConfig(queue_limit=10).enabled()
        assert OverloadConfig(service_rate=100.0).enabled()
        assert OverloadConfig(rrl=RrlConfig()).enabled()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            OverloadControl(OverloadConfig(queue_limit=1,
                                           queue_policy="coin-flip"),
                            EventLoop(), MetricsRegistry())


class TestMinimalWire:
    def test_servfail_header(self):
        query = make_query()
        wire = minimal_wire(query, rcode=Rcode.SERVFAIL)
        response = Message.from_wire(wire)
        assert response.msg_id == query.msg_id
        assert response.rcode == Rcode.SERVFAIL
        assert response.question[0].name == query.question[0].name
        assert not response.answer

    def test_tc_stub(self):
        wire = minimal_wire(make_query(), tc=True)
        assert Message.from_wire(wire).flags & Flag.TC


def deploy(overload, engine=None):
    loop = EventLoop()
    network = Network(loop)
    server_host = network.add_host("server", "10.5.0.2")
    client_host = network.add_host("client", "10.5.0.1")
    if engine is None:
        zone = read_zone(ZONE, origin=Name.from_text("example.com."))
        engine = AuthoritativeServer.single_view([zone])
    server = HostedDnsServer(server_host, engine,
                             config=TransportConfig(udp=True, tcp=True),
                             overload=overload)
    return loop, server, client_host, engine


class TestHostedIntegration:
    def test_rrl_suppresses_a_repeat_flood(self):
        loop, server, client, engine = deploy(OverloadConfig(
            rrl=RrlConfig(responses_per_second=1.0, window=1.0, slip=2,
                          early_drop=False)))
        answers = []
        sock = client.bind_udp("10.5.0.1", 0,
                               lambda s, d, a, p: answers.append(
                                   Message.from_wire(d)))
        wire = make_query().to_wire()
        for i in range(10):
            loop.call_at(0.01 * i, sock.sendto, wire, "10.5.0.2", DNS_PORT)
        loop.run(max_time=5)
        full = [m for m in answers if not m.flags & Flag.TC]
        stubs = [m for m in answers if m.flags & Flag.TC]
        assert len(full) == 1          # burst of 1, all sent at ~t=0
        assert len(stubs) > 0          # every 2nd suppressed slips TC=1
        assert len(answers) < 10
        snapshot = server.perf.snapshot()
        assert snapshot["rrl.dropped"] > 0
        assert snapshot["rrl.slipped"] == len(stubs)

    def test_early_drop_saves_the_queue(self):
        loop, server, client, engine = deploy(OverloadConfig(
            rrl=RrlConfig(responses_per_second=1.0, window=1.0, slip=0)))
        sock = client.bind_udp("10.5.0.1", 0)
        wire = make_query().to_wire()
        for i in range(20):
            loop.call_at(0.01 * i, sock.sendto, wire, "10.5.0.2", DNS_PORT)
        loop.run(max_time=5)
        snapshot = server.perf.snapshot()
        assert snapshot["rrl.early_drops"] > 0
        # Early-dropped queries never reached the engine.
        assert engine.stats.queries < 20

    def test_early_drop_refunds_cpu(self):
        loop, server, client, engine = deploy(OverloadConfig(
            rrl=RrlConfig(responses_per_second=1.0, window=1.0, slip=0)))
        sock = client.bind_udp("10.5.0.1", 0)
        wire = make_query().to_wire()
        for i in range(20):
            loop.call_at(0.01 * i, sock.sendto, wire, "10.5.0.2", DNS_PORT)
        loop.run(max_time=5)
        busy = server.resources.cpu.busy_seconds
        cost = server.resources.cpu.cost
        dropped = server.perf.snapshot()["rrl.early_drops"]
        # Shed datagrams are charged the cheap receive-and-parse cost
        # instead of the full resolution path.
        assert busy["udp_shed"] == pytest.approx(dropped * cost.udp_shed)
        assert busy["udp_query"] == pytest.approx(
            (20 - dropped) * cost.udp_query)

    def test_servfail_shed_tells_the_client(self):
        loop, server, client, engine = deploy(OverloadConfig(
            queue_limit=1, queue_policy="servfail-shed",
            service_rate=2.0))
        answers = []
        sock = client.bind_udp("10.5.0.1", 0,
                               lambda s, d, a, p: answers.append(
                                   Message.from_wire(d)))
        for i in range(5):
            wire = make_query(msg_id=i + 1).to_wire()
            loop.call_at(0.001 * i, sock.sendto, wire, "10.5.0.2",
                         DNS_PORT)
        loop.run(max_time=5)
        rcodes = sorted(m.rcode for m in answers)
        # All five arrive before the first drain tick (1/rate = 0.5 s):
        # one sits in the queue, the other four are shed immediately.
        assert rcodes.count(Rcode.SERVFAIL) == 4
        assert rcodes.count(Rcode.NOERROR) == 1
        assert engine.stats.servfails_shed == 4
        assert server.perf.snapshot()["overload.shed_servfail"] == 4

    def test_rrl_leaves_tcp_alone(self):
        from repro.server import StreamFramer, frame_message
        from repro.netsim import TcpOptions, TcpStack
        loop, server, client, engine = deploy(OverloadConfig(
            rrl=RrlConfig(responses_per_second=1.0, window=1.0)))
        stack = TcpStack(client)
        framer = StreamFramer()
        answers = []
        framer.on_message = lambda w: answers.append(Message.from_wire(w))
        conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                             TcpOptions(nagle=False))
        conn.on_data = lambda cn, d: framer.feed(d)
        for i in range(6):
            conn.send(frame_message(make_query(msg_id=i + 1).to_wire()))
        loop.run(max_time=5)
        # TCP clients proved their address; no TCP response is limited.
        assert len(answers) == 6
        assert all(m.rcode == Rcode.NOERROR for m in answers)


class TestCounterConservation:
    """arrived == served + early-dropped + queue-dropped + shed + queued."""

    def control(self, config):
        loop = EventLoop()
        perf = MetricsRegistry()
        return loop, perf, OverloadControl(config, loop, perf)

    def admit_n(self, control, n, execute=None):
        for i in range(n):
            control.admit(make_query(msg_id=i), "10.0.0.1", "udp",
                          execute or (lambda: None), lambda: None)

    def test_rrl_only_inline_path_is_counted(self):
        # The queue-less branch used to execute without touching any
        # counter, leaving every query unaccounted for.
        loop, perf, control = self.control(
            OverloadConfig(rrl=RrlConfig(early_drop=False)))
        self.admit_n(control, 5)
        assert perf.count("overload.served") == 5
        assert control.check_conservation() == 0

    def test_queue_policies_conserve(self):
        for policy in ("drop-oldest", "drop-newest", "servfail-shed"):
            loop, perf, control = self.control(
                OverloadConfig(queue_limit=2, queue_policy=policy,
                               service_rate=10.0))
            self.admit_n(control, 8)
            # Mid-drain: queued items count toward the identity.
            assert control.check_conservation() == 0
            loop.run(max_time=2.0)
            assert control.check_conservation() == 0
            assert perf.gauge("overload.conservation_delta") == 0

    def test_early_drop_conserves(self):
        loop, perf, control = self.control(
            OverloadConfig(queue_limit=4, service_rate=100.0,
                           rrl=RrlConfig(responses_per_second=1.0,
                                         window=1.0)))
        # Put the key into debt via the response path, then admit more.
        for _ in range(4):
            control.filter_response(make_query(), "10.0.0.1", "udp",
                                    minimal_wire(make_query()))
        self.admit_n(control, 6)
        loop.run(max_time=2.0)
        assert perf.count("rrl.early_drops") > 0
        assert control.check_conservation() == 0

    def test_drift_raises(self):
        loop, perf, control = self.control(OverloadConfig(queue_limit=1))
        perf.incr("overload.arrived")  # a query the pipeline never saw
        with pytest.raises(AssertionError, match="conservation"):
            control.check_conservation()
        assert perf.gauge("overload.conservation_delta") == 1
