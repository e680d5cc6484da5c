"""Tests for the fault-injection subsystem (netsim.faults)."""

import pytest

from repro.netsim import (EventLoop, FaultInjector, FaultPlan, FaultSpec,
                          Network, RetryPolicy, TcpOptions, TcpStack)

pytestmark = pytest.mark.faults


def make_net():
    loop = EventLoop()
    network = Network(loop)
    network.add_host("c", "10.77.0.1")
    network.add_host("s", "10.77.0.2")
    network.latency.set_rtt("c", "s", 0.02)
    return loop, network


def udp_flood(loop, network, count=100, interval=0.01, start=0.0):
    """Schedule ``count`` UDP sends c→s; returns the received list."""
    received = []
    network.host("s").bind_udp("10.77.0.2", 99,
                               lambda s, d, a, p: received.append(d))
    sock = network.host("c").bind_udp("10.77.0.1", 0)
    for i in range(count):
        loop.call_at(start + i * interval, sock.sendto,
                     bytes([i % 251]), "10.77.0.2", 99)
    return received


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(udp_timeout=1.0, backoff=2.0, max_timeout=5.0)
        assert policy.timeout_for(0) == 1.0
        assert policy.timeout_for(1) == 2.0
        assert policy.timeout_for(2) == 4.0
        assert policy.timeout_for(3) == 5.0   # capped
        assert policy.timeout_for(10) == 5.0


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("meteor", 0.0, 1.0)

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            FaultSpec("loss", 0.0, 1.0, rate=1.5)

    def test_crash_needs_host(self):
        with pytest.raises(ValueError):
            FaultSpec("crash", 0.0, 1.0)

    def test_delay_needs_extra_delay(self):
        with pytest.raises(ValueError):
            FaultSpec("delay", 0.0, 1.0)


class TestLossBurst:
    def test_drops_only_inside_window(self):
        loop, network = make_net()
        plan = FaultPlan().loss_burst(start=0.2, duration=0.3, rate=1.0)
        injector = FaultInjector(network, plan)
        received = udp_flood(loop, network, count=100, interval=0.01)
        loop.run()
        # Sends in [0.2, 0.5) all die; the rest arrive.
        assert injector.dropped_by_loss == 30
        assert len(received) == 70
        assert injector.faults_activated == 1
        assert injector.faults_cleared == 1

    def test_partial_rate_deterministic_by_seed(self):
        counts = []
        for _ in range(2):
            loop, network = make_net()
            plan = FaultPlan().loss_burst(0.0, 10.0, rate=0.5)
            FaultInjector(network, plan, seed=5)
            received = udp_flood(loop, network, count=200)
            loop.run()
            counts.append(len(received))
        assert counts[0] == counts[1]
        assert 50 < counts[0] < 150

    def test_scoped_to_pair(self):
        loop, network = make_net()
        network.add_host("other", "10.77.0.3")
        plan = FaultPlan().loss_burst(0.0, 10.0, 1.0, src="c", dst="s")
        FaultInjector(network, plan)
        received = udp_flood(loop, network, count=10)
        # Same client, different destination: unaffected.
        other_got = []
        network.host("other").bind_udp("10.77.0.3", 99,
                                       lambda s, d, a, p:
                                       other_got.append(d))
        sock = network.host("c").bind_udp("10.77.0.1", 0)
        for i in range(10):
            loop.call_at(i * 0.01, sock.sendto, b"y", "10.77.0.3", 99)
        loop.run()
        assert received == []
        assert len(other_got) == 10


class TestPartition:
    def test_severs_both_directions(self):
        loop, network = make_net()
        plan = FaultPlan().partition(0.0, 10.0, src="s", dst="c")
        injector = FaultInjector(network, plan)
        received = udp_flood(loop, network, count=5)  # c→s direction
        loop.run()
        assert received == []
        assert injector.dropped_by_partition == 5


class TestDuplication:
    def test_both_copies_arrive(self):
        loop, network = make_net()
        plan = FaultPlan().duplication(0.0, 10.0, rate=1.0)
        injector = FaultInjector(network, plan)
        received = udp_flood(loop, network, count=20)
        loop.run()
        assert len(received) == 40
        assert injector.packets_duplicated == 20


class TestCorruption:
    def test_corrupted_packets_fail_checksum(self):
        loop, network = make_net()
        plan = FaultPlan([FaultSpec("corrupt", 0.0, 10.0, rate=1.0)])
        injector = FaultInjector(network, plan)
        received = udp_flood(loop, network, count=15)
        loop.run()
        # Damaged payloads are dropped by the receiver's checksum path.
        assert received == []
        assert injector.packets_corrupted == 15
        assert network.host("s").counters.checksum_drops == 15


class TestDelaySpike:
    def test_adds_latency_inside_window(self):
        loop, network = make_net()
        plan = FaultPlan().delay_spike(0.0, 10.0, extra_delay=0.5)
        FaultInjector(network, plan)
        arrivals = []
        network.host("s").bind_udp("10.77.0.2", 99,
                                   lambda s, d, a, p:
                                   arrivals.append(loop.now))
        sock = network.host("c").bind_udp("10.77.0.1", 0)
        loop.call_at(0.01, sock.sendto, b"z", "10.77.0.2", 99)
        loop.run()
        assert len(arrivals) == 1
        assert arrivals[0] >= 0.51   # spike dominates the 10 ms link


class TestCrashRestart:
    def test_host_down_drops_both_directions(self):
        loop, network = make_net()
        plan = FaultPlan().server_outage(0.1, 0.3, host="s")
        injector = FaultInjector(network, plan)
        received = udp_flood(loop, network, count=50, interval=0.01)
        loop.run()
        assert injector.crashes == 1
        assert injector.restarts == 1
        assert not network.host("s").down
        # Sends in [0.1, 0.4) die; 0.0-0.09 and 0.4-0.49 arrive.
        assert injector.dropped_host_down == 30
        assert len(received) == 20

    def test_crash_kills_tcp_connections_silently(self):
        loop, network = make_net()
        server_stack = TcpStack(network.host("s"))
        client_stack = TcpStack(network.host("c"))
        server_stack.listen("10.77.0.2", 53, lambda conn: None,
                            TcpOptions(nagle=False))
        conn = client_stack.connect("10.77.0.1", "10.77.0.2", 53,
                                    TcpOptions(nagle=False))
        resets = []
        conn.on_reset = lambda cn: resets.append(cn)
        loop.run_until(1.0)
        assert conn.state.name == "ESTABLISHED"

        plan = FaultPlan().server_outage(1.5, 1.0, host="s")
        FaultInjector(network, plan)
        loop.run_until(3.0)
        # The server side died with no FIN/RST emitted...
        assert not server_stack.connections()
        # ...and the client only finds out when it next sends: its
        # segment hits the restarted server's fresh stack → RST.
        conn.send(b"\x00\x01x")
        loop.run_until(6.0)
        assert resets

    def test_empty_plan_changes_nothing(self):
        loop, network = make_net()
        injector = FaultInjector(network, FaultPlan())
        received = udp_flood(loop, network, count=25)
        loop.run()
        assert len(received) == 25
        assert all(value == 0 for value in injector.counters().values())


class TestBatchPathDifferential:
    """``send_packet_batch`` honors the FaultPlan per packet.

    Same seed, same packets, same simulated send times: the batched
    datagram path must produce byte- and time-identical deliveries,
    identical injector verdicts, and identical host counters to the
    one-by-one path — for every fault kind that can touch a packet in
    flight.
    """

    GROUPS = 6
    GROUP_SIZE = 20

    @staticmethod
    def _plans():
        return {
            "loss": lambda: FaultPlan().loss_burst(0.05, 0.2, 0.5),
            "corrupt": lambda: FaultPlan([FaultSpec("corrupt", 0.05, 0.2,
                                                    rate=0.5)]),
            "duplicate": lambda: FaultPlan().duplication(0.05, 0.2, 0.5),
            "delay": lambda: FaultPlan().delay_spike(0.05, 0.2, 0.05,
                                                     rate=0.5),
            "reorder": lambda: FaultPlan([FaultSpec(
                "reorder", 0.05, 0.2, rate=0.5, extra_delay=0.03)]),
            "mixed": lambda: (FaultPlan()
                              .loss_burst(0.05, 0.1, 0.3)
                              .duplication(0.12, 0.1, 0.4)
                              .delay_spike(0.2, 0.1, 0.02, rate=0.5)),
        }

    def _run(self, plan, batched, seed=5):
        from repro.netsim.packet import (IpPacket, UdpSegment,
                                         packet_checksum)
        loop, network = make_net()
        injector = FaultInjector(network, plan, seed=seed)
        received = []
        network.host("s").bind_udp(
            "10.77.0.2", 99,
            lambda s, d, a, p: received.append((bytes(d), loop.now)))
        client = network.host("c")
        sock = client.bind_udp("10.77.0.1", 0)

        def send(group):
            packets = []
            for item in range(self.GROUP_SIZE):
                payload = bytes([group, item]) * 8
                segment = UdpSegment(sock.port, 99, payload)
                packets.append(IpPacket(
                    "10.77.0.1", "10.77.0.2", segment,
                    packet_checksum("10.77.0.1", "10.77.0.2", segment)))
            if batched:
                client.send_packet_batch(packets)
            else:
                for packet in packets:
                    client.send_packet(packet)

        for group in range(self.GROUPS):
            loop.call_at(0.02 + group * 0.05, send, group)
        loop.run()
        server = network.host("s")
        return {
            "received": received,
            "injector": injector.counters(),
            "server_in": (server.counters.packets_in,
                          server.counters.bytes_in),
            "client_out": (client.counters.packets_out,
                           client.counters.bytes_out),
        }

    @pytest.mark.parametrize("kind", sorted(_plans.__func__()))
    def test_batch_verdicts_match_sequential(self, kind):
        builder = self._plans()[kind]
        batched = self._run(builder(), batched=True)
        sequential = self._run(builder(), batched=False)
        assert batched == sequential
        # The plan actually fired — a vacuous pass would prove nothing.
        touched = sum(value for key, value in batched["injector"].items()
                      if key.startswith(("dropped", "packets_")))
        assert touched > 0, batched["injector"]
