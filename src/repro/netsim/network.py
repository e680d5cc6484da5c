"""Hosts, links, latency, netfilter-style diversion, and TUN devices.

This models just enough of the testbed's network layer for LDplayer:

* a :class:`Network` that delivers :class:`IpPacket` objects between
  hosts with configurable per-pair RTT (Figure 5 / Figure 12 topologies),
* per-host :class:`Netfilter` rules that divert matching packets to a
  :class:`TunDevice` (the paper's iptables mangle/mark + TUN routing),
* UDP socket demultiplexing (TCP lives in :mod:`repro.netsim.tcp`),
* per-host traffic meters used by the bandwidth experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import EventLoop
from .packet import (Address, IpPacket, TcpSegment, UdpSegment,
                     make_udp_packet, packet_checksum, packet_wire_size,
                     validate_address)

LOOPBACK_DELAY = 0.00002  # 20 microseconds for same-host delivery


class NetworkError(RuntimeError):
    pass


class LatencyModel:
    """Per-pair one-way delays, symmetric, with optional deterministic jitter.

    RTTs are configured per host-name pair; the default matches the paper's
    testbed LAN (<1 ms RTT, Figure 5).
    """

    def __init__(self, default_rtt: float = 0.0008,
                 jitter_fraction: float = 0.0, seed: int = 0):
        self.default_rtt = default_rtt
        self.jitter_fraction = jitter_fraction
        self._pairs: Dict[Tuple[str, str], float] = {}
        # Jitter-free one-way delays by (from, to): one lookup a hop.
        self._one_way: Dict[Tuple[str, str], float] = {}
        self._rng = random.Random(seed)

    def set_rtt(self, host_a: str, host_b: str, rtt: float) -> None:
        self._pairs[self._key(host_a, host_b)] = rtt
        self._one_way.clear()

    def rtt(self, host_a: str, host_b: str) -> float:
        return self._pairs.get(self._key(host_a, host_b), self.default_rtt)

    def one_way(self, host_a: str, host_b: str) -> float:
        if not self.jitter_fraction:
            delay = self._one_way.get((host_a, host_b))
            if delay is None:
                delay = max(self.rtt(host_a, host_b) / 2.0, 0.0)
                self._one_way[(host_a, host_b)] = delay
            return delay
        delay = self.rtt(host_a, host_b) / 2.0
        delay *= 1.0 + self._rng.uniform(-self.jitter_fraction,
                                         self.jitter_fraction)
        return max(delay, 0.0)

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)


@dataclass
class TrafficCounters:
    packets_in: int = 0
    packets_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    checksum_drops: int = 0
    no_route_drops: int = 0
    unreachable_drops: int = 0


class TrafficMeter:
    """Per-second byte/packet series for one direction of a host.

    Feeds the bandwidth plots (Fig 9, Fig 10): ``series()`` returns
    (second, bytes, packets) rows.
    """

    def __init__(self, loop: EventLoop):
        self._loop = loop
        self._buckets: Dict[int, List[int]] = {}

    def record_many(self, size: int, count: int) -> None:
        """One bucket update for ``count`` packets totalling ``size``."""
        second = int(self._loop.now)
        bucket = self._buckets.get(second)
        if bucket is None:
            bucket = self._buckets[second] = [0, 0]
        bucket[0] += size
        bucket[1] += count

    def series(self) -> List[Tuple[int, int, int]]:
        return [(second, data[0], data[1])
                for second, data in sorted(self._buckets.items())]


@dataclass
class FilterRule:
    """One netfilter rule: match on protocol/port, divert to a TUN device.

    Mirrors the paper's "mark packets with the mangle table, route marked
    packets to the TUN interface" (§2.4), collapsed into one step.
    """

    chain: str  # "output" or "input"
    protocol: Optional[str] = None    # "udp"/"tcp" or None for any
    dport: Optional[int] = None
    sport: Optional[int] = None
    divert_to: Optional["TunDevice"] = None
    mark: int = 1

    def matches(self, packet: IpPacket) -> bool:
        if self.protocol is not None and packet.protocol != self.protocol:
            return False
        segment = packet.segment
        if self.dport is not None and segment.dport != self.dport:
            return False
        if self.sport is not None and segment.sport != self.sport:
            return False
        return True


class TunDevice:
    """A simulated TUN interface: raw IP packets in both directions.

    The proxy attaches a reader callback; packets the proxy writes go to
    the network directly, bypassing the output chain (so rewritten
    packets are not re-diverted — the analogue of the paper's mark-based
    routing exclusions).
    """

    def __init__(self, host: "Host", name: str = "tun0"):
        self.host = host
        self.name = name
        self._reader: Optional[Callable[[IpPacket], None]] = None
        self.packets_diverted = 0
        self.packets_written = 0

    def set_reader(self, reader: Callable[[IpPacket], None]) -> None:
        self._reader = reader

    def push(self, packet: IpPacket) -> None:
        """Called by netfilter when a rule diverts a packet here."""
        self.packets_diverted += 1
        if self._reader is None:
            return  # no proxy attached: packet is dropped, as on a real TUN
        self._reader(packet)

    def write(self, packet: IpPacket) -> None:
        """Inject a (rewritten) packet toward its destination address."""
        self.packets_written += 1
        self.host.send_packet(packet, bypass_output_chain=True)


class Netfilter:
    """Ordered rule list evaluated on a host's output and input paths."""

    def __init__(self) -> None:
        # Hosts test this list before calling :meth:`process`.
        self.rules: List[FilterRule] = []

    def add_rule(self, rule: FilterRule) -> None:
        if rule.chain not in ("output", "input"):
            raise ValueError(f"unknown chain {rule.chain!r}")
        self.rules.append(rule)

    def clear(self) -> None:
        self.rules.clear()

    def process(self, chain: str, packet: IpPacket) -> Optional[IpPacket]:
        """Return the packet to continue with, or None if diverted."""
        for rule in self.rules:
            if rule.chain == chain and rule.matches(packet):
                if rule.divert_to is not None:
                    rule.divert_to.push(packet)
                    return None
        return packet


class UdpSocket:
    """A bound UDP endpoint delivering datagrams to a callback."""

    def __init__(self, host: "Host", address: Address, port: int,
                 on_datagram: Optional[Callable[["UdpSocket", bytes, Address,
                                                 int], None]] = None):
        self.host = host
        self.address = address
        self.port = port
        self.on_datagram = on_datagram
        # Optional batch receive path: called with a list of
        # (data, src, sport) tuples instead of one callback per
        # datagram.  Falls back to per-datagram ``on_datagram`` when
        # unset, so only batch-aware endpoints opt in.
        self.on_datagram_batch = None
        self.closed = False

    def sendto(self, data: bytes, dst: Address, dport: int) -> None:
        if self.closed:
            raise NetworkError("socket is closed")
        self.host.send_packet(
            make_udp_packet(self.address, self.port, dst, dport, data))

    def sendto_batch(self, datagrams: List[Tuple[bytes, Address, int]]
                     ) -> None:
        """Send ``(data, dst, dport)`` datagrams through the batch path."""
        if self.closed:
            raise NetworkError("socket is closed")
        address = self.address
        port = self.port
        self.host.send_packet_batch([
            make_udp_packet(address, port, dst, dport, data)
            for data, dst, dport in datagrams])

    def deliver(self, data: bytes, src: Address, sport: int) -> None:
        if self.on_datagram is not None and not self.closed:
            self.on_datagram(self, data, src, sport)

    def deliver_batch(self, datagrams: List[Tuple[bytes, Address, int]]
                      ) -> None:
        """Deliver a batch, preserving per-datagram ``closed`` semantics."""
        if self.closed:
            return
        handler = self.on_datagram_batch
        if handler is not None:
            handler(self, datagrams)
            return
        on_datagram = self.on_datagram
        if on_datagram is None:
            return
        for data, src, sport in datagrams:
            if self.closed:
                return
            on_datagram(self, data, src, sport)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.host._unbind_udp(self)


class Host:
    """A simulated machine: addresses, sockets, netfilter, TUN devices."""

    def __init__(self, network: "Network", name: str,
                 addresses: Tuple[Address, ...] = ()):
        self.network = network
        self.name = name
        self.addresses: List[Address] = []
        self.netfilter = Netfilter()
        self.tun_devices: Dict[str, TunDevice] = {}
        self.counters = TrafficCounters()
        self.meter_in = TrafficMeter(network.loop)
        self.meter_out = TrafficMeter(network.loop)
        self._udp_sockets: Dict[Tuple[Address, int], UdpSocket] = {}
        self._udp_ports: Dict[int, int] = {}  # port -> bound-socket count
        self._next_ephemeral = 32768
        self.tcp_stack = None  # attached lazily by repro.netsim.tcp
        # Crash state driven by repro.netsim.faults: a down host neither
        # sends nor receives until its restart event clears the flag.
        self.down = False
        # Optional egress link rate in bits/second (the testbed's links
        # are 1 Gb/s, Figure 5).  None disables serialization delay.
        self.egress_bandwidth_bps: Optional[float] = None
        self._egress_busy_until = 0.0
        # Hook for passive capture (the paper tcpdumps at interfaces).
        self.capture_hooks: List[Callable[[str, IpPacket], None]] = []
        for address in addresses:
            self.add_address(address)

    # -- addressing -----------------------------------------------------

    def add_address(self, address: Address) -> None:
        validate_address(address)
        if address not in self.addresses:
            self.addresses.append(address)
            self.network._register(address, self)

    @property
    def primary_address(self) -> Address:
        if not self.addresses:
            raise NetworkError(f"host {self.name} has no addresses")
        return self.addresses[0]

    def owns(self, address: Address) -> bool:
        return address in self.addresses

    EPHEMERAL_FIRST = 32768
    EPHEMERAL_LAST = 60999

    def allocate_port(self) -> int:
        """The next free ephemeral port.

        On wrap-around, ports still bound (UDP sockets or live TCP
        flows) are skipped — handing out a bound port would collide two
        flows, which long connection-footprint runs actually hit.
        """
        span = self.EPHEMERAL_LAST - self.EPHEMERAL_FIRST + 1
        for _ in range(span):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > self.EPHEMERAL_LAST:
                self._next_ephemeral = self.EPHEMERAL_FIRST
            if not self._port_in_use(port):
                return port
        raise NetworkError(f"{self.name}: ephemeral port range exhausted")

    def _port_in_use(self, port: int) -> bool:
        if port in self._udp_ports:
            return True
        return (self.tcp_stack is not None
                and self.tcp_stack.port_in_use(port))

    # -- TUN / netfilter -------------------------------------------------

    def create_tun(self, name: str = "tun0") -> TunDevice:
        tun = TunDevice(self, name)
        self.tun_devices[name] = tun
        return tun

    # -- UDP ----------------------------------------------------------------

    def bind_udp(self, address: Address, port: int,
                 on_datagram: Optional[Callable] = None) -> UdpSocket:
        if port == 0:
            port = self.allocate_port()
        key = (address, port)
        if key in self._udp_sockets:
            raise NetworkError(f"{self.name}: UDP {address}:{port} in use")
        if address != "0.0.0.0" and not self.owns(address):
            raise NetworkError(f"{self.name} does not own {address}")
        sock = UdpSocket(self, address, port, on_datagram)
        self._udp_sockets[key] = sock
        self._udp_ports[port] = self._udp_ports.get(port, 0) + 1
        return sock

    def _unbind_udp(self, sock: UdpSocket) -> None:
        if self._udp_sockets.pop((sock.address, sock.port), None) is None:
            return
        count = self._udp_ports.get(sock.port, 0) - 1
        if count <= 0:
            self._udp_ports.pop(sock.port, None)
        else:
            self._udp_ports[sock.port] = count

    # -- packet paths -------------------------------------------------------

    def send_packet(self, packet: IpPacket,
                    bypass_output_chain: bool = False) -> None:
        if self.capture_hooks:
            for hook in self.capture_hooks:
                hook("out", packet)
        if not bypass_output_chain and self.netfilter.rules:
            packet = self.netfilter.process("output", packet)
            if packet is None:
                return
        size = packet_wire_size(packet.segment)
        counters = self.counters
        counters.packets_out += 1
        counters.bytes_out += size
        self.meter_out.record_many(size, 1)
        self.network.transmit(packet, self)

    def send_packet_batch(self, packets: List[IpPacket]) -> None:
        """Send a batch: one counter/meter update, one fabric handoff.

        Semantically identical to :meth:`send_packet` per packet (same
        capture hooks, same output-chain verdicts, same transmit order);
        the per-packet Python overhead — counter increments, meter
        bucket lookups, one ``Network.transmit`` call each — is paid
        once per batch instead.
        """
        if not packets:
            return
        hooks = self.capture_hooks
        if hooks:
            for packet in packets:
                for hook in hooks:
                    hook("out", packet)
        netfilter = self.netfilter
        if netfilter.rules:
            kept = []
            for packet in packets:
                processed = netfilter.process("output", packet)
                if processed is not None:
                    kept.append(processed)
            packets = kept
            if not packets:
                return
        total = 0
        for packet in packets:
            total += packet_wire_size(packet.segment)
        counters = self.counters
        counters.packets_out += len(packets)
        counters.bytes_out += total
        self.meter_out.record_many(total, len(packets))
        self.network.transmit_batch(packets, self)

    def receive_packet(self, packet: IpPacket) -> None:
        if self.capture_hooks:
            for hook in self.capture_hooks:
                hook("in", packet)
        src, dst, segment, checksum, _mark = packet
        if checksum != packet_checksum(src, dst, segment):
            self.counters.checksum_drops += 1
            return
        if self.netfilter.rules \
                and self.netfilter.process("input", packet) is None:
            return
        size = packet_wire_size(segment)
        counters = self.counters
        counters.packets_in += 1
        counters.bytes_in += size
        self.meter_in.record_many(size, 1)
        if type(segment) is UdpSegment:
            sock = (self._udp_sockets.get((dst, segment.dport))
                    or self._udp_sockets.get(("0.0.0.0", segment.dport)))
            if sock is None:
                counters.unreachable_drops += 1
                return
            sock.deliver(segment.data, src, segment.sport)
        elif type(segment) is TcpSegment:
            if self.tcp_stack is None:
                counters.unreachable_drops += 1
                return
            self.tcp_stack.receive(packet)

    def receive_packet_batch(self, packets: List[IpPacket]) -> None:
        """Receive a batch delivered at one instant.

        Equivalent to :meth:`receive_packet` per packet in order, except
        that capture hooks see every packet of the batch, in arrival
        order, before any of it is delivered: within one instant a
        hooked host's ``"in"`` calls may precede the ``"out"`` calls of
        the answers they provoke.  Hooks only observe, and none reads
        the two directions' relative order.  A host with input-chain
        rules takes the per-packet path, because a diversion to a TUN
        device must interleave with deliveries.  Consecutive datagrams
        for the same UDP socket are coalesced into one
        :meth:`UdpSocket.deliver_batch` call; the run-based coalescing
        (rather than a per-socket dict) preserves the exact cross-socket
        delivery order of the sequential path.
        """
        if self.netfilter.rules:
            for packet in packets:
                self.receive_packet(packet)
            return
        hooks = self.capture_hooks
        if hooks:
            for packet in packets:
                for hook in hooks:
                    hook("in", packet)
        counters = self.counters
        udp_sockets = self._udp_sockets
        packets_in = 0
        bytes_in = 0
        run_sock = None
        run_datagrams: List[Tuple[bytes, Address, int]] = []
        for packet in packets:
            src, dst, segment, checksum, _mark = packet
            if checksum != packet_checksum(src, dst, segment):
                counters.checksum_drops += 1
                continue
            packets_in += 1
            bytes_in += packet_wire_size(segment)
            if type(segment) is UdpSegment:
                sport, dport, data = segment
                sock = (udp_sockets.get((dst, dport))
                        or udp_sockets.get(("0.0.0.0", dport)))
                if sock is None:
                    counters.unreachable_drops += 1
                    continue
                if sock is run_sock:
                    run_datagrams.append((data, src, sport))
                else:
                    if run_sock is not None:
                        run_sock.deliver_batch(run_datagrams)
                    run_sock = sock
                    run_datagrams = [(data, src, sport)]
            else:
                if run_sock is not None:
                    run_sock.deliver_batch(run_datagrams)
                    run_sock = None
                    run_datagrams = []
                if self.tcp_stack is None:
                    counters.unreachable_drops += 1
                    continue
                self.tcp_stack.receive(packet)
        if run_sock is not None:
            run_sock.deliver_batch(run_datagrams)
        if packets_in:
            # As on the sequential path, a batch that delivered nothing
            # books no meter row.
            counters.packets_in += packets_in
            counters.bytes_in += bytes_in
            self.meter_in.record_many(bytes_in, packets_in)

    def __repr__(self) -> str:
        return f"Host({self.name}, {self.addresses})"


class Network:
    """The testbed fabric: hosts joined by latency-configurable links.

    ``loss_rate`` drops that fraction of packets (deterministically
    seeded).  The testbed's LAN is lossless, so it defaults to 0; loss
    experiments and the TCP retransmission tests turn it up.
    """

    def __init__(self, loop: EventLoop,
                 latency: Optional[LatencyModel] = None,
                 loss_rate: float = 0.0, loss_seed: int = 0):
        self.loop = loop
        self.latency = latency if latency is not None else LatencyModel()
        self._hosts_by_address: Dict[Address, Host] = {}
        self._hosts: Dict[str, Host] = {}
        self.dropped_no_route = 0
        self.loss_rate = loss_rate
        self.dropped_by_loss = 0
        self._loss_rng = random.Random(loss_seed)
        # Scheduled fault windows (loss bursts, partitions, crashes, …);
        # installed by repro.netsim.faults.FaultInjector.
        self.fault_injector = None
        # Telemetry hub, installed by Telemetry.attach_network only when
        # lifecycle tracing is on; the off path pays one None check.
        self.telemetry = None

    def add_host(self, name: str, *addresses: Address) -> Host:
        if name in self._hosts:
            raise NetworkError(f"duplicate host name {name}")
        host = Host(self, name, tuple(addresses))
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def _register(self, address: Address, host: Host) -> None:
        existing = self._hosts_by_address.get(address)
        if existing is not None and existing is not host:
            raise NetworkError(
                f"{address} already owned by {existing.name}")
        self._hosts_by_address[address] = host

    def transmit(self, packet: IpPacket, sender: Host) -> None:
        receiver = self._hosts_by_address.get(packet.dst)
        if receiver is None:
            # Matches the paper's observation: packets to addresses with
            # no testbed route (e.g. real Internet IPs that leaked past
            # the proxies) are simply dropped.
            self.dropped_no_route += 1
            sender.counters.no_route_drops += 1
            if self.telemetry is not None:
                self.telemetry.on_net_drop(packet, "no_route")
            return
        if self.loss_rate > 0 and receiver is not sender \
                and self._loss_rng.random() < self.loss_rate:
            self.dropped_by_loss += 1
            if self.telemetry is not None:
                self.telemetry.on_net_drop(packet, "loss")
            return
        deliveries = None
        if self.fault_injector is not None:
            deliveries = self.fault_injector.process(packet, sender,
                                                     receiver)
            if not deliveries:
                return
        if self.telemetry is not None:
            self.telemetry.on_transmit(packet)
        if receiver is sender:
            delay = LOOPBACK_DELAY
        else:
            delay = self.latency.one_way(sender.name, receiver.name)
        loop = self.loop
        if sender.egress_bandwidth_bps:
            # Serialize onto the link: queue behind earlier packets.
            start = max(loop.now, sender._egress_busy_until)
            finish = start + packet.wire_size() * 8 \
                / sender.egress_bandwidth_bps
            sender._egress_busy_until = finish
            delay += finish - loop.now
        if deliveries is None:
            # The instant ``call_later(delay)`` would give: a delay is
            # never negative.
            loop.call_at(loop.now + delay, receiver.receive_packet, packet)
            return
        for extra_delay, delivered in deliveries:
            loop.call_later(delay + extra_delay, receiver.receive_packet,
                            delivered)

    def transmit_batch(self, packets: List[IpPacket], sender: Host) -> None:
        """Move a packet batch through loss, faults, and delivery at once.

        Per-packet semantics are exact: the loss RNG, the fault
        injector, and the jitter RNG are each consulted once per packet
        *in transmit order*, so a batch produces verdict-for-verdict the
        same outcomes as the same packets sent one-by-one (the
        differential in ``tests/test_netsim_faults.py`` holds this).
        Deliveries landing on the same receiver at the same instant are
        coalesced into one :meth:`Host.receive_packet_batch` event;
        delivery *times* are bit-identical to the sequential path, so
        batching never changes what the simulation computes — only how
        much Python runs per packet.
        """
        loop = self.loop
        now = loop.now
        hosts = self._hosts_by_address
        telemetry = self.telemetry
        injector = self.fault_injector
        latency = self.latency
        loss_rate = self.loss_rate
        loss_random = self._loss_rng.random if loss_rate > 0 else None
        sender_name = sender.name
        bandwidth = sender.egress_bandwidth_bps
        # Jitter-free delays by receiver; with jitter every packet draws.
        delays: Dict[Host, float] = {}
        # (receiver, delivery time) -> packets; dict insertion order
        # keeps the groups in first-arrival order.
        groups: Dict[Tuple[Host, float], List[IpPacket]] = {}
        for packet in packets:
            receiver = hosts.get(packet.dst)
            if receiver is None:
                self.dropped_no_route += 1
                sender.counters.no_route_drops += 1
                if telemetry is not None:
                    telemetry.on_net_drop(packet, "no_route")
                continue
            if loss_random is not None and receiver is not sender \
                    and loss_random() < loss_rate:
                self.dropped_by_loss += 1
                if telemetry is not None:
                    telemetry.on_net_drop(packet, "loss")
                continue
            deliveries = None
            if injector is not None:
                deliveries = injector.process(packet, sender, receiver)
                if not deliveries:
                    continue
            if telemetry is not None:
                telemetry.on_transmit(packet)
            delay = delays.get(receiver)
            if delay is None:
                delay = (LOOPBACK_DELAY if receiver is sender
                         else latency.one_way(sender_name, receiver.name))
                if not latency.jitter_fraction:
                    delays[receiver] = delay
            if bandwidth:
                start = max(now, sender._egress_busy_until)
                finish = start + packet.wire_size() * 8 / bandwidth
                sender._egress_busy_until = finish
                delay += finish - now
            # The sequential path's instants (``now + max(delay + extra,
            # 0)``, and a delay is never negative), so delivery times are
            # bit-identical, not merely close.
            if deliveries is None:
                groups.setdefault((receiver, now + delay), []).append(packet)
                continue
            for extra_delay, delivered in deliveries:
                when = now + max(delay + extra_delay, 0.0)
                groups.setdefault((receiver, when), []).append(delivered)
        if groups:
            loop.call_at_many([
                (when, receiver.receive_packet, (batch[0],))
                if len(batch) == 1
                else (when, receiver.receive_packet_batch, (batch,))
                for (receiver, when), batch in groups.items()])
