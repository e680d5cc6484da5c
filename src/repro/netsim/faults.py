"""Fault injection and recovery policy for the simulated testbed.

The paper's testbed is a lossless LAN, so the seed simulator only had a
uniform ``loss_rate`` knob.  Real replay campaigns live in the failure
paths: queries time out and are retried, connections reset and are
reopened, servers crash mid-run and come back.  This module makes those
conditions first-class:

* :class:`FaultPlan` — a declarative schedule of fault windows (loss
  bursts, delay spikes, packet corruption/duplication/reordering,
  network partitions, server crash/restart events), each optionally
  scoped to a sender/receiver host pair;
* :class:`FaultInjector` — installs a plan on a :class:`Network`: it
  schedules activation/clear events on the :class:`EventLoop` and
  intercepts every transmission while a fault window is active;
* :class:`RetryPolicy` — the client-side recovery budget (per-query
  timeout, exponential backoff with cap, max retries, optional TCP
  fallback) shared by the replay queriers and the AXFR client.

Everything is seeded and deterministic, so a faulty run replays
identically (§2.1 repeatability) — crucial when debugging the recovery
paths the faults exist to exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from .packet import IpPacket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .network import Host, Network

FAULT_KINDS = ("loss", "delay", "corrupt", "duplicate", "reorder",
               "partition", "crash")

# A duplicated packet trails the original by this much, as if it took a
# marginally longer path; enough to make both copies observable.
DUPLICATE_LAG = 0.0001


@dataclass(frozen=True)
class RetryPolicy:
    """A recovery budget: how hard a client tries before giving up.

    ``udp_timeout`` is the first per-try timeout; each further try backs
    off by ``backoff`` up to ``max_timeout``.  ``max_retries`` counts
    *re*-sends (so a query is sent at most ``max_retries + 1`` times).
    ``tcp_fallback_after`` switches a UDP query to TCP after that many
    consecutive timeouts, the classic stub-resolver fallback.
    """

    udp_timeout: float = 1.0
    backoff: float = 2.0
    max_timeout: float = 8.0
    max_retries: int = 3
    tcp_fallback_after: Optional[int] = None

    def timeout_for(self, tries: int) -> float:
        """Timeout (or retry delay) for the try after ``tries`` failures."""
        return min(self.udp_timeout * self.backoff ** tries,
                   self.max_timeout)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault window.

    ``src``/``dst`` scope the fault to transmissions from one named host
    to another (None matches any); ``partition`` matches both
    directions.  ``rate`` is the per-packet probability while the window
    is active.  ``crash`` ignores the packet fields and takes ``host``
    down for ``duration`` seconds instead.
    """

    kind: str
    start: float
    duration: float
    src: Optional[str] = None
    dst: Optional[str] = None
    rate: float = 1.0
    extra_delay: float = 0.0
    host: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.start < 0 or self.duration < 0:
            raise ValueError("fault start/duration must be >= 0")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside [0, 1]")
        if self.kind == "crash" and self.host is None:
            raise ValueError("crash faults need a host name")
        if self.kind in ("delay", "reorder") and self.extra_delay <= 0:
            raise ValueError(f"{self.kind} faults need extra_delay > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def matches(self, sender: "Host", receiver: "Host") -> bool:
        if self.kind == "partition":
            # A partition severs the pair both ways.
            forward = ((self.src is None or sender.name == self.src)
                       and (self.dst is None or receiver.name == self.dst))
            reverse = ((self.src is None or receiver.name == self.src)
                       and (self.dst is None or sender.name == self.dst))
            return forward or reverse
        return ((self.src is None or sender.name == self.src)
                and (self.dst is None or receiver.name == self.dst))


class FaultPlan:
    """A declarative schedule of fault windows."""

    def __init__(self, specs: Optional[List[FaultSpec]] = None):
        self.specs: List[FaultSpec] = list(specs) if specs else []

    # -- builders --------------------------------------------------------

    def add(self, spec: FaultSpec) -> "FaultPlan":
        self.specs.append(spec)
        return self

    def loss_burst(self, start: float, duration: float, rate: float,
                   src: Optional[str] = None,
                   dst: Optional[str] = None) -> "FaultPlan":
        return self.add(FaultSpec("loss", start, duration, src=src,
                                  dst=dst, rate=rate))

    def delay_spike(self, start: float, duration: float, extra_delay: float,
                    rate: float = 1.0, src: Optional[str] = None,
                    dst: Optional[str] = None) -> "FaultPlan":
        return self.add(FaultSpec("delay", start, duration, src=src,
                                  dst=dst, rate=rate,
                                  extra_delay=extra_delay))

    def duplication(self, start: float, duration: float, rate: float,
                    src: Optional[str] = None,
                    dst: Optional[str] = None) -> "FaultPlan":
        return self.add(FaultSpec("duplicate", start, duration, src=src,
                                  dst=dst, rate=rate))

    def partition(self, start: float, duration: float, src: str,
                  dst: str) -> "FaultPlan":
        return self.add(FaultSpec("partition", start, duration,
                                  src=src, dst=dst))

    def server_outage(self, start: float, duration: float,
                      host: str) -> "FaultPlan":
        """Crash ``host`` at ``start``; it restarts after ``duration``."""
        return self.add(FaultSpec("crash", start, duration, host=host))

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.specs)} faults)"


class FaultInjector:
    """Executes a :class:`FaultPlan` against a :class:`Network`.

    Installation schedules one activation and one clear event per fault
    window; between them every matching transmission passes through
    :meth:`process`, which returns the (possibly empty, possibly
    duplicated, possibly delayed) list of deliveries to make.  Crash
    windows take the named host down — its packets are dropped in both
    directions and its TCP connections die silently, as a killed process
    on a real machine — and bring it back at the window's end.
    """

    def __init__(self, network: "Network", plan: Optional[FaultPlan] = None,
                 seed: int = 0):
        self.network = network
        self.plan = plan if plan is not None else FaultPlan()
        self._rng = random.Random(seed)
        self._active: List[FaultSpec] = []
        # Counters surfaced by experiments/report.py.
        self.faults_activated = 0
        self.faults_cleared = 0
        self.crashes = 0
        self.restarts = 0
        self.dropped_by_loss = 0
        self.dropped_by_partition = 0
        self.dropped_host_down = 0
        self.packets_corrupted = 0
        self.packets_duplicated = 0
        self.packets_delayed = 0
        self.packets_reordered = 0
        network.fault_injector = self
        self._schedule()

    # -- scheduling -------------------------------------------------------

    def _schedule(self) -> None:
        loop = self.network.loop
        for spec in self.plan.specs:
            loop.call_at(spec.start, self._activate, spec)
            loop.call_at(spec.end, self._clear, spec)

    def _activate(self, spec: FaultSpec) -> None:
        self.faults_activated += 1
        if spec.kind == "crash":
            self._crash(spec.host)
            return
        self._active.append(spec)

    def _clear(self, spec: FaultSpec) -> None:
        self.faults_cleared += 1
        if spec.kind == "crash":
            self._restore(spec.host)
            return
        try:
            self._active.remove(spec)
        except ValueError:  # duplicate spec already cleared
            pass

    def _crash(self, host_name: str) -> None:
        host = self._named_host(host_name)
        host.down = True
        self.crashes += 1
        if host.tcp_stack is not None:
            host.tcp_stack.crash()

    def _restore(self, host_name: str) -> None:
        host = self._named_host(host_name)
        if host.down:
            host.down = False
            self.restarts += 1

    def _named_host(self, host_name: str) -> "Host":
        # Hosts may legitimately be added after the plan is installed
        # (replay clients are), so resolve lazily — but turn a typo'd
        # name into an actionable error instead of a bare KeyError.
        try:
            return self.network.host(host_name)
        except KeyError:
            known = ", ".join(sorted(h.name for h in
                                     self.network._hosts.values()))
            raise ValueError(
                f"crash fault references unknown host {host_name!r} "
                f"(known hosts: {known})") from None

    # -- introspection -----------------------------------------------------

    def counters(self) -> Dict[str, int]:
        return {
            "faults_activated": self.faults_activated,
            "faults_cleared": self.faults_cleared,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "dropped_by_loss": self.dropped_by_loss,
            "dropped_by_partition": self.dropped_by_partition,
            "dropped_host_down": self.dropped_host_down,
            "packets_corrupted": self.packets_corrupted,
            "packets_duplicated": self.packets_duplicated,
            "packets_delayed": self.packets_delayed,
            "packets_reordered": self.packets_reordered,
        }

    # -- the transmission hook ---------------------------------------------

    def process(self, packet: IpPacket, sender: "Host",
                receiver: "Host") -> List[Tuple[float, IpPacket]]:
        """Map one transmission to its deliveries: (extra delay, packet).

        An empty list drops the packet; two entries duplicate it.  The
        base link latency is applied by the network on top of the extra
        delays returned here.
        """
        if sender.down or receiver.down:
            self.dropped_host_down += 1
            self._note("host_down", packet)
            return []
        deliveries: List[Tuple[float, IpPacket]] = [(0.0, packet)]
        for spec in self._active:
            if not spec.matches(sender, receiver):
                continue
            if spec.kind == "partition":
                self.dropped_by_partition += 1
                self._note("partition", packet)
                return []
            if spec.rate < 1.0 and self._rng.random() >= spec.rate:
                continue
            if spec.kind == "loss":
                self.dropped_by_loss += 1
                self._note("loss", packet)
                return []
            if spec.kind == "corrupt":
                self.packets_corrupted += 1
                self._note("corrupt", packet)
                deliveries = [(extra, _corrupt(pkt))
                              for extra, pkt in deliveries]
            elif spec.kind == "duplicate":
                self.packets_duplicated += 1
                self._note("duplicate", packet)
                deliveries = deliveries + [
                    (extra + DUPLICATE_LAG, pkt)
                    for extra, pkt in deliveries]
            elif spec.kind == "delay":
                self.packets_delayed += 1
                self._note("delay", packet)
                deliveries = [(extra + spec.extra_delay, pkt)
                              for extra, pkt in deliveries]
            elif spec.kind == "reorder":
                # Holding this packet past its successors reorders the
                # flow without losing anything.
                self.packets_reordered += 1
                self._note("reorder", packet)
                deliveries = [(extra + spec.extra_delay, pkt)
                              for extra, pkt in deliveries]
        return deliveries

    def _note(self, kind: str, packet: IpPacket) -> None:
        """Record the verdict on the network's telemetry hub, if any.

        Fault verdicts are rare (faults are windows, not steady state),
        so this extra call only runs on already-exceptional packets.
        """
        telemetry = self.network.telemetry
        if telemetry is not None:
            telemetry.on_fault(kind, packet)


def _corrupt(packet: IpPacket) -> IpPacket:
    """Flip payload bits without fixing the checksum.

    The receiving host's checksum verification then drops the packet and
    counts it in ``counters.checksum_drops`` — corruption rides the same
    integrity path a real NIC/kernel would exercise.
    """
    segment = packet.segment
    if segment.data:
        # bytes() first: zero-copy WireView payloads are not buffers.
        data = bytearray(bytes(segment.data))
        data[len(data) // 2] ^= 0xFF
        return packet._replace(segment=segment._replace(data=bytes(data)))
    # Data-less segments (bare ACKs): damage the checksum itself.
    return packet._replace(checksum=packet.checksum ^ 0xDEAD)
