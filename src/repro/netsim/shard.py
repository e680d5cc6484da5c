"""Sharded discrete-event simulation: partitioned loops, epoch barriers.

ROADMAP item 3: one event loop on one core tops out in the low tens of
thousands of queries per second, so the next order of magnitude
partitions the simulation.  The unit of partitioning is the *client
source address* — LDplayer's sticky-by-source invariant (same source,
same querier, same socket) means a (client, view) pair's entire
lifecycle touches only its own hosts plus the server, so a shard that
owns a set of sources plus a server replica is a closed system.

Two deployment shapes share the primitives in this module:

* **Replicated servers** (the benchmark shape): every shard carries its
  own server replica, traffic never crosses shards, and shards are
  embarrassingly parallel — real processes via
  :class:`repro.replay.multiproc.ShardTopology`.  Because each replica
  is self-sourcing and deterministic (it rebuilds its trace slice from
  the shared factory), a crashed shard process needs no checkpoint:
  the topology's respawn path simply reruns it at a fresh incarnation
  under the same respawn budget (:mod:`repro.replay.recovery`'s
  ``RESPAWNS_PER_WORKER`` / ``RESPAWNS_TOTAL``) that governs querier
  workers.
* **Shared servers** (the general shape): hosts are split across shards
  and cross-shard packets flow through a :class:`CrossShardFabric`,
  exchanged at epoch barriers by an in-process
  :class:`ShardCoordinator` running the shards in lock-step.

Determinism and shard-order independence, the properties the
differential suite (``tests/test_shard_differential.py``) proves:

* Within an epoch each shard runs only on its own state, so the order
  in which a coordinator (or an OS scheduler) runs the shards cannot
  change what any shard computes.
* Cross-shard packets are accumulated per destination shard and handed
  over only at the barrier, sorted by the canonical key
  ``(delivery_time, origin_shard, origin_sequence)`` — a total order
  derived purely from per-shard-deterministic values, never from
  wall-clock interleaving.
* Conservativeness: with ``epoch <= `` the minimum cross-shard one-way
  latency, a packet emitted during an epoch can never be due before the
  next barrier, so no shard ever needs to roll back (classic
  conservative parallel discrete-event simulation).  A packet due
  earlier anyway (an epoch chosen too large) is clamped to the barrier
  and counted in :attr:`CrossShardFabric.clamped` rather than silently
  reordered.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import EventLoop
from .network import Host, Network
from .packet import IpPacket


def shard_of(source: str, num_shards: int) -> int:
    """The shard owning ``source`` (a client address), sticky and stable.

    crc32 rather than ``hash()``: Python string hashing is randomized
    per process (PEP 456), and shard assignment must agree across the
    worker processes of a :class:`~repro.replay.multiproc.ShardTopology`.
    """
    if num_shards <= 1:
        return 0
    return zlib.crc32(source.encode("ascii")) % num_shards


@dataclass(frozen=True)
class ShardPlan:
    """How a simulation is partitioned.

    ``epoch`` is the lock-step quantum.  Exactness requires
    ``epoch <= min cross-shard one-way latency``; the default matches
    half the default LAN RTT (0.8 ms) of :class:`LatencyModel`.
    """

    num_shards: int
    epoch: float = 0.0004

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.epoch <= 0:
            raise ValueError("epoch must be > 0")

    def shard_of(self, source: str) -> int:
        return shard_of(source, self.num_shards)


class CrossShardFabric:
    """Per-destination-shard packet batches, exchanged at barriers.

    During an epoch, shards deposit outbound packets here (via their
    network's ``remote_router``); each deposit is stamped with the
    origin shard's per-shard sequence number.  :meth:`exchange` drains
    the accumulated batches in canonical order — the same merged order
    no matter which shard ran first.
    """

    def __init__(self, num_shards: int):
        self.num_shards = num_shards
        # outboxes[dest] = [(delivery_time, origin_shard, origin_seq, pkt)]
        self._outboxes: List[List[Tuple[float, int, int, IpPacket]]] = [
            [] for _ in range(num_shards)]
        self._sequences = [0] * num_shards
        self.handed_off = 0
        self.clamped = 0

    def deposit(self, origin_shard: int, dest_shard: int,
                delivery_time: float, packet: IpPacket) -> None:
        seq = self._sequences[origin_shard]
        self._sequences[origin_shard] = seq + 1
        self._outboxes[dest_shard].append(
            (delivery_time, origin_shard, seq, packet))

    def pending(self) -> int:
        return sum(len(outbox) for outbox in self._outboxes)

    def exchange(self, dest_shard: int, barrier_time: float
                 ) -> List[Tuple[float, IpPacket]]:
        """Drain ``dest_shard``'s inbox as (delivery_time, packet) rows.

        Sorted by ``(delivery_time, origin_shard, origin_seq)`` — every
        component is computed inside exactly one shard, so the merged
        order is independent of shard execution order.  Deliveries due
        before the barrier (an epoch larger than the link latency) are
        clamped to it, preserving causality at the cost of added delay.
        """
        outbox = self._outboxes[dest_shard]
        if not outbox:
            return []
        self._outboxes[dest_shard] = []
        outbox.sort()
        self.handed_off += len(outbox)
        rows = []
        for delivery_time, _origin, _seq, packet in outbox:
            if delivery_time < barrier_time:
                self.clamped += 1
                delivery_time = barrier_time
            rows.append((delivery_time, packet))
        return rows


class Shard:
    """One partition: its own event loop and network."""

    def __init__(self, index: int, start_time: float = 0.0):
        self.index = index
        self.loop = EventLoop(start_time)
        self.network = Network(self.loop)

    def __repr__(self) -> str:
        return f"Shard({self.index}, now={self.loop.now:.6f})"


class ShardCoordinator:
    """Runs N shards in epoch lock-step with barrier packet exchange.

    The coordinator owns the shards' clocks: :meth:`run_until` advances
    every shard one epoch at a time, exchanging cross-shard batches at
    each barrier.  ``order`` permutes the within-epoch execution order;
    results are identical for every permutation (the differential suite
    runs all of them for small shard counts).
    """

    def __init__(self, plan: ShardPlan):
        self.plan = plan
        self.shards = [Shard(i) for i in range(plan.num_shards)]
        self.fabric = CrossShardFabric(plan.num_shards)
        self._address_shard: Dict[str, Tuple[int, str]] = {}
        self.epochs_run = 0
        for shard in self.shards:
            shard.network.remote_router = self._router(shard.index)

    # -- address directory ------------------------------------------------

    def _locate(self, address: str) -> Optional[Tuple[int, str]]:
        """(shard index, host name) owning ``address``, if any."""
        entry = self._address_shard.get(address)
        if entry is None:
            for shard in self.shards:
                host = shard.network.host_for(address)
                if host is not None:
                    entry = (shard.index, host.name)
                    self._address_shard[address] = entry
                    break
        return entry

    def _router(self, origin_index: int) -> Callable[[IpPacket, Host], bool]:
        def route(packet: IpPacket, sender: Host) -> bool:
            located = self._locate(packet.dst)
            if located is None:
                return False  # genuine no-route: let the shard drop it
            dest_shard, dest_name = located
            origin = self.shards[origin_index]
            # Latency is drawn from the *origin* shard's model — a value
            # computed entirely within one shard, so it cannot depend on
            # how the coordinator interleaved the others.
            delay = origin.network.latency.one_way(sender.name, dest_name)
            self.fabric.deposit(origin_index, dest_shard,
                                origin.loop.now + delay, packet)
            return True
        return route

    # -- running ----------------------------------------------------------

    def now(self) -> float:
        return min(shard.loop.now for shard in self.shards)

    def idle(self) -> bool:
        return (self.fabric.pending() == 0
                and all(shard.loop.next_event_time() is None
                        for shard in self.shards))

    def run_until(self, deadline: float,
                  order: Optional[Sequence[int]] = None) -> None:
        """Advance every shard to ``deadline`` in epoch lock-steps."""
        indices = list(order) if order is not None \
            else list(range(len(self.shards)))
        if sorted(indices) != list(range(len(self.shards))):
            raise ValueError(f"order {indices!r} is not a permutation "
                             f"of the {len(self.shards)} shards")
        epoch = self.plan.epoch
        time = self.now()
        while time < deadline:
            barrier = min(time + epoch, deadline)
            # Skip ahead over dead air: no shard has an event inside
            # this epoch and nothing is in flight between shards.
            next_times = [t for t in (shard.loop.next_event_time()
                                      for shard in self.shards)
                          if t is not None]
            if not next_times and self.fabric.pending() == 0:
                for shard in self.shards:
                    shard.loop.run_until(deadline)
                return
            if next_times and min(next_times) > barrier \
                    and self.fabric.pending() == 0:
                skip_to = min(min(next_times), deadline)
                # Land on an epoch boundary so barrier times (and thus
                # clamping) do not depend on where events happen to be.
                epochs_ahead = int((skip_to - time) / epoch)
                if epochs_ahead > 1:
                    fast_forward = time + (epochs_ahead - 1) * epoch
                    for shard in self.shards:
                        shard.loop.run_until(fast_forward)
                    time = fast_forward
                    continue
            for index in indices:
                self.shards[index].loop.run_until(barrier)
            self._exchange(barrier)
            self.epochs_run += 1
            time = barrier

    def export_counters(self, perf) -> None:
        """Fold the coordinator's run totals into a PerfCounters.

        Call once, after the run: the totals are added as counter
        increments.  ``shard.fabric_clamped`` is the fidelity cost of
        the epoch barrier: cross-shard deliveries due before the
        barrier that were delayed to it.  Zero means the epoch never
        distorted a latency sample.
        """
        perf.incr("shard.epochs", self.epochs_run)
        perf.incr("shard.fabric_handed_off", self.fabric.handed_off)
        perf.incr("shard.fabric_clamped", self.fabric.clamped)

    def _exchange(self, barrier: float) -> None:
        for shard in self.shards:
            rows = self.fabric.exchange(shard.index, barrier)
            if not rows:
                continue
            receive = shard.network
            entries = []
            for delivery_time, packet in rows:
                host = receive.host_for(packet.dst)
                if host is None:
                    # The host vanished between deposit and barrier
                    # (cannot happen today: hosts are never removed),
                    # drop as a no-route.
                    receive.dropped_no_route += 1
                    continue
                entries.append((delivery_time, host.receive_packet,
                                (packet,)))
            if entries:
                shard.loop.call_at_many(entries)
