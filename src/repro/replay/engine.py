"""The simulated replay engine: Figure 4's client system on the testbed.

``SimReplayEngine`` deploys a controller and N client instances (each a
host running one distributor and several querier processes) on a
simulated network, then replays a trace toward a server with the §2.6
timing discipline:

* the controller broadcasts a time-sync message at the first record,
* each record is dispatched sticky-by-source down the tree,
* the querier schedules a timer at ΔT = Δt̄ − Δt (or sends immediately
  when input processing has fallen behind),
* optional calibrated timer jitter stands in for the OS noise the live
  path measures for real (see :mod:`repro.replay.timing`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..netsim import EventLoop, Host, Network
from ..perf import PerfCounters
from ..telemetry import Telemetry
from ..trace import Trace
from .distributor import Controller, Distributor, DistributionStats
from .querier import QuerierConfig, SimQuerier
from .result import ReplayResult
from .timing import TimerJitterModel, TimingController

# Client instance i (from 1) is host ``client-i`` at this prefix + i.
CLIENT_ADDRESS_BASE = "10.250.0."


@dataclass
class ReplayConfig:
    """Knobs of the distributed query system."""

    client_instances: int = 2
    queriers_per_instance: int = 6
    same_source_affinity: bool = True    # ablation: sticky routing off
    track_timing: bool = True            # False = replay as fast as possible
    input_window: int = 1000
    input_delay_per_record: float = 2e-6
    jitter: Optional[TimerJitterModel] = None
    querier: QuerierConfig = field(default_factory=QuerierConfig)
    start_delay: float = 0.5             # settle time before first query
    fast_replay_rate: Optional[float] = None  # cap for track_timing=False
    # Send every record landing on the same instant from one event,
    # each client host's datagrams in one batch (on by default; a no-op
    # when send times never coincide).  ``batch_window`` additionally
    # quantizes fast-replay send times up to the next multiple of the
    # window so bursts *do* coincide — an explicit opt-in, since it
    # changes send timestamps.
    batch_sends: bool = True
    batch_window: Optional[float] = None
    # §2.5: "at lower query rates, we could manipulate a live query
    # stream in near real time" — a QueryMutator applied per record on
    # the dispatch path rather than ahead of time.
    live_mutator: Optional[object] = None


class SimReplayEngine:
    """Builds the client tree on a network and replays traces."""

    def __init__(self, network: Network,
                 config: Optional[ReplayConfig] = None,
                 perf: Optional[PerfCounters] = None,
                 telemetry: Optional[Telemetry] = None):
        self.network = network
        self.loop: EventLoop = network.loop
        self.config = config if config is not None else ReplayConfig()
        self.perf = perf if perf is not None else PerfCounters()
        self.telemetry = telemetry
        self.stats = DistributionStats()
        self.client_hosts: List[Host] = []
        self.queriers: List[SimQuerier] = []
        self.result = ReplayResult()
        self._build_clients()
        if telemetry is not None:
            telemetry.attach_loop(self.loop)
            telemetry.attach_network(network)
            if telemetry.per_query:
                for querier in self.queriers:
                    querier.telemetry = telemetry
            telemetry.add_probe(
                "replay.queries_sent", lambda: len(self.result.sent))
            telemetry.add_probe(
                "replay.answered",
                lambda: sum(1 for e in self.result.sent
                            if e.answered_at is not None))
            telemetry.add_probe(
                "loop.events_processed",
                lambda: self.loop.events_processed)

    def _build_clients(self) -> None:
        distributors = []
        for instance in range(self.config.client_instances):
            address = f"{CLIENT_ADDRESS_BASE}{instance + 1}"
            host = self.network.add_host(f"client-{instance + 1}", address)
            self.client_hosts.append(host)
            instance_queriers = [
                SimQuerier(instance * self.config.queriers_per_instance + q,
                           host, self.result, self.config.querier)
                for q in range(self.config.queriers_per_instance)
            ]
            self.queriers.extend(instance_queriers)
            distributors.append(
                Distributor(instance, instance_queriers,
                            sticky=self.config.same_source_affinity,
                            stats=self.stats))
        self.controller = Controller(
            distributors, sticky=self.config.same_source_affinity,
            input_window=self.config.input_window,
            input_delay_per_record=self.config.input_delay_per_record)

    # -- replay ---------------------------------------------------------

    def schedule_trace(self, trace: Trace) -> ReplayResult:
        """Schedule every record; caller then runs the event loop."""
        if not trace.records:
            return self.result
        with self.perf.timed("replay.schedule"):
            scheduler = _StreamScheduler(self, trace.records[0].timestamp)
            for record in trace.records:
                scheduler.schedule(record)
            scheduler.flush()
            self.perf.incr("replay.queries_scheduled", scheduler.scheduled)
        return self.result

    # -- dispatch ---------------------------------------------------------

    def _dispatch_instant(self, groups: Dict[Host, Dict[SimQuerier, List]]
                          ) -> None:
        """Send every record due at one instant: one handoff per host.

        ``groups`` maps each client host, in first-seen order, to its
        queriers' items, in first-seen order.  A live host's queriers
        append their UDP packets to one outbox, which leaves through
        one ``Host.send_packet_batch``.  Hosts come first so that
        queriers sending one by one (per-query tracing) put datagrams
        on the wire in the order the batches do.  A crashed host's
        records fail over one at a time through :meth:`_dispatch_send`;
        hosts send one after another, so no other host has packets
        waiting in an outbox when they do.
        """
        for host, queriers in groups.items():
            if host.down:
                for querier, items in queriers.items():
                    for index, record, send_at in items:
                        self._dispatch_send(querier, index, record, send_at)
                continue
            outbox: List = []
            for querier, items in queriers.items():
                querier.send_batch(items, outbox)
            if outbox:
                host.send_packet_batch(outbox)

    def _dispatch_send(self, querier: SimQuerier, index: int, record,
                       send_at: float) -> None:
        """Send via ``querier`` unless its host crashed; then fail over.

        With no fault injection this is a plain pass-through at the same
        sim time, so fault-free replays are unchanged.
        """
        if querier.host.down:
            replacement = self._reassign(querier, record.src)
            if replacement is None:
                self.result.send_failures += 1
                return
            self.result.reassigned_queries += 1
            querier = replacement
        querier.send(index, record, send_at)

    # -- failover ---------------------------------------------------------

    def _reassign(self, dead: SimQuerier, source: str) \
            -> Optional[SimQuerier]:
        """Route ``source`` to a live querier, evicting crashed ones."""
        self._evict(dead)
        for _ in range(len(self.queriers) + 1):
            if not self.controller.assigner.entities:
                return None
            candidate = self.controller.dispatch(source)
            if not candidate.host.down:
                return candidate
            self._evict(candidate)
        return None

    def _evict(self, dead: SimQuerier) -> None:
        """Remove a crashed querier from the distribution tree."""
        for distributor in self.controller.distributors:
            if distributor.retire(dead):
                if not distributor.queriers:
                    self.controller.assigner.remove(distributor)
                return

    def replay(self, trace: Trace, extra_time: float = 10.0) -> ReplayResult:
        """Schedule and run to completion (plus settle time)."""
        result = self.schedule_trace(trace)
        if trace.records:
            end = (self.loop.now + self.config.start_delay
                   + trace.duration() + extra_time)
            events_before = self.loop.events_processed
            with self.perf.timed("replay.run"):
                self.loop.run_until(end)
            self.perf.incr("replay.events_processed",
                           self.loop.events_processed - events_before)
        self._canonicalize()
        return result

    def _canonicalize(self) -> None:
        """Present ``result.sent`` in trace order.

        Same-instant batching sends an instant's records host by host
        and querier by querier, so append order within a tied instant
        depends on how records were grouped and chunked into the
        scheduler.  Sorting by trace index makes the result independent
        of that artifact — the streamed and in-memory paths then
        produce literally identical results.
        """
        if not self.result.aggregate:
            self.result.sent.sort(key=lambda entry: entry.index)

    def replay_stream(self, records, extra_time: float = 10.0,
                      chunk_records: int = 4096) -> ReplayResult:
        """Replay a record *stream* with bounded scheduling memory.

        :meth:`replay` schedules the whole trace before running — fine
        at 10⁴ queries, impossible at 10⁸ (the event queue would hold
        every send).  This path interleaves: schedule ``chunk_records``
        records, run the loop up to the next record's earliest possible
        send time, schedule the next chunk, and so on.  The event queue
        holds one chunk of pending sends plus in-flight responses,
        independent of stream length.

        Timestamps must be nondecreasing (every streaming source here
        — generators, shard files, mutated streams — guarantees it), so
        a chunk's sends never land before the barrier the loop already
        ran to.  Scheduling and accounting go through the same
        machinery as :meth:`replay`; replaying the same records through
        either path yields the same :class:`ReplayResult`.
        """
        iterator = iter(records)
        pending = next(iterator, None)
        if pending is None:
            return self.result
        events_before = self.loop.events_processed
        scheduler = _StreamScheduler(self, pending.timestamp)
        first_ts = pending.timestamp
        last_ts = first_ts
        while pending is not None:
            with self.perf.timed("replay.schedule"):
                count = 0
                while pending is not None and count < chunk_records:
                    last_ts = pending.timestamp
                    scheduler.schedule(pending)
                    count += 1
                    pending = next(iterator, None)
                scheduler.flush()
            if pending is not None:
                barrier = scheduler.send_floor(pending)
                if barrier > self.loop.now:
                    with self.perf.timed("replay.run"):
                        self.loop.run_until(barrier)
        self.perf.incr("replay.queries_scheduled", scheduler.scheduled)
        end = scheduler.start_clock + (last_ts - first_ts) + extra_time
        with self.perf.timed("replay.run"):
            self.loop.run_until(max(end, self.loop.now))
        self.perf.incr("replay.events_processed",
                       self.loop.events_processed - events_before)
        self._canonicalize()
        return self.result

    # -- introspection ------------------------------------------------------

    def total_sockets(self) -> int:
        return sum(q.socket_count() for q in self.queriers)

    def open_connections(self) -> int:
        return sum(q.open_connections() for q in self.queriers)


class _StreamScheduler:
    """Incremental record scheduling shared by trace and stream replay.

    Owns the cross-record state of the §2.6 timing discipline — the
    time-sync anchor, the running input index, and the same-instant
    batching groups — so records can arrive one at a time.  Records due
    at the same instant close into one event that sends them all
    (:meth:`SimReplayEngine._dispatch_instant`), grouped by client host
    and then by querier, each in first-seen order; an instant holding a
    single record keeps a plain per-record event.  Send times are
    nondecreasing, so one open instant (``group_at``) suffices.  A
    :meth:`flush` may split an instant that straddles a stream chunk
    boundary — per-record semantics are unchanged, the instant merely
    leaves in two events.
    """

    def __init__(self, engine: SimReplayEngine, trace_start: float):
        self.engine = engine
        config = engine.config
        self.start_clock = engine.loop.now + config.start_delay
        self.timing = TimingController()
        self.timing.synchronize(trace_start, self.start_clock)
        engine.controller.broadcast_time_sync()
        engine.result.start_clock = self.start_clock
        engine.result.trace_start = trace_start
        self.jitter = config.jitter
        self.fast_gap = (1.0 / config.fast_replay_rate
                         if config.fast_replay_rate else 0.0)
        self.window = (config.batch_window
                       if not config.track_timing else None)
        self.index = 0
        self.scheduled = 0
        self.batch: List = []
        self.group_at: Optional[float] = None
        # The open instant's (querier, index, record, send_at) sends.
        self.instant: List = []

    def send_floor(self, record) -> float:
        """A lower bound on ``record``'s eventual send time.

        Used as the run barrier between stream chunks: the loop may
        process events up to this time before the record is scheduled,
        because its send lands at or after it (availability and the
        ``loop.now`` clamp only push sends later; negative timer jitter
        is clamped to the barrier by ``call_at``).
        """
        if self.engine.config.track_timing:
            return self.timing.target_clock_time(record.timestamp)
        return self.start_clock + self.index * self.fast_gap

    def schedule(self, record) -> None:
        engine = self.engine
        config = engine.config
        index = self.index
        self.index += 1
        if config.live_mutator is not None:
            record = config.live_mutator.apply_record(record)
            if record is None:
                return
        querier = engine.controller.dispatch(record.src)
        available = engine.controller.availability_time(index,
                                                        self.start_clock)
        if config.track_timing:
            target = self.timing.target_clock_time(record.timestamp)
            if self.jitter is not None:
                target += self.jitter.draw()
            send_at = max(available, target, engine.loop.now)
        else:
            send_at = max(available,
                          self.start_clock + index * self.fast_gap)
            if self.window:
                # Quantize *up*: never earlier than unquantized.
                send_at = math.ceil(send_at / self.window) * self.window
        self.scheduled += 1
        send = (querier, index, record, send_at)
        if not config.batch_sends:
            self.batch.append((send_at, engine._dispatch_send, send))
            return
        if send_at != self.group_at:
            self._close_instant()
            self.group_at = send_at
        self.instant.append(send)

    def _close_instant(self) -> None:
        instant = self.instant
        if len(instant) == 1:
            self.batch.append((self.group_at, self.engine._dispatch_send,
                               instant[0]))
        elif instant:
            groups: Dict[Host, Dict[SimQuerier, List]] = {}
            for querier, index, record, send_at in instant:
                groups.setdefault(querier.host, {}).setdefault(
                    querier, []).append((index, record, send_at))
            self.batch.append((self.group_at, self.engine._dispatch_instant,
                               (groups,)))
        self.instant = []

    def flush(self) -> None:
        """Hand everything scheduled so far to the event loop."""
        self._close_instant()
        self.group_at = None
        if self.batch:
            self.engine.loop.call_at_many(self.batch)
            self.batch = []
