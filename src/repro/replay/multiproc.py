"""The live replay: the paper's deployment topology (§3).

LDplayer runs the controller → distributor → querier tree as real OS
processes spread over client machines.  This module is that tree on
one host, and the only live replay there is: the tiers
(:class:`_LiveDistributor`, :class:`_LiveQuerier` in
:mod:`repro.replay.distributed`) run inside real **worker processes**
connected by TCP :class:`~repro.replay.protocol.MessageSocket` framing,
so the aggregate query rate is not capped at one core by the GIL.

Life of a run — one lifecycle (:class:`_Controller`) that the
in-memory, shard-file and sharded-sim runs parameterise:

1. **spawn** — bind a loopback control listener and start one tier of
   workers at a time: distributors, whose HELLO frames carry their
   querier-listener ports, then queriers wired to those ports (or the
   sim shards).  Every worker HELLOs back and gets one reader thread.
   The listener stays open for respawned or re-dialing workers;
2. **anchor** — the run's zero point (``start_clock``) is taken and
   broadcast as TIME_SYNC; the first record is due ``start_delay``
   later, so the head of the stream crosses the links before any send
   is due;
3. **stream** — records go out sharded sticky-by-source over the
   distributors, each re-sharding over its queriers, as RECORD frames
   tagged with their global trace index — or nothing at all when
   distributors self-source shard files, numbering each record from
   its shard's offset in the manifest;
4. **drain** — END is withheld, and lost records re-streamed, as the
   :class:`~repro.replay.recovery.RecoveryLedger` decides; list-mode
   queriers checkpoint what they sent, at once when their send queue
   runs dry, so the drain ends right after the last send.  A
   shard-file run routes nothing, so its drain ends at once;
5. **collect** — END, then one wait (``_await_reports``) until every
   worker has reported its RESULT + METRICS pair or is failed.  A
   querier reports once nothing it sent is unanswered, or ``SETTLE_S``
   after END if something still is, as its
   :class:`~repro.replay.recovery.QuerierLedger` says.  A worker is
   failed at once when its process is seen dead, else only
   ``settle_time`` + slack after the distributors reported and the
   schedule ran out, never past the deadline + slack;
6. **merge** — every CHECKPOINT and RESULT frame has gone to one
   :class:`~repro.replay.recovery.CheckpointStore`; the merge is the
   exactly-once ``ReplayResult.merge`` fold over its snapshots plus the
   controller's own counters, and ``MetricsRegistry.merge_state``;
7. **teardown** — SHUTDOWN, close, join, terminate.

Supervision: a worker's death is seen once, by its reader thread, as
EOF on its control link; ``_maybe_respawn`` then asks the ledger for a
respawn (within the budget a :class:`RecoveryConfig` grants; zero
without one) or fails the handle, whose routes fail over via
``StickyAssigner.remove`` and whose unreported records the drain
re-streams to the survivors.  ``DistributedConfig.deadline``
— the only wall-clock budget — fires one controller timer that expires
the ledger and sends SHUTDOWN down the tree, so distributors and
queriers shed what they hold and report truthful ``deadline_shed``
counts; each querier also enforces it locally from TIME_SYNC.  A worker
that is alive but wedged is bounded by that deadline and by
``_await_reports``' clock.

Every recovery decision — which records to re-stream and when, when END
may go out, whether a dead worker is respawned, what the deadline sheds
— is the ledger's; the controller keeps the sockets, processes, threads
and routing, feeds the ledger events under ``_lock`` and carries out
the actions it returns.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..netsim.shard import shard_of
from ..server.live import FactorySpec, _mp_context, _resolve_factory
from ..telemetry.cluster import (ClusterAggregator, FlightRecorder,
                                 TelemetryStreamer)
from ..telemetry.core import Telemetry
from ..telemetry.metrics import Histogram, MetricsRegistry
from ..telemetry.tracing import TelemetryConfig
from ..trace import Trace
from ..trace.binfmt import pack_record_body
from ..trace.stream import read_manifest, shard_path
from .distributed import (DistributedConfig, ServerAddress,
                          _LiveDistributor, _LiveQuerier)
from .distributor import StickyAssigner
from .protocol import (MSG_CHECKPOINT, MSG_HELLO, MSG_METRICS, MSG_RESULT,
                       MSG_SHUTDOWN, MSG_TELEMETRY, FrameTooLarge,
                       MessageSocket, ProtocolError, ROLE_DISTRIBUTOR,
                       ROLE_QUERIER, ROLE_SHARD, connect)
from .recovery import (COLLECT_TIMEOUT, HELLO_TIMEOUT, RECONNECT_ATTEMPTS,
                       RECONNECT_BACKOFF, ChaosConfig, CheckpointStore,
                       RecoveryConfig, RecoveryLedger, attach_chaos,
                       merge_recovered, reconnect_with_backoff,
                       respawn_backoff)
from .result import ReplayResult

_SETUP_TIMEOUT = 30.0


def _streaming(telemetry: Optional[TelemetryConfig]) -> bool:
    return telemetry is not None and telemetry.streaming()


# ---------------------------------------------------------------------------
# Worker process entry points (top-level: importable under spawn)
# ---------------------------------------------------------------------------
#
# Every role shares one prologue (_ControlLink(): connect, attach chaos,
# HELLO) and one epilogue (_ControlLink.finish: RESULT + METRICS, wait
# for SHUTDOWN, close).

# Entries per frame of a final report sent in chunks (one that does not
# fit a frame): about 120 KB of ``sent`` table at typical names.
_REPORT_CHUNK = 1024


class _ControlLink:
    """A worker's end of its control connection; owns the socket.

    Streamed telemetry, checkpoints and the final RESULT/METRICS pair
    all flow through it.  With ``redial`` (queriers) a broken link is
    re-dialed (connect + re-HELLO with the same incarnation) with
    backoff before any frame is declared lost; without it the frame is
    simply lost and the controller settles the worker's fate.
    """

    def __init__(self, control_addr: Tuple[str, int], role: int,
                 worker_id: int, incarnation: int,
                 chaos: Optional[ChaosConfig], listen_port: int = 0,
                 redial: bool = False):
        self._control_addr = control_addr
        self._role = role
        self._worker_id = worker_id
        self._incarnation = incarnation
        self._chaos = chaos
        self._listen_port = listen_port
        self._redial_allowed = redial
        self._seq = 0
        self._broken = False
        self.control = self._dial(timeout=10.0)

    def _dial(self, timeout: float) -> MessageSocket:
        control = connect(self._control_addr, timeout=timeout)
        attach_chaos(control, self._chaos, self._role, self._worker_id,
                     self._incarnation)
        control.send_hello(self._role, self._worker_id, self._listen_port,
                           self._incarnation)
        return control

    def _redial(self) -> bool:
        replacement = None
        if self._redial_allowed:
            replacement = reconnect_with_backoff(
                lambda: self._dial(timeout=2.0),
                RECONNECT_ATTEMPTS, RECONNECT_BACKOFF)
        if replacement is None:
            self._broken = True
            return False
        self.control.close()
        self.control = replacement
        return True

    def _deliver(self, send) -> bool:
        if self._broken:
            return False
        for _attempt in range(2):
            try:
                send()
                return True
            except FrameTooLarge:
                raise           # nothing was written: the link is fine
            except (ProtocolError, OSError):
                if not self._redial():
                    return False
        return False

    def __call__(self, delta: dict) -> None:
        """The querier's checkpoint_sink: emit a list-mode delta as
        CHECKPOINT frames of at most ``_REPORT_CHUNK`` entries (a burst
        can send a whole queue between two checkpoints)."""
        table = delta["sent"]
        for start in range(0, len(table["index"]), _REPORT_CHUNK):
            self._seq += 1
            seq, frame = self._seq, dict(delta, sent={
                name: column[start:start + _REPORT_CHUNK]
                for name, column in table.items()})
            self._deliver(lambda: self.control.send_checkpoint(
                self._worker_id, self._incarnation, seq, frame))

    def _report_in_chunks(self, result: ReplayResult) -> None:
        """A list-mode report too big for one frame: CHECKPOINT frames
        of its entries but the last ``_REPORT_CHUNK``, then the RESULT
        with the header and those.  The store folds them as it folds any
        deltas under a final header."""
        rows = range(len(result.sent))
        last = (len(rows) - 1) // _REPORT_CHUNK * _REPORT_CHUNK
        self(result.to_dict(rows[:last]))
        self._deliver(lambda: self.control.send_result(
            result.to_dict(rows[last:])))

    def send_telemetry(self, report: dict) -> None:
        # A re-dial may have replaced the socket; resolve the live one
        # at send time so streamed frames follow it.
        self.control.send_telemetry(report)

    def finish(self, result: ReplayResult, metrics_snapshot,
               streamer: Optional[TelemetryStreamer]) -> None:
        """Report, wait out the controller's SHUTDOWN, close."""
        if streamer is not None:
            # The definitive frame: cumulative metrics are frozen now,
            # so this matches the METRICS sent below.  The periodic
            # loop keeps reporting health while we wait for SHUTDOWN.
            streamer.flush(final=True)
        # RESULT and METRICS travel as a pair, in this order.
        metrics = metrics_snapshot()
        try:
            self._deliver(lambda: self.control.send_result(result.to_dict()))
        except FrameTooLarge:
            self._report_in_chunks(result)
        self._deliver(lambda: self.control.send_metrics(metrics))
        self.control.settimeout(10.0)
        try:   # until the controller says SHUTDOWN (or gives up)
            while True:
                message = self.control.receive()
                if message is None or message[0] == MSG_SHUTDOWN:
                    break
        except (ProtocolError, OSError):
            pass
        if streamer is not None:
            streamer.stop(final=False)
        self.control.close()


def _distributor_main(control_addr: Tuple[str, int], distributor_id: int,
                      querier_count: int,
                      chaos: Optional[ChaosConfig] = None,
                      incarnation: int = 0, listen_port: int = 0,
                      telemetry: Optional[TelemetryConfig] = None,
                      shard_file: Optional[str] = None,
                      pace_lead: float = 2.0, first_index: int = 0,
                      shard_records: Optional[int] = None) -> None:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # SO_REUSEADDR unconditionally: accepted querier sockets inherit it,
    # so a respawned incarnation can rebind this port while the dead
    # incarnation's connections are still draining through FIN/TIME_WAIT.
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if listen_port:
        # Respawn: rebind the dead incarnation's port so surviving
        # queriers' reconnect-with-backoff re-dials land here.  The
        # kernel may need a beat to tear the old socket down.
        bind_deadline = time.monotonic() + HELLO_TIMEOUT
        while True:
            try:
                listener.bind(("127.0.0.1", listen_port))
                break
            except OSError:
                if time.monotonic() >= bind_deadline:
                    raise
                time.sleep(0.05)
    else:
        listener.bind(("127.0.0.1", 0))
    listener.listen(querier_count + 4)
    listener.settimeout(HELLO_TIMEOUT)
    # No re-dial: a distributor that lost its control link has lost its
    # record stream, and the controller respawns it.
    link = _ControlLink(control_addr, ROLE_DISTRIBUTOR, distributor_id,
                        incarnation, chaos, listener.getsockname()[1])
    control = link.control
    querier_sockets: List[MessageSocket] = []
    try:
        for _ in range(querier_count):
            accepted, _peer = listener.accept()
            querier_sockets.append(_chaos_socket(accepted, chaos,
                                                 distributor_id, incarnation))
    except TimeoutError:
        pass  # run with whoever showed up; the rest attach late, below

    result = ReplayResult(f"distributor-{distributor_id}")
    distributor = _LiveDistributor(distributor_id, control, querier_sockets,
                                   result=result, lock=threading.Lock())

    def metrics_snapshot() -> dict:
        registry = MetricsRegistry()
        registry.incr("replay.records_routed", distributor.records_routed)
        registry.incr("replay.record_batches", distributor.record_batches)
        registry.incr("replay.pace_sleeps", distributor.pace_sleeps)
        return registry.to_state()

    streamer: Optional[TelemetryStreamer] = None
    if _streaming(telemetry):
        streamer = TelemetryStreamer(
            link.send_telemetry, ROLE_DISTRIBUTOR, distributor_id,
            incarnation, telemetry.stream_period,
            metrics_snapshot=metrics_snapshot,
            health=lambda: {
                "records_routed": distributor.records_routed,
                "queriers": len(distributor.querier_sockets)},
            sync_mono=lambda: distributor.sync_mono)
        streamer.start()
    # Stragglers, re-dialing queriers and respawns attach from here on.
    listener.settimeout(0.1)
    threading.Thread(
        target=_accept_late_queriers,
        args=(listener, distributor, chaos, distributor_id, incarnation),
        daemon=True, name=f"distributor-{distributor_id}-accept").start()
    if shard_file is not None:
        # Streaming mode: self-source the shard file instead of
        # receiving records over the control socket (which carries only
        # TIME_SYNC + END, and a deadline's SHUTDOWN).
        distributor.run_shard_file(shard_file, pace_lead=pace_lead,
                                   first_index=first_index,
                                   records=shard_records)
    else:
        distributor.run()   # synchronous: returns on END or EOF
    listener.close()        # ends the late-accept thread
    link.finish(result, metrics_snapshot, streamer)
    for outbound in distributor.querier_sockets:
        outbound.close()


def _chaos_socket(accepted: socket.socket, chaos: Optional[ChaosConfig],
                  distributor_id: int, incarnation: int) -> MessageSocket:
    """Wrap an accepted querier link, chaos attached to the send path."""
    accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    msocket = MessageSocket(accepted)
    attach_chaos(msocket, chaos, ROLE_DISTRIBUTOR, distributor_id,
                 incarnation)
    return msocket


def _accept_late_queriers(listener: socket.socket,
                          distributor: _LiveDistributor,
                          chaos: Optional[ChaosConfig], distributor_id: int,
                          incarnation: int) -> None:
    """Adopt queriers that (re)connect after startup (respawns), until
    the listener is closed."""
    while True:
        try:
            accepted, _peer = listener.accept()
        except TimeoutError:
            continue
        except OSError:
            return
        distributor.add_querier(_chaos_socket(accepted, chaos,
                                              distributor_id, incarnation))


def _querier_main(control_addr: Tuple[str, int], querier_id: int,
                  distributor_addr: Tuple[str, int],
                  server: ServerAddress,
                  deadline: Optional[float] = None,
                  chaos: Optional[ChaosConfig] = None,
                  incarnation: int = 0,
                  telemetry: Optional[TelemetryConfig] = None,
                  aggregate: bool = False) -> None:
    try:
        # One allowed CPU per querier, round-robin from a per-tree offset:
        # wake-affine placement stacks a loopback process chain on one
        # core and a short replay is over before the balancer undoes it.
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(
            0, {cpus[(control_addr[1] + querier_id) % len(cpus)]})
    except (AttributeError, OSError):
        pass  # no such call on this platform, or not permitted: unpinned
    link = _ControlLink(control_addr, ROLE_QUERIER, querier_id, incarnation,
                        chaos, redial=True)
    inbound = connect(distributor_addr)
    result = ReplayResult(f"querier-{querier_id}", aggregate=aggregate)
    querier = _LiveQuerier(querier_id, inbound, tuple(server), result,
                           threading.Lock())
    # The controller cannot flip this worker's shed_event across the
    # process boundary once the record stream has ended, so the
    # wall-clock budget is enforced locally, anchored at TIME_SYNC.
    querier.deadline = deadline
    querier.reconnect = lambda: reconnect_with_backoff(
        lambda: connect(distributor_addr, timeout=1.0),
        RECONNECT_ATTEMPTS, RECONNECT_BACKOFF,
        abort=querier.shed_event.is_set)
    if not aggregate:
        # Deltas only where entries are kept: an aggregate (shard-file)
        # run is never redelivered.
        querier.checkpoint_sink = link

    def metrics_snapshot() -> dict:
        registry = MetricsRegistry()
        registry.incr("replay.records_received", querier.records_received)
        registry.incr("replay.records_sent", querier.records_sent)
        registry.incr("replay.querier_wakes", querier.wakes)
        registry.incr("replay.catchup_waits", querier.catchup_waits)
        registry.incr("replay.catchup_forgiven", querier.catchup_forgiven)
        if querier.redundant_records:
            registry.incr("replay.redundant_records",
                          querier.redundant_records)
        # The latency distribution in either accounting mode: folded in
        # an aggregate result, kept entry by entry in a list-mode one.
        latency = Histogram()
        with querier.lock:
            if result.aggregate:
                latency.merge(result.latency)
            else:
                latency.observe_many(result.latencies())
        if latency.count:
            registry.histogram("query.latency_s").merge(latency)
        return registry.to_state()

    streamer: Optional[TelemetryStreamer] = None
    recorder: Optional[FlightRecorder] = None
    if _streaming(telemetry):
        hub = Telemetry(telemetry)
        recorder = FlightRecorder()
        if hub.per_query:
            querier.telemetry = hub
        if hub.tracer is not None:
            inner_record = hub.tracer._record

            def recording(event):
                inner_record(event)
                recorder.record_span(event)

            hub.tracer._record = recording
        recorder.log(f"querier-{querier_id} inc{incarnation} up")
        streamer = TelemetryStreamer(
            link.send_telemetry, ROLE_QUERIER, querier_id, incarnation,
            telemetry.stream_period,
            metrics_snapshot=metrics_snapshot,
            health=lambda: {
                "records_received": querier.records_received,
                "records_sent": querier.records_sent,
                "queue_depth": querier.queue_depth,
                "checkpoint_lag": querier.ledger.news},
            tracer=hub.tracer,
            recorder=recorder,
            sync_mono=lambda: querier._clock_start)
        streamer.start()

    querier.run()   # synchronous; closes its own sockets on exit
    if recorder is not None:
        recorder.log(f"querier-{querier_id} inc{incarnation} replay done")
    link.finish(result, metrics_snapshot, streamer)


# ---------------------------------------------------------------------------
# Simulation shard workers (ROADMAP item 3: one event loop per core)
# ---------------------------------------------------------------------------
#
# A *shard worker* is the replicated-server deployment shape of
# :mod:`repro.netsim.shard`: each process owns a complete simulated
# world (its own EventLoop, Network, server replica, and
# SimReplayEngine) and replays only the trace records whose source
# address hashes to its shard (``shard_of(record.src, n) == index``).
# Nothing crosses shards mid-run, so the workers are embarrassingly
# parallel; the controller merges the per-shard ReplayResult and
# MetricsRegistry snapshots over the same HELLO/RESULT/METRICS control
# plane the distributor/querier tiers use.
#
# Workers *self-source* their slice instead of receiving streamed
# records: a trace factory spec (a :data:`repro.server.live.FactorySpec`)
# is resolved by import inside the worker, so only a few hundred bytes
# cross the process boundary on the way in, not the trace itself.
# Factories must be importable top-level callables (a requirement under
# the ``spawn`` start method anyway) and deterministic for fixed kwargs
# (§2.1 repeatability — every worker regenerates the identical trace).


def _shard_positions(trace: Trace, shard_index: int,
                     num_shards: int) -> List[int]:
    """Positions in ``trace`` of the records ``shard_index`` owns."""
    return [position for position, record in enumerate(trace.records)
            if shard_of(record.src, num_shards) == shard_index]


def shard_slice(trace: Trace, shard_index: int, num_shards: int) -> Trace:
    """The records of ``trace`` owned by ``shard_index``.

    Sticky-by-source, like every other routing decision in the replay
    tree: a client's whole query stream lands on one shard, so per-source
    state (sockets, retries, connections) never splits.
    """
    return Trace([trace.records[position] for position
                  in _shard_positions(trace, shard_index, num_shards)],
                 name=f"{trace.name}#shard{shard_index}")


def default_shard_scenario(perf: Optional[MetricsRegistry] = None,
                           fast_replay_rate: float = 200000.0,
                           batch_window: Optional[float] = None,
                           client_instances: int = 2,
                           queriers_per_instance: int = 6):
    """The canonical shard world: evaluation topology + wildcard zone.

    One server replica on the Figure 5 testbed answering every query
    from its response-wire cache; the engine replays as fast as the
    machinery allows (the §4.3 throughput discipline).  Returns a
    :class:`~repro.replay.engine.SimReplayEngine` ready for
    ``engine.replay(trace)``.
    """
    from ..netsim import build_evaluation_topology
    from ..trace import wildcard_example_zone
    from ..server import AuthoritativeServer, HostedDnsServer
    from .engine import ReplayConfig, SimReplayEngine

    if perf is None:
        perf = MetricsRegistry()
    testbed = build_evaluation_topology()
    server = AuthoritativeServer.single_view([wildcard_example_zone()])
    server.perf = perf
    HostedDnsServer(testbed.server_host, server, perf=perf)
    return SimReplayEngine(
        testbed.network,
        ReplayConfig(track_timing=False, fast_replay_rate=fast_replay_rate,
                     batch_window=batch_window,
                     client_instances=client_instances,
                     queriers_per_instance=queriers_per_instance),
        perf=perf)


def _shard_main(control_addr: Tuple[str, int], shard_index: int,
                num_shards: int, trace_spec: FactorySpec,
                scenario_spec: FactorySpec,
                chaos: Optional[ChaosConfig] = None,
                incarnation: int = 0,
                telemetry: Optional[TelemetryConfig] = None) -> None:
    # No re-dial: a shard reruns deterministically, so a broken link is
    # healed by the controller respawning the whole shard.
    link = _ControlLink(control_addr, ROLE_SHARD, shard_index, incarnation,
                        chaos)
    perf = MetricsRegistry()
    streamer: Optional[TelemetryStreamer] = None
    if _streaming(telemetry):
        # Shards never see TIME_SYNC, so no sync_mono: the aggregator
        # falls back to min-skew alignment.  Spans are omitted — shard
        # timestamps are sim-clock, not monotonic, and cannot rebase.
        streamer = TelemetryStreamer(
            link.send_telemetry, ROLE_SHARD, shard_index, incarnation,
            telemetry.stream_period, metrics_snapshot=perf.to_state)
        streamer.start()
    trace = _resolve_factory(trace_spec)(**trace_spec[2])
    positions = _shard_positions(trace, shard_index, num_shards)
    slice_ = Trace([trace.records[position] for position in positions],
                   name=f"{trace.name}#shard{shard_index}")
    engine = _resolve_factory(scenario_spec)(perf=perf, **scenario_spec[2])
    started = time.perf_counter()
    result = engine.replay(slice_)
    wall = time.perf_counter() - started
    result.name = f"shard-{shard_index}"
    for entry in result.sent:   # slice position -> factory-trace index
        entry.index = positions[entry.index]
    perf.incr("shard.records", len(slice_.records))
    perf.set_gauge(f"shard.{shard_index}.wall_s", wall)
    perf.set_gauge(f"shard.{shard_index}.qps",
                   len(slice_.records) / wall if wall > 0 else 0.0)
    link.finish(result, perf.to_state, streamer)


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------

# How long past ``settle_time`` collection waits on a live worker whose
# upstream has ended: slack, not a budget (``deadline`` is that).
_COLLECT_SLACK = 10.0


def _role_name(role: int) -> str:
    return {ROLE_DISTRIBUTOR: "distributor", ROLE_QUERIER: "querier",
            ROLE_SHARD: "shard"}.get(role, f"role{role}")


class _WorkerHandle:
    """Controller-side view of one worker process."""

    def __init__(self, role: int, worker_id: int,
                 control: MessageSocket, listen_port: int,
                 incarnation: int = 0):
        self.role = role
        self.worker_id = worker_id
        self.control = control
        self.listen_port = listen_port
        self.incarnation = incarnation   # respawn generation (0 = first)
        self.process = None           # attached after the HELLO matches
        self.reader: Optional[threading.Thread] = None
        self.reported = False          # its RESULT is in the store
        self.metrics_state: Optional[dict] = None
        self.failed = False

    def is_alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    @property
    def pid(self):
        return self.process.pid if self.process is not None else None

    @property
    def name(self) -> str:
        return f"{_role_name(self.role)}-{self.worker_id}"


def _accept_hello(listener: socket.socket, expected_role: Optional[int],
                  timeout: float = _SETUP_TIMEOUT) -> _WorkerHandle:
    accepted, peer = listener.accept()
    accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    control = MessageSocket(accepted)
    # The handshake itself is deadline-bounded: a worker that connects
    # but never speaks must not hang topology startup.
    control.settimeout(timeout)
    try:
        message = control.receive()
    except TimeoutError:
        control.close()
        raise ProtocolError(
            f"worker at {peer[0]}:{peer[1]} connected but sent no HELLO "
            f"within {timeout:.1f}s")
    control.settimeout(None)
    if message is None or message[0] != MSG_HELLO:
        control.close()
        raise ProtocolError(f"worker at {peer[0]}:{peer[1]} did not HELLO")
    role, worker_id, listen_port, incarnation = message[1]
    if expected_role is not None and role != expected_role:
        control.close()
        raise ProtocolError(f"unexpected worker role {role}")
    return _WorkerHandle(role, worker_id, control, listen_port, incarnation)


class _Controller:
    """The one controller lifecycle both topologies run.

    ``_spawn_tree`` → the run's own stages → ``_await_reports`` →
    ``_merge`` → ``_teardown``, plus the self-healing side path
    (``_accept_loop`` → ``_adopt``, ``_maybe_respawn`` →
    ``_respawn_worker``).  Subclasses supply the slots (``_tiers``), a
    worker's argv (``_worker_argv``) and what a re-admitted worker needs
    (``_resync``).

    ``recovery`` does two things: a :class:`RecoveryConfig` grants the
    ledger's respawn budget (without one it is zero), and carries the
    chaos schedule every worker attaches.

    Only two places mark a handle failed: the reader's EOF path
    (``_maybe_respawn``, once the process is seen dead) and
    ``_await_reports`` (clock expired, or dead with no reader left).
    Only the ledger counts a worker lost for good (``workers_lost``):
    a death ``_maybe_respawn`` or ``_respawn_worker`` reports past its
    respawn budget.
    """

    def __init__(self, result: ReplayResult,
                 recovery: Optional[RecoveryConfig],
                 tconfig: Optional[TelemetryConfig],
                 start_method: Optional[str]):
        self.result = result
        # Cross-process telemetry: per-worker metrics snapshots merged
        # into one registry.
        self.metrics = MetricsRegistry()
        # Live cluster view, populated only when the telemetry config
        # asks for streaming (stream_period set); None otherwise so the
        # run stays byte-identical to a telemetry-free one.  Its q/s
        # views window a few stream periods.
        self.cluster: Optional[ClusterAggregator] = None
        if tconfig is not None:
            self.cluster = ClusterAggregator(
                window=max(1.0, 4.0 * tconfig.stream_period))
        self._chaos, respawns = ((None, False) if recovery is None
                                 else (recovery.chaos, True))
        self._tconfig = tconfig
        self._ctx = _mp_context(start_method)
        # role -> slots (handles by worker id), in merge order.
        self._tiers: Dict[int, List[_WorkerHandle]] = {}
        self._lock = threading.Lock()
        # Notified (under _lock) whenever a reader folds a frame in or a
        # worker's fate changes, so every wait wakes on progress instead
        # of polling.
        self._progress = threading.Condition(self._lock)
        # Every CHECKPOINT / RESULT frame lands here, and the merge is
        # exactly-once over it.
        self._store = CheckpointStore()
        self._ledger = RecoveryLedger(self._store, respawns=respawns)
        self._assigner: StickyAssigner = StickyAssigner([], allow_empty=True)
        self._control_addr: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._processes: List = []
        self._pending_processes: Dict[Tuple[int, int, int], object] = {}
        self._respawning: Set[Tuple[int, int]] = set()
        self._retired_handles: List[_WorkerHandle] = []
        # Set once worker death stops being recoverable work loss: no
        # more respawns, the accept loop ends, EOFs are not crashes.
        self._closing = threading.Event()
        # The wall-clock budget's one timer (``_handle_deadline``).
        self._deadline_timer: Optional[threading.Timer] = None

    def _handles(self) -> List[_WorkerHandle]:
        return [handle for slots in self._tiers.values() for handle in slots]

    def _worker_argv(self, role: int, worker_id: int, incarnation: int,
                     listen_port: int) -> Tuple[object, tuple]:
        """``(target, args)`` of one worker process."""
        raise NotImplementedError

    def _resync(self, handle: _WorkerHandle) -> None:
        """A respawned worker took over its slot: bring it up to date
        (under ``_lock``)."""

    # -- the deadline -----------------------------------------------------

    def _handle_deadline(self) -> None:
        """The wall-clock budget ran out (``_deadline_timer``'s thread):
        stop streaming and redelivery, and send SHUTDOWN down the tree."""
        with self._progress:
            self._ledger.expire()
            self._progress.notify_all()
        for handle in self._tiers.get(ROLE_DISTRIBUTOR, ()):
            try:
                handle.control.send_shutdown()
            except OSError:
                pass

    # -- spawn -------------------------------------------------------------

    def _worker_process(self, role: int, worker_id: int,
                        incarnation: int = 0, listen_port: int = 0):
        target, args = self._worker_argv(role, worker_id, incarnation,
                                         listen_port)
        return self._ctx.Process(
            target=target, args=args, daemon=True,
            name=f"replay-{_role_name(role)}-{worker_id}"
                 + (f"r{incarnation}" if incarnation else ""))

    def _spawn_tree(self, tiers: Sequence[Tuple[int, int]]) -> None:
        """Bind the control listener, then start and HELLO in one tier
        of ``(role, count)`` at a time — a querier's argv names its
        distributor's port, which only that distributor's HELLO tells.

        Every handle gets its reader thread, and the accept loop keeps
        the listener open so respawned and re-dialing workers can HELLO
        back in.
        """
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(sum(count for _role, count in tiers) + 4)
            listener.settimeout(_SETUP_TIMEOUT)
            self._control_addr = listener.getsockname()
            for role, count in tiers:
                started = [self._worker_process(role, worker_id)
                           for worker_id in range(count)]
                self._processes.extend(started)
                for process in started:
                    process.start()
                by_id: Dict[int, _WorkerHandle] = {}
                for _ in range(count):
                    handle = _accept_hello(listener, role)
                    handle.process = started[handle.worker_id]
                    by_id[handle.worker_id] = handle
                self._tiers[role][:] = [by_id[i] for i in range(count)]
        except Exception:
            self._closing.set()
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
            listener.close()
            raise
        for handle in self._handles():
            self._start_reader(handle)
        # Short accept timeout from here on: the accept loop must wake
        # often enough to notice shutdown.
        listener.settimeout(0.25)
        self._listener = listener
        threading.Thread(target=self._accept_loop, daemon=True,
                         name="replay-accept").start()

    # -- the one frame reader ----------------------------------------------

    def _start_reader(self, handle: _WorkerHandle) -> None:
        handle.reader = threading.Thread(
            target=self._reader_loop, args=(handle, handle.control),
            daemon=True, name=f"reader-{handle.name}@{handle.incarnation}")
        handle.reader.start()

    def _reader_loop(self, handle: _WorkerHandle,
                     control: MessageSocket) -> None:
        key = (handle.role, handle.worker_id)
        while True:
            try:
                message = control.receive()
            except (ProtocolError, OSError):
                break
            if message is None:
                break
            kind, payload = message
            if kind == MSG_TELEMETRY:
                # Aggregation has its own lock; never holds self._lock,
                # so the stream cannot stall checkpoint dispatch.
                if self.cluster is not None:
                    self.cluster.ingest(payload)
                continue
            with self._progress:
                if kind == MSG_CHECKPOINT:
                    self._store.offer_frame(key, payload)
                elif kind == MSG_RESULT:
                    # The final RESULT is cumulative and its header
                    # outranks every checkpoint of the same incarnation,
                    # whatever the arrival order.
                    handle.reported = True
                    self._store.offer(key, handle.incarnation, 0,
                                      payload, final=True)
                elif kind == MSG_METRICS:
                    handle.metrics_state = payload
                self._progress.notify_all()
        # Reader gone: either this socket was replaced by a reconnect
        # (handle.control moved on — not our problem) or the worker
        # died and _maybe_respawn settles its fate.
        if handle.control is control:
            self._maybe_respawn(handle)

    # -- adoption / respawn ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                newcomer = _accept_hello(self._listener, None, HELLO_TIMEOUT)
            except (TimeoutError, ProtocolError):
                continue
            except OSError:
                return
            self._adopt(newcomer)

    def _adopt(self, newcomer: _WorkerHandle) -> None:
        """Classify a late HELLO: reconnect of a live incarnation, or a
        respawned worker taking over its slot."""
        slots = self._tiers.get(newcomer.role, ())
        with self._lock:
            if not 0 <= newcomer.worker_id < len(slots):
                newcomer.control.close()
                return
            current = slots[newcomer.worker_id]
            if (newcomer.incarnation == current.incarnation
                    and not current.failed):
                # Same incarnation re-dialing after a dropped socket:
                # swap the control link, keep every other field.
                old = current.control
                current.control = newcomer.control
                old.close()
                handle = current
            elif newcomer.incarnation > current.incarnation:
                newcomer.process = self._pending_processes.pop(
                    (newcomer.role, newcomer.worker_id,
                     newcomer.incarnation), None)
                slots[newcomer.worker_id] = newcomer
                self._retired_handles.append(current)
                # Routable by the time its respawn counts as done.
                self._resync(newcomer)
                handle = newcomer
            else:
                newcomer.control.close()
                return
            self._progress.notify_all()
        self._start_reader(handle)

    def _maybe_respawn(self, handle: _WorkerHandle) -> None:
        """A worker's control link died.  Once the process is seen dead
        with its report outstanding the handle is failed; it is
        respawned when the ledger's budget allows."""
        if handle.process is not None:
            handle.process.join(timeout=1.5)
            if handle.process.is_alive():
                # Live worker with a dropped socket: a querier re-dials;
                # otherwise the collection clock rules.
                return
        key = (handle.role, handle.worker_id)
        with self._lock:
            if handle.failed or handle.reported:
                return
            handle.failed = True
            self._progress.notify_all()
            if self._closing.is_set():
                return   # winding down: nothing left to lose or recover
            attempt = self._ledger.died(key)
            if attempt is not None:
                self._respawning.add(key)
        if self.cluster is not None:
            self.cluster.record_crash(handle.role, handle.worker_id,
                                      handle.incarnation,
                                      reason="process died")
        if handle.role == ROLE_DISTRIBUTOR:
            # Its sticky routes fail over now, not at the next write
            # error into the dead link's buffer.
            self._assigner.remove(handle)
        if attempt is not None:
            threading.Thread(
                target=self._respawn_worker, args=(handle, attempt),
                daemon=True, name=f"respawn-{handle.name}").start()

    def _respawn_worker(self, handle: _WorkerHandle, attempt: int) -> None:
        """Start a fresh incarnation of ``handle``'s worker (own thread).

        A respawn that dies before its HELLO is adopted would otherwise
        vanish silently (no reader thread watches it yet) — babysit it
        through the handshake and retry within the budget.
        """
        key = (handle.role, handle.worker_id)
        incarnation = handle.incarnation
        try:
            while not self._closing.is_set():
                incarnation += 1
                time.sleep(respawn_backoff(attempt))
                process = self._worker_process(
                    handle.role, handle.worker_id, incarnation,
                    handle.listen_port)
                pending_key = key + (incarnation,)
                with self._lock:
                    if self._closing.is_set():
                        return
                    self._pending_processes[pending_key] = process
                    self._processes.append(process)
                process.start()
                hello_deadline = time.monotonic() + HELLO_TIMEOUT
                with self._progress:
                    while (pending_key in self._pending_processes
                           and process.is_alive()
                           and not self._closing.is_set()
                           and time.monotonic() < hello_deadline):
                        self._progress.wait(0.05)
                    if (process.is_alive() or self._closing.is_set()
                            or pending_key not in self._pending_processes):
                        # Adopted (the reader thread owns it now),
                        # shutting down, or alive but mute past the
                        # HELLO timeout.
                        return
                    del self._pending_processes[pending_key]
                    attempt = self._ledger.died(key)
                    if attempt is None:
                        return
        finally:
            with self._progress:
                self._respawning.discard(key)
                self._progress.notify_all()

    # -- collect / merge / teardown ----------------------------------------

    def _await_reports(self, floor: float, grace: float,
                       cap: float = float("inf")) -> None:
        """The one completion wait: sleep on ``_progress`` until every
        worker has its RESULT + METRICS pair or is failed.

        A live, unreported worker is given up on (failed) by an event-
        driven clock: it is armed only once every distributor has
        reported or failed — the stream upstream of the queriers has
        ended — and then runs to ``max(floor, that moment) + grace``,
        never past ``cap`` (absolute monotonic times).  So no clock
        derived from trace timestamps declares a worker lost while its
        upstream is still producing; a flood's duration is zero, its
        wall time is not.
        """
        upstream_at: Optional[float] = None
        with self._progress:
            while True:
                waiting = []
                for handle in self._handles():
                    # RESULT and METRICS travel as a pair; waking on the
                    # first must not leave the second unread.
                    if handle.reported and handle.metrics_state is not None:
                        continue
                    if handle.failed:
                        if (handle.role, handle.worker_id) \
                                in self._respawning:
                            waiting.append(handle)
                    elif (handle.pid is not None and not handle.is_alive()
                            and not (handle.reader is not None
                                     and handle.reader.is_alive())):
                        # Died with nobody reading its link any more
                        # (the reader left on an earlier dropped socket,
                        # or never ran): nothing further can arrive.
                        handle.failed = True
                    else:
                        waiting.append(handle)
                if not waiting:
                    return
                now = time.monotonic()
                if upstream_at is None and not any(
                        handle.role == ROLE_DISTRIBUTOR
                        for handle in waiting):
                    upstream_at = now
                deadline = cap if upstream_at is None \
                    else min(cap, max(floor, upstream_at) + grace)
                if now >= deadline:
                    for handle in waiting:
                        handle.failed = True
                    return
                # Bounded: a worker dying after its reader left
                # notifies nobody.
                self._progress.wait(min(1.0, deadline - now))

    def _merge(self, workers_counter: str) -> int:
        """The one merge: the exactly-once fold of every report in the
        store, plus the controller's own accounting (respawns,
        redelivery, shedding, failover), into ``result``; and every
        worker's metrics into ``metrics``.  Returns the number of lost
        shards."""
        # Collection is over: nothing may change a worker's fate, or
        # self.result, behind the merge's back.
        self._closing.set()
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        handles = self._handles()
        ledger, own = self._ledger, self.result
        with self._lock:
            snapshots = self._store.snapshots()
            own.respawns, own.workers_lost = ledger.respawns, ledger.lost
            own.redelivered_records = ledger.redelivered
            own.deadline_shed = ledger.shed
        self.result = merge_recovered(snapshots, own.name,
                                      own.aggregate).merge(own)
        lost = sum(1 for handle in handles if not handle.reported)
        for handle in handles + self._retired_handles:
            if handle.metrics_state is not None:
                self.metrics.merge_state(handle.metrics_state)
        if lost:
            self.metrics.incr("multiproc.lost_shards", lost)
        self.metrics.incr(workers_counter, len(handles))
        store = self._store
        self.metrics.incr("multiproc.checkpoint_frames",
                          store.frames_offered)
        self.metrics.incr("multiproc.checkpoint_frames_stale",
                          store.frames_stale)
        self.metrics.incr("multiproc.checkpoint_entries",
                          store.entries_offered)
        if ledger.respawns:
            self.metrics.incr("multiproc.respawns", ledger.respawns)
        return lost

    def _teardown(self) -> None:
        """The one teardown: SHUTDOWN, close, reap."""
        if self._listener is not None:
            # The accept loop ends at its next wake; nothing waits on it.
            self._listener.close()
        for handle in self._handles():
            try:
                handle.control.send_shutdown()
            except OSError:
                pass
            handle.control.close()
        for handle in self._retired_handles:
            handle.control.close()
        for process in self._processes:
            process.join(timeout=2.0)
        for process in self._processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)


class ProcessTopology(_Controller):
    """The controller of the live replay tree, and its entry point.

    ``server`` is either one ``(address, port)`` tuple or a list of
    them; with a list, querier *i* targets ``server[i % len(server)]``
    (the scale-out experiment gives each querier its own backend so the
    measured bottleneck stays on the client side, §4.3).
    """

    def __init__(self, server: Union[ServerAddress, List[ServerAddress]],
                 config: Optional[DistributedConfig] = None,
                 telemetry=None):
        servers = server if isinstance(server, list) else [server]
        if not servers:
            raise ValueError("need at least one server address")
        self.servers = [tuple(address) for address in servers]
        self.config = config if config is not None else DistributedConfig()
        self.telemetry = telemetry
        # The TelemetryConfig to ship to workers, or None when the run
        # must be observation-free (the differential guarantee: workers
        # only ever learn about telemetry when streaming is on).
        tconfig = getattr(telemetry, "config", telemetry)
        if not (isinstance(tconfig, TelemetryConfig)
                and tconfig.streaming()):
            tconfig = None
        super().__init__(ReplayResult("distributed-process"),
                         self.config.recovery, tconfig,
                         self.config.start_method)
        self.distributor_handles: List[_WorkerHandle] = []
        self.querier_handles: List[_WorkerHandle] = []
        # Merge order: queriers in id order, then the distributors'
        # routing counters.
        self._tiers = {ROLE_QUERIER: self.querier_handles,
                       ROLE_DISTRIBUTOR: self.distributor_handles}
        # Distributor i's extra argv: empty, or what it self-sources in
        # a shard-file run (path, pacing, index of its first record).
        self._source_args = lambda index: ()

    def server_for(self, querier_id: int) -> ServerAddress:
        return self.servers[querier_id % len(self.servers)]

    def _worker_argv(self, role: int, worker_id: int, incarnation: int,
                     listen_port: int) -> Tuple[object, tuple]:
        config = self.config
        if role == ROLE_DISTRIBUTOR:
            return _distributor_main, (
                self._control_addr, worker_id,
                config.queriers_per_distributor, self._chaos,
                incarnation, listen_port, self._tconfig,
                *self._source_args(worker_id))
        distributor = self.distributor_handles[
            worker_id // config.queriers_per_distributor]
        return _querier_main, (
            self._control_addr, worker_id,
            ("127.0.0.1", distributor.listen_port),
            self.server_for(worker_id), config.deadline, self._chaos,
            incarnation, self._tconfig, self.result.aggregate)

    def _resync(self, handle: _WorkerHandle) -> None:
        """Bring a distributor, first incarnation or respawned, into the
        run: chaos on its record stream, the anchor, a place in routing."""
        if handle.role != ROLE_DISTRIBUTOR:
            return
        # Controller-side chaos acts on the record stream to the
        # distributors; the controller itself never crash-faults.
        attach_chaos(handle.control, self._chaos, handle.role,
                     handle.worker_id, handle.incarnation,
                     controller_side=True)
        try:
            handle.control.send_time_sync(self.result.trace_start)
        except OSError:
            pass   # dead already: surfaces as a lost shard / respawn
        self._assigner.add(handle)

    # -- the runs ----------------------------------------------------------

    def replay(self, trace: Trace) -> ReplayResult:
        """Replay an in-memory trace, accounted per query: records cross
        the control links as RECORD frames tagged with their position in
        the timestamp-sorted trace, so every entry names its record.
        END is withheld until the ledger lets it go: the checkpoint
        store accounts for every index, or nothing more can be
        redelivered."""
        records = sorted(trace.records, key=lambda r: r.timestamp)
        if not records:
            return self.result
        return self._run(self.config.distributors, records[0].timestamp,
                         records[-1].timestamp - records[0].timestamp,
                         records)

    def replay_shard_files(self, directory: str,
                           pace_lead: float = 2.0) -> ReplayResult:
        """Replay a shard-file set at constant memory (the 10⁸ path).

        The trace must already be split sticky-by-source into chunked
        binary shard files (:func:`repro.trace.stream.split_shards`);
        this controller reads only the ``manifest.json`` sidecar — it
        never touches a record.  One distributor process is spawned per
        shard file (``config.distributors`` is ignored) and self-sources
        it lazily, a chunk at a time, forwarding record bodies undecoded
        under their trace index (the shard's manifest offset plus its
        position in the shard) and pacing routing ``pace_lead`` seconds
        ahead of the replay clock so no tier ever buffers the trace.
        The control links carry only TIME_SYNC and END.  Queriers
        account in aggregate mode, so RESULT frames stay a few KB at
        any scale.
        """
        if self.config.recovery is not None:
            raise ValueError("shard-file streaming has no respawn budget: "
                             "config.recovery must be None")
        manifest = read_manifest(directory)
        self.result = ReplayResult("distributed-process", aggregate=True)
        if not manifest["total_records"]:
            return self.result
        offsets = list(accumulate(
            [0] + [shard["records"] for shard in manifest["shards"]]))
        self._source_args = lambda index: (
            shard_path(directory, index, manifest), pace_lead,
            offsets[index], manifest["shards"][index]["records"])
        self.metrics.incr("multiproc.trace_records",
                          manifest["total_records"])
        trace_start = manifest["first_timestamp"]
        return self._run(
            manifest["num_shards"], trace_start,
            manifest["last_timestamp"] - trace_start + pace_lead)

    def _run(self, num_distributors: int, trace_start: float, span: float,
             records: Sequence = ()) -> ReplayResult:
        """The run skeleton: spawn → anchor → stream → drain → collect
        → merge → teardown.  ``span`` is how long the schedule keeps
        the tree busy after its first record is due.  Each phase's wall
        (the anchor's counts as stream) goes to ``metrics`` as
        ``multiproc.phase.<name>``."""
        self._phase_at = time.perf_counter()
        config = self.config
        span += config.start_delay
        # The trace time of the anchor, which is what TIME_SYNC carries:
        # the first record is due start_delay after the zero point, as
        # in SimReplayEngine.  Set before any worker exists: _resync
        # may need it early.
        self.result.trace_start = trace_start - config.start_delay
        self._spawn_tree([
            (ROLE_DISTRIBUTOR, num_distributors),
            (ROLE_QUERIER,
             num_distributors * config.queriers_per_distributor)])
        if config.deadline is not None:
            self._deadline_timer = threading.Timer(config.deadline,
                                                   self._handle_deadline)
            self._deadline_timer.daemon = True
            self._deadline_timer.start()
        self._phase_done("spawn")
        self._anchor()
        self._stream(records)
        self._phase_done("stream")
        self._drain(records, time.monotonic() + span + config.settle_time
                    + COLLECT_TIMEOUT)
        self._phase_done("drain")
        if records:
            # The stream is over and checkpointed: a death from here on
            # is no recoverable work loss, so stop respawning and let the
            # tree wind down.  (A shard-file run's END starts its stream.)
            self._closing.set()
        for handle in self.distributor_handles:
            try:
                handle.control.send_end()   # behind the last record block
            except OSError:
                pass

        # Collect: every worker reports RESULT + METRICS when done.
        cap = float("inf")
        if config.deadline is not None:
            # The user's wall-clock budget, and the only one.
            cap = self.result.start_clock + config.deadline + _COLLECT_SLACK
        self._await_reports(self.result.start_clock + span,
                            config.settle_time + _COLLECT_SLACK, cap)
        self._phase_done("collect")

        self._merge("multiproc.workers")
        self._phase_done("merge")
        self._teardown()
        self._phase_done("teardown")
        if isinstance(self.telemetry, Telemetry):
            # Per-query tracing cannot cross the process boundary; the
            # merged counter/histogram snapshots are the process-mode
            # telemetry surface.  A bare TelemetryConfig has no registry
            # to fold into.
            self.telemetry.metrics.merge(self.metrics)
        return self.result

    def _phase_done(self, phase: str) -> None:
        """Book the wall since the previous phase ended to ``phase``."""
        now = time.perf_counter()
        self.metrics.add_time("multiproc.phase." + phase,
                              now - self._phase_at)
        self._phase_at = now

    def _anchor(self) -> None:
        """Take the run's zero point and broadcast it as TIME_SYNC."""
        self.result.start_clock = time.monotonic()
        if self.cluster is not None:
            self.cluster.set_anchor(self.result.start_clock)
        for handle in self.distributor_handles:
            self._resync(handle)

    def _stream(self, records: Sequence) -> None:
        """Reader + Postman: shard the records sticky-by-source over the
        distributors, tagged with their global trace index, until the
        deadline; then tell the ledger what went out and when it is
        due (the anchor plus its offset in the trace)."""
        ledger, total = self._ledger, len(records)
        for index, record in enumerate(records):
            if ledger.expired:
                # Not fed to the tree: the ledger sheds it (queued
                # records shed inside the queriers).
                records = records[:index]
                break
            self._send_record(index, record)
        self._flush_records()
        offset = self.result.start_clock - self.result.trace_start
        with self._lock:
            ledger.route([record.timestamp + offset for record in records])
            ledger.stop_routing(total)

    def _send_record(self, index: int, record) -> None:
        """Route record ``index`` to its sticky distributor, failing a
        dead distributor's sources over to the next live one.  The
        record is packed once; every tier below forwards those bytes."""
        body = pack_record_body(record)
        while self._assigner.entities:
            handle = self._assigner.assign(record.src)
            try:
                handle.control.write_record(index, body)
                return
            except OSError:   # distributor died: fail its sources over
                self._assigner.remove(handle)
                with self._lock:
                    self.result.reassigned_queries += 1
        with self._lock:
            self.result.send_failures += 1

    def _flush_records(self) -> None:
        """Write out the buffered record blocks before waiting.  What a
        dead link's block held comes back as missing indices in the next
        redelivery round."""
        for handle in self._assigner.entities:
            try:
                handle.control.flush()
            except OSError:
                self._assigner.remove(handle)

    # -- exactly-once drain ------------------------------------------------

    def _drain(self, records: Sequence, cap: float) -> None:
        """Withhold END until the ledger sends it, re-streaming what it
        counts lost; ``cap`` bounds the wait in wall time.  A shard-file
        run routes nothing here, so its ledger ends the drain at once."""
        while True:
            with self._progress:
                now = time.monotonic()
                if now >= cap:
                    return
                live = [((h.role, h.worker_id), h.incarnation)
                        for h in self.querier_handles
                        if h.is_alive() and not h.failed]
                # A dead worker's fate is open while a respawn is in
                # flight or its reader has not settled it yet.
                respawning = bool(self._respawning) or any(
                    not (h.failed or h.reported or h.is_alive())
                    for h in self._handles())
                action, arg = self._ledger.tick(
                    now, live, bool(live and self._assigner.entities),
                    respawning)
                if action == "end":
                    return
                if action == "wait":
                    self._progress.wait(min(arg, cap) - now)
                    continue
            for index in arg:
                self._send_record(index, records[index])
            self._flush_records()


# ---------------------------------------------------------------------------
# Sharded simulation controller
# ---------------------------------------------------------------------------

class ShardTopology(_Controller):
    """N self-sourcing simulation shards as real OS processes.

    The replicated-server shape of :mod:`repro.netsim.shard` deployed
    over the same control plane: every worker regenerates the trace from
    an importable factory spec, keeps only its
    ``shard_of(record.src, num_shards)`` slice, replays it against its
    own in-process server replica, and reports a RESULT + METRICS pair
    back.  The controller's job is spawn / collect / merge / teardown —
    no trace bytes ever cross the process boundary, so there is no
    anchor, stream or drain stage.

    Every entry is reported under its record's position in the factory
    trace, so the store's exactly-once merge takes the shards' RESULTs
    like any other reports.

    Recovery: a shard's replay is deterministic for its slice, so a
    respawned incarnation (``_maybe_respawn``, the tree's path) redoes
    the whole slice and its RESULT simply replaces the one the dead
    incarnation never sent — no partial state to reconcile.

    Determinism: the merged :class:`ReplayResult` is the union of the
    per-shard results, and each shard's result depends only on its own
    slice (sticky-by-source partitioning, one closed world per shard) —
    so the aggregate is independent of how the OS schedules the
    workers.  ``tests/test_shard_differential.py``
    checks this against the single-shard run.
    """

    def __init__(self, num_shards: int, trace_factory: FactorySpec,
                 scenario_factory: Optional[FactorySpec] = None,
                 start_method: Optional[str] = None,
                 collect_timeout: float = 600.0,
                 recovery: Optional[RecoveryConfig] = None,
                 telemetry_config: Optional[TelemetryConfig] = None):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.trace_factory = (trace_factory[0], trace_factory[1],
                              dict(trace_factory[2]))
        if scenario_factory is None:
            scenario_factory = ("repro.replay.multiproc",
                                "default_shard_scenario", {})
        self.scenario_factory = (scenario_factory[0], scenario_factory[1],
                                 dict(scenario_factory[2]))
        self.collect_timeout = collect_timeout
        self.telemetry_config = (
            telemetry_config if _streaming(telemetry_config) else None)
        super().__init__(ReplayResult("sharded-replay"), recovery,
                         self.telemetry_config, start_method)
        self.shard_handles: List[_WorkerHandle] = []
        self._tiers = {ROLE_SHARD: self.shard_handles}
        self.shard_walls: List[Optional[float]] = []
        self.lost_shards = 0
        self.respawns = 0

    def _worker_argv(self, role: int, worker_id: int, incarnation: int,
                     listen_port: int) -> Tuple[object, tuple]:
        return _shard_main, (
            self._control_addr, worker_id, self.num_shards,
            self.trace_factory, self.scenario_factory, self._chaos,
            incarnation, self.telemetry_config)

    def replay(self) -> ReplayResult:
        self._spawn_tree([(ROLE_SHARD, self.num_shards)])
        self._await_reports(time.monotonic(), self.collect_timeout)
        self.lost_shards = self._merge("multiproc.shards")
        self.respawns = self._ledger.respawns
        self.shard_walls = [
            (handle.metrics_state or {}).get("gauges", {}).get(
                f"shard.{handle.worker_id}.wall_s")
            for handle in self.shard_handles]
        self._teardown()
        return self.result
