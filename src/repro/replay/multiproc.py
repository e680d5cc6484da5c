"""The live replay: the paper's deployment topology (§3).

LDplayer runs the controller → distributor → querier tree as real OS
processes spread over client machines.  This module is that tree on
one host, and the only live replay there is: the tiers
(:class:`_LiveDistributor`, :class:`_LiveQuerier` in
:mod:`repro.replay.distributed`) run inside real **worker processes**
connected by TCP :class:`~repro.replay.protocol.MessageSocket` framing,
so the aggregate query rate is not capped at one core by the GIL.

Life of a run — one lifecycle (:class:`_Controller`) that the classic,
shard-file, recovering and sharded-sim runs parameterise:

1. **spawn** — bind a loopback control listener and start one tier of
   workers at a time: distributors, whose HELLO frames carry their
   querier-listener ports, then queriers wired to those ports (or the
   sim shards).  Every worker HELLOs back and gets one reader thread.
   With recovery on the listener stays open for respawned or
   re-dialing workers;
2. **anchor** — the run's zero point (``start_clock``) is taken and
   broadcast as TIME_SYNC; the first record is due ``start_delay``
   later, so the head of the stream crosses the links before any send
   is due;
3. **stream** — records go out sharded sticky-by-source over the
   distributors, each re-sharding over its queriers: RECORD frames,
   RECORD_SEQ (global trace index) in recovery mode, or nothing at all
   when distributors self-source shard files;
4. **drain** (recovery mode) — END is withheld until the checkpoint
   store accounts for every index, lost ones being re-streamed;
5. **collect** — END, then one wait (``_await_reports``) until every
   worker has reported its RESULT + METRICS pair or is failed: at once
   when its process is seen dead, else only ``settle_time`` + slack
   after the distributors reported and the schedule ran out;
6. **merge** — ``ReplayResult.merge`` in slot order (exactly-once
   ``merge_recovered`` over the store in recovery mode) plus
   ``MetricsRegistry.merge_state``, into one aggregate;
7. **teardown** — SHUTDOWN, close, join, terminate.

Supervision: a :class:`~repro.replay.supervision.ReplayWatchdog`
watches each worker through its :class:`_WorkerHandle` (``is_alive`` =
the OS process); its verdict closes the worker's control link, and the
reader's EOF path decides between a respawn (recovery mode, within
budget) and a failed handle whose routes fail over via
``StickyAssigner.remove``.  ``supervision.deadline`` — the only
wall-clock budget — propagates as SHUTDOWN frames down the tree so
queriers shed their queues and report truthful ``deadline_shed`` counts.
A worker that is alive but wedged is bounded by that deadline and by
``_await_reports``' clock.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..netsim.shard import shard_of
from ..perf import PerfCounters
from ..telemetry.cluster import (ClusterAggregator, FlightRecorder,
                                 TelemetryStreamer)
from ..telemetry.core import Telemetry
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracing import TelemetryConfig
from ..trace import Trace
from ..trace.stream import read_manifest, shard_path
from .distributed import (DistributedConfig, ServerAddress,
                          _LiveDistributor, _LiveQuerier)
from .distributor import StickyAssigner
from .protocol import (MSG_CHECKPOINT, MSG_HELLO, MSG_METRICS, MSG_RESULT,
                       MSG_SHUTDOWN, MSG_TELEMETRY, MessageSocket,
                       ProtocolError, ROLE_DISTRIBUTOR, ROLE_QUERIER,
                       ROLE_SHARD, connect)
from .recovery import (CheckpointStore, RecoveryConfig, attach_chaos,
                       merge_recovered, reconnect_with_backoff)
from .result import ReplayResult, _COUNTER_FIELDS
from .supervision import ReplayWatchdog

_SETUP_TIMEOUT = 30.0


def _mp_context(start_method: Optional[str] = None):
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def _streaming(telemetry: Optional[TelemetryConfig]) -> bool:
    return telemetry is not None and telemetry.streaming()


def _make_aggregator(telemetry: TelemetryConfig) -> ClusterAggregator:
    """Window the live q/s views to a few stream periods."""
    return ClusterAggregator(window=max(1.0, 4.0 * telemetry.stream_period))


# ---------------------------------------------------------------------------
# Worker process entry points (top-level: importable under spawn)
# ---------------------------------------------------------------------------
#
# Every role shares one prologue (_ControlLink(): connect, attach chaos,
# HELLO) and one epilogue (_ControlLink.finish: RESULT + METRICS, wait
# for SHUTDOWN, close).

class _ControlLink:
    """A worker's end of its control connection; owns the socket.

    Streamed telemetry, checkpoints and the final RESULT/METRICS pair
    all flow through it.  With ``redial`` (recovering queriers) a broken
    link is re-dialed (connect + re-HELLO with the same incarnation)
    with backoff before any frame is declared lost; without it the
    frame is simply lost and the controller settles the worker's fate.
    """

    def __init__(self, control_addr: Tuple[str, int], role: int,
                 worker_id: int, incarnation: int,
                 recovery: Optional[RecoveryConfig], listen_port: int = 0,
                 redial: bool = False):
        self._control_addr = control_addr
        self._role = role
        self._worker_id = worker_id
        self._incarnation = incarnation
        self._recovery = recovery
        self._listen_port = listen_port
        self._redial_allowed = redial
        self._seq = 0
        self._broken = False
        self.control = self._dial(timeout=10.0)

    def _dial(self, timeout: float) -> MessageSocket:
        control = connect(self._control_addr, timeout=timeout)
        attach_chaos(control,
                     self._recovery.chaos if self._recovery else None,
                     self._role, self._worker_id, self._incarnation)
        control.send_hello(self._role, self._worker_id, self._listen_port,
                           self._incarnation)
        return control

    def _redial(self) -> bool:
        replacement = None
        if self._redial_allowed:
            replacement = reconnect_with_backoff(
                lambda: self._dial(timeout=2.0),
                self._recovery.reconnect_attempts,
                self._recovery.reconnect_backoff)
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
            except (ProtocolError, OSError):
                if not self._redial():
                    return False
        return False

    def __call__(self, delta: dict) -> None:
        """The querier's checkpoint_sink: emit one delta frame."""
        self._seq += 1
        seq = self._seq
        self._deliver(lambda: self.control.send_checkpoint(
            self._worker_id, self._incarnation, seq, delta))

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
        self._deliver(lambda: self.control.send_result(result.to_dict()))
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
                      recovery: Optional[RecoveryConfig] = None,
                      incarnation: int = 0, listen_port: int = 0,
                      telemetry: Optional[TelemetryConfig] = None,
                      shard_file: Optional[str] = None,
                      read_ahead: int = 2048,
                      pace_lead: float = 2.0) -> None:
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    # SO_REUSEADDR unconditionally: accepted querier sockets inherit it,
    # so a respawned incarnation can rebind this port while the dead
    # incarnation's connections are still draining through FIN/TIME_WAIT.
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if listen_port:
        # Respawn: rebind the dead incarnation's port so surviving
        # queriers' reconnect-with-backoff re-dials land here.  The
        # kernel may need a beat to tear the old socket down.
        bind_deadline = time.monotonic() + (
            recovery.hello_timeout if recovery is not None else 5.0)
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
    listener.settimeout(_SETUP_TIMEOUT if recovery is None
                        else recovery.hello_timeout)
    # No re-dial: a distributor that lost its control link has lost its
    # record stream, and the controller respawns it.
    link = _ControlLink(control_addr, ROLE_DISTRIBUTOR, distributor_id,
                        incarnation, recovery, listener.getsockname()[1])
    control = link.control
    querier_sockets: List[MessageSocket] = []
    accept_stop = threading.Event()
    try:
        for _ in range(querier_count):
            try:
                accepted, _peer = listener.accept()
            except TimeoutError:
                if recovery is None:
                    raise
                # Recovery: run with whoever showed up; stragglers and
                # respawns attach through the late-accept loop below.
                break
            accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            querier_sockets.append(MessageSocket(accepted)
                                   if recovery is None
                                   else _chaos_socket(accepted, recovery,
                                                      distributor_id,
                                                      incarnation))
    except Exception:
        listener.close()
        raise
    if recovery is None:
        listener.close()

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
    if recovery is not None:
        listener.settimeout(0.1)
        accept_thread = threading.Thread(
            target=_accept_late_queriers,
            args=(listener, distributor, recovery, distributor_id,
                  incarnation, accept_stop),
            daemon=True, name=f"distributor-{distributor_id}-accept")
        accept_thread.start()
    if shard_file is not None:
        # Streaming mode: self-source the shard file with bounded
        # read-ahead instead of receiving records over the control
        # socket (which carries only TIME_SYNC + END).
        distributor.run_shard_file(shard_file, read_ahead=read_ahead,
                                   pace_lead=pace_lead)
    else:
        distributor.run()   # synchronous: returns on END/SHUTDOWN/EOF
    if recovery is not None:
        accept_stop.set()
        listener.close()
    link.finish(result, metrics_snapshot, streamer)
    for outbound in distributor.querier_sockets:
        outbound.close()


def _chaos_socket(accepted: socket.socket, recovery: RecoveryConfig,
                  distributor_id: int, incarnation: int) -> MessageSocket:
    """Wrap an accepted querier link, chaos attached to the send path."""
    accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    msocket = MessageSocket(accepted)
    attach_chaos(msocket, recovery.chaos, ROLE_DISTRIBUTOR,
                 distributor_id, incarnation)
    return msocket


def _accept_late_queriers(listener: socket.socket,
                          distributor: _LiveDistributor,
                          recovery: RecoveryConfig, distributor_id: int,
                          incarnation: int,
                          stop: threading.Event) -> None:
    """Adopt queriers that (re)connect after startup (respawns)."""
    while not stop.is_set():
        try:
            accepted, _peer = listener.accept()
        except TimeoutError:
            continue
        except OSError:
            return
        distributor.add_querier(_chaos_socket(accepted, recovery,
                                              distributor_id, incarnation))


def _querier_main(control_addr: Tuple[str, int], querier_id: int,
                  distributor_addr: Tuple[str, int],
                  server: ServerAddress,
                  deadline: Optional[float] = None,
                  recovery: Optional[RecoveryConfig] = None,
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
                        recovery, redial=recovery is not None)
    inbound = connect(distributor_addr)
    result = ReplayResult(f"querier-{querier_id}", aggregate=aggregate)
    querier = _LiveQuerier(querier_id, inbound, tuple(server), result,
                           threading.Lock())
    # The controller cannot flip this worker's shed_event across the
    # process boundary once the record stream has ended, so the
    # wall-clock budget is enforced locally, anchored at TIME_SYNC.
    querier.deadline = deadline
    if recovery is not None:
        querier.checkpoint_policy = recovery.checkpoint
        querier.checkpoint_sink = link
        querier.reconnect = lambda: reconnect_with_backoff(
            lambda: connect(distributor_addr, timeout=1.0),
            recovery.reconnect_attempts, recovery.reconnect_backoff,
            abort=querier.shed_event.is_set)

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
        # Aggregate mode never retains per-query entries: the latency
        # distribution travels in the RESULT frame's histogram instead.
        if not result.aggregate:
            with querier.lock:
                latencies = [entry.latency for entry in result.sent]
            for latency in latencies:
                if latency is not None:
                    registry.observe("query.latency_s", latency)
        return registry.to_state()

    streamer: Optional[TelemetryStreamer] = None
    recorder: Optional[FlightRecorder] = None
    if _streaming(telemetry):
        hub = Telemetry(telemetry)
        recorder = FlightRecorder(telemetry.flight_recorder)
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
                "queue_depth": len(querier._queue),
                "checkpoint_lag": len(querier._news)},
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
# PerfCounters snapshots over the same HELLO/RESULT/METRICS control
# plane the distributor/querier tiers use.
#
# Workers *self-source* their slice instead of receiving streamed
# records: a trace factory spec ``(module, function, kwargs)`` is
# resolved by import inside the worker, so only a few hundred bytes
# cross the process boundary on the way in, not the trace itself.
# Factories must be importable top-level callables (a requirement under
# the ``spawn`` start method anyway) and deterministic for fixed kwargs
# (§2.1 repeatability — every worker regenerates the identical trace).

FactorySpec = Tuple[str, str, dict]


def _resolve_factory(spec: FactorySpec):
    module_name, attribute, _kwargs = spec
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    return target


def shard_slice(trace: Trace, shard_index: int, num_shards: int) -> Trace:
    """The records of ``trace`` owned by ``shard_index``.

    Sticky-by-source, like every other routing decision in the replay
    tree: a client's whole query stream lands on one shard, so per-source
    state (sockets, retries, connections) never splits.
    """
    records = [record for record in trace.records
               if shard_of(record.src, num_shards) == shard_index]
    return Trace(records, name=f"{trace.name}#shard{shard_index}")


def default_shard_scenario(perf: Optional[PerfCounters] = None,
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
    from ..experiments.fig6_timing import wildcard_example_zone
    from ..experiments.topology import build_evaluation_topology
    from ..server import AuthoritativeServer, HostedDnsServer
    from .engine import ReplayConfig, SimReplayEngine

    if perf is None:
        perf = PerfCounters()
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
                recovery: Optional[RecoveryConfig] = None,
                incarnation: int = 0,
                telemetry: Optional[TelemetryConfig] = None) -> None:
    # No re-dial: a shard reruns deterministically, so a broken link is
    # healed by the controller respawning the whole shard.
    link = _ControlLink(control_addr, ROLE_SHARD, shard_index, incarnation,
                        recovery)
    perf = PerfCounters()
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
    slice_ = shard_slice(trace, shard_index, num_shards)
    engine = _resolve_factory(scenario_spec)(perf=perf, **scenario_spec[2])
    started = time.perf_counter()
    result = engine.replay(slice_)
    wall = time.perf_counter() - started
    result.name = f"shard-{shard_index}"
    perf.incr("shard.records", len(slice_.records))
    perf.set_gauge(f"shard.{shard_index}.wall_s", wall)
    perf.set_gauge(f"shard.{shard_index}.qps",
                   len(slice_.records) / wall if wall > 0 else 0.0)
    link.finish(result, perf.to_state, streamer)


def _udp_echo_main(conn) -> None:
    from .live import LiveUdpEchoServer
    server = LiveUdpEchoServer().start()
    conn.send((server.address, server.port))
    try:
        conn.recv()          # blocks until the parent says stop / EOF
    except (EOFError, OSError):
        pass
    server.stop()


class UdpEchoServerProcess:
    """A :class:`LiveUdpEchoServer` isolated in its own OS process.

    The §4.3 methodology needs the *client* to be the measured
    bottleneck.  One of these per querier keeps the server side out of
    the measured processes.
    """

    def __init__(self, start_method: Optional[str] = None):
        self._ctx = _mp_context(start_method)
        self._conn = None
        self._process = None
        self.address: Optional[str] = None
        self.port: Optional[int] = None

    def start(self) -> "UdpEchoServerProcess":
        self._conn, child_conn = self._ctx.Pipe()
        self._process = self._ctx.Process(
            target=_udp_echo_main, args=(child_conn,), daemon=True)
        self._process.start()
        child_conn.close()
        if not self._conn.poll(_SETUP_TIMEOUT):
            self.stop()
            raise RuntimeError("echo server process failed to start")
        self.address, self.port = self._conn.recv()
        return self

    def stop(self) -> None:
        if self._conn is not None:
            try:
                self._conn.send("stop")
            except (BrokenPipeError, OSError):
                pass
            self._conn.close()
            self._conn = None
        if self._process is not None:
            self._process.join(timeout=2.0)
            if self._process.is_alive():
                self._process.terminate()
                self._process.join(timeout=2.0)
            self._process = None

    def __enter__(self) -> "UdpEchoServerProcess":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------

# Stands in for a shard the checkpoint store already holds (recovery
# mode): non-None, so has_work()/collection see the worker as reported,
# without keeping a second copy of its entries alive.
_DRAINED = ReplayResult("drained", aggregate=True)

# How long past ``settle_time`` a live worker whose upstream has ended
# may stay unreported before collection gives up on it: scheduling and
# serialisation slack, not a budget (``supervision.deadline`` is that).
_COLLECT_SLACK = 10.0


def _role_name(role: int) -> str:
    return {ROLE_DISTRIBUTOR: "distributor", ROLE_QUERIER: "querier",
            ROLE_SHARD: "shard"}.get(role, f"role{role}")


class _WorkerHandle:
    """Controller-side view of one worker process (watchdog subject)."""

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
        self.shard: Optional[ReplayResult] = None
        self.metrics_state: Optional[dict] = None
        self.failed = False

    # -- ReplayWatchdog subject surface -----------------------------------

    def has_work(self) -> bool:
        """Outstanding until its RESULT shard lands (or it is failed)."""
        return self.shard is None and not self.failed

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
    ``_respawn_worker``) that is live whenever a
    :class:`RecoveryConfig` is given.  Subclasses supply the slots
    (``_tiers``), a worker's argv (``_worker_argv``) and what a
    re-admitted worker needs (``_resync``).

    Only two places mark a handle failed: the reader's EOF path
    (``_maybe_respawn``, once the process is seen dead) and
    ``_await_reports`` (clock expired, or dead with no reader left).
    The watchdog only closes links.
    """

    def __init__(self, result: ReplayResult,
                 recovery: Optional[RecoveryConfig],
                 tconfig: Optional[TelemetryConfig],
                 start_method: Optional[str]):
        self.result = result
        # Cross-process telemetry: per-worker metrics snapshots merged
        # into one registry.
        self.metrics = MetricsRegistry()
        self.watchdog: Optional[ReplayWatchdog] = None
        # Live cluster view, populated only when the telemetry config
        # asks for streaming (stream_period set); None otherwise so the
        # run stays byte-identical to a telemetry-free one.
        self.cluster: Optional[ClusterAggregator] = (
            _make_aggregator(tconfig) if tconfig is not None else None)
        self._recovery = recovery
        self._tconfig = tconfig
        self._ctx = _mp_context(start_method)
        # role -> slots (handles by worker id), in merge order.
        self._tiers: Dict[int, List[_WorkerHandle]] = {}
        self._lock = threading.Lock()
        # Notified (under _lock) whenever a reader folds a frame in or a
        # worker's fate changes, so every wait wakes on progress instead
        # of polling.
        self._progress = threading.Condition(self._lock)
        # Recovery mode of the tree: CHECKPOINT / RESULT frames land
        # here and the merge is exactly-once over it.
        self._store: Optional[CheckpointStore] = None
        self._assigner: StickyAssigner = StickyAssigner([], allow_empty=True)
        self._control_addr: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._processes: List = []
        self._pending_processes: Dict[Tuple[int, int, int], object] = {}
        self._respawn_counts: Dict[Tuple[int, int], int] = {}
        self._respawning: Set[Tuple[int, int]] = set()
        self._respawns_total = 0
        self._retired_handles: List[_WorkerHandle] = []
        # Set once worker death stops being recoverable work loss: no
        # more respawns, the accept loop ends, EOFs are not crashes.
        self._closing = threading.Event()
        self._deadline_hit = False

    def _handles(self) -> List[_WorkerHandle]:
        return [handle for slots in self._tiers.values() for handle in slots]

    def _worker_argv(self, role: int, worker_id: int, incarnation: int,
                     listen_port: int) -> Tuple[object, tuple]:
        """``(target, args)`` of one worker process."""
        raise NotImplementedError

    def _resync(self, handle: _WorkerHandle) -> None:
        """A respawned worker took over its slot: bring it up to date."""

    # -- supervision callbacks --------------------------------------------

    def _handle_stall(self, handle: _WorkerHandle) -> None:
        """Watchdog verdict: dead or wedged.  Make death unambiguous
        (terminate a wedged process) and close the control link so the
        reader exits into ``_maybe_respawn``, which alone decides
        between a respawn and a failed handle."""
        with self._lock:
            self.result.watchdog_stalls += 1
        if handle.is_alive():
            handle.process.terminate()
        handle.control.close()

    def _handle_deadline(self) -> None:
        """Propagate the wall-clock budget down the tree as SHUTDOWN."""
        self._deadline_hit = True
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

        Every handle gets its reader thread.  Without recovery the
        listener is closed; with it the accept loop keeps it open so
        respawned and re-dialing workers can HELLO back in.
        """
        recovery = self._recovery
        hello_timeout = (_SETUP_TIMEOUT if recovery is None
                         else recovery.hello_timeout)
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(sum(count for _role, count in tiers) + 4)
            listener.settimeout(hello_timeout)
            self._control_addr = listener.getsockname()
            for role, count in tiers:
                started = [self._worker_process(role, worker_id)
                           for worker_id in range(count)]
                self._processes.extend(started)
                for process in started:
                    process.start()
                by_id: Dict[int, _WorkerHandle] = {}
                for _ in range(count):
                    handle = _accept_hello(listener, role, hello_timeout)
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
        if recovery is None:
            listener.close()
            return
        # Short accept timeout from here on: the accept loop must wake
        # often enough to notice shutdown.
        listener.settimeout(0.25)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="replay-recovery-accept")
        self._accept_thread.start()

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
            if kind == MSG_RESULT and self._store is None:
                payload = ReplayResult.from_dict(payload)
            with self._progress:
                if kind == MSG_CHECKPOINT and self._store is not None:
                    self._store.offer_frame(key, payload)
                elif kind == MSG_RESULT and self._store is not None:
                    # The store keeps the entries; the handle only
                    # needs to read as reported.  The final RESULT is
                    # cumulative and its header outranks every
                    # checkpoint of the same incarnation, whatever the
                    # arrival order.
                    handle.shard = _DRAINED
                    self._store.offer(key, handle.incarnation, 0,
                                      payload, final=True)
                elif kind == MSG_RESULT:
                    handle.shard = payload
                elif kind == MSG_METRICS:
                    handle.metrics_state = payload
                self._progress.notify_all()
        # Reader gone: either this socket was replaced by a reconnect
        # (handle.control moved on — not our problem) or the worker
        # died and _maybe_respawn settles its fate.
        if handle.control is control:
            self._maybe_respawn(handle)

    # -- adoption / respawn (live while recovery is configured) ------------

    def _accept_loop(self) -> None:
        while not self._closing.is_set():
            try:
                newcomer = _accept_hello(self._listener, None,
                                         self._recovery.hello_timeout)
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
                handle = newcomer
                if self.watchdog is not None:
                    self.watchdog.add_subject(newcomer)
            else:
                newcomer.control.close()
                return
            self._progress.notify_all()
        if handle is newcomer:
            self._resync(newcomer)
        self._start_reader(handle)

    def _take_respawn(self, key: Tuple[int, int]) -> Optional[int]:
        """Book one respawn of worker ``key`` against the budget: its
        attempt number, or None when recovery is off or the budget is
        spent.  Call with the lock held."""
        recovery = self._recovery
        attempts = self._respawn_counts.get(key, 0)
        if (recovery is None
                or attempts >= recovery.respawn.max_per_worker
                or self._respawns_total >= recovery.respawn.max_total):
            return None
        self._respawn_counts[key] = attempts + 1
        self._respawns_total += 1
        self.result.respawns += 1
        return attempts

    def _maybe_respawn(self, handle: _WorkerHandle) -> None:
        """A worker's control link died.  Once the process is seen dead
        with its report outstanding the handle is failed; it is
        respawned when recovery is on and the budget allows."""
        if handle.process is not None:
            handle.process.join(timeout=1.5)
            if handle.process.is_alive():
                # Live worker with a dropped socket: in recovery mode it
                # re-dials; otherwise the collection clock rules.
                return
        key = (handle.role, handle.worker_id)
        with self._lock:
            if handle.failed or handle.shard is not None:
                return
            handle.failed = True
            self._progress.notify_all()
            if self._closing.is_set():
                return   # winding down: nothing left to lose or recover
            attempt = self._take_respawn(key)
            if attempt is None:
                self.result.watchdog_stalls += 1
            else:
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
        recovery = self._recovery
        key = (handle.role, handle.worker_id)
        incarnation = handle.incarnation
        try:
            while not self._closing.is_set():
                incarnation += 1
                time.sleep(recovery.respawn.backoff(attempt))
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
                hello_deadline = time.monotonic() + recovery.hello_timeout
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
                    attempt = self._take_respawn(key)
                    if attempt is None:
                        self.result.watchdog_stalls += 1
                        return
        finally:
            with self._progress:
                self._respawning.discard(key)
                self._progress.notify_all()

    # -- collect / merge / teardown ----------------------------------------

    def _await_reports(self, cap: Optional[float] = None,
                       floor: Optional[float] = None,
                       grace: Optional[float] = None) -> None:
        """The one completion wait: sleep on ``_progress`` until every
        worker has its RESULT + METRICS pair or is failed.

        A live, unreported worker is given up on (failed) at ``cap``, an
        absolute monotonic time.  With ``grace`` the clock is event-
        driven instead: it is armed only once every distributor has
        reported or failed — the stream upstream of the queriers has
        ended — and then runs to ``max(floor, that moment) + grace``
        (still never past ``cap``).  So no clock derived from trace
        timestamps declares a worker lost while its upstream is still
        producing; a flood's duration is zero, its wall time is not.
        """
        upstream_at: Optional[float] = None
        with self._progress:
            while True:
                waiting = []
                for handle in self._handles():
                    # RESULT and METRICS travel as a pair; waking on the
                    # first must not leave the second unread.
                    if (handle.shard is not None
                            and handle.metrics_state is not None):
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
                deadline = cap
                if grace is not None:
                    if upstream_at is None and not any(
                            handle.role == ROLE_DISTRIBUTOR
                            for handle in waiting):
                        upstream_at = now
                    if upstream_at is not None:
                        clock = max(floor, upstream_at) + grace
                        deadline = clock if cap is None else min(clock, cap)
                if deadline is not None and now >= deadline:
                    for handle in waiting:
                        handle.failed = True
                    return
                # Bounded: a worker dying after its reader left
                # notifies nobody.
                self._progress.wait(
                    1.0 if deadline is None else min(1.0, deadline - now))

    def _merge(self, workers_counter: str) -> int:
        """The one merge: every worker's report into ``result`` and
        ``metrics``, in slot order.  Returns the number of lost shards."""
        # Collection is over: nothing may change a worker's fate, or
        # self.result, behind the merge's back.
        self._closing.set()
        if self.watchdog is not None:
            self.watchdog.stop()
            self.watchdog.join(timeout=1.0)
        handles = self._handles()
        if self._store is not None:
            # Exactly-once over the store instead of the re-indexing
            # ReplayResult.merge; then the controller-side accounting
            # (respawns, redelivery, shedding, failover) that accrued on
            # self.result during the run.
            with self._lock:
                snapshots = self._store.snapshots()
            merged = merge_recovered(snapshots, name=self.result.name)
            for counter in _COUNTER_FIELDS:
                setattr(merged, counter, getattr(merged, counter)
                        + getattr(self.result, counter))
            merged.trace_start = self.result.trace_start
            if self.result.start_clock is not None:
                merged.start_clock = self.result.start_clock \
                    if merged.start_clock is None \
                    else min(merged.start_clock, self.result.start_clock)
            self.result = merged
        lost = 0
        for handle in handles:
            if handle.shard is None:
                lost += 1
            elif handle.shard is not _DRAINED:
                self.result.merge(handle.shard)
        for handle in handles + self._retired_handles:
            if handle.metrics_state is not None:
                self.metrics.merge_state(handle.metrics_state)
        if lost:
            self.metrics.incr("multiproc.lost_shards", lost)
        self.metrics.incr(workers_counter, len(handles))
        if self._respawns_total:
            self.metrics.incr("multiproc.respawns", self._respawns_total)
        return lost

    def _teardown(self) -> None:
        """The one teardown: SHUTDOWN, close, reap."""
        if self._listener is not None:
            self._listener.close()
            self._accept_thread.join(timeout=2.0)
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
        super().__init__(
            ReplayResult("distributed-process",
                         aggregate=self.config.aggregate_results),
            self.config.recovery, tconfig, self.config.start_method)
        self.distributor_handles: List[_WorkerHandle] = []
        self.querier_handles: List[_WorkerHandle] = []
        # Merge order: queriers in id order, then the distributors'
        # routing counters.
        self._tiers = {ROLE_QUERIER: self.querier_handles,
                       ROLE_DISTRIBUTOR: self.distributor_handles}
        # Distributor i's extra argv: empty, or what it self-sources in
        # a shard-file run (path, read-ahead, pacing).
        self._source_args = lambda index: ()

    def server_for(self, querier_id: int) -> ServerAddress:
        return self.servers[querier_id % len(self.servers)]

    def _worker_argv(self, role: int, worker_id: int, incarnation: int,
                     listen_port: int) -> Tuple[object, tuple]:
        config = self.config
        if role == ROLE_DISTRIBUTOR:
            return _distributor_main, (
                self._control_addr, worker_id,
                config.queriers_per_distributor, config.recovery,
                incarnation, listen_port, self._tconfig,
                *self._source_args(worker_id))
        distributor = self.distributor_handles[
            worker_id // config.queriers_per_distributor]
        deadline = (config.supervision.deadline
                    if config.supervision is not None else None)
        return _querier_main, (
            self._control_addr, worker_id,
            ("127.0.0.1", distributor.listen_port),
            self.server_for(worker_id), deadline, config.recovery,
            incarnation, self._tconfig,
            self.result.aggregate and config.recovery is None)

    def _resync(self, handle: _WorkerHandle) -> None:
        """Bring a distributor, first incarnation or respawned, into the
        run: chaos on its record stream, the anchor, a place in routing."""
        if handle.role != ROLE_DISTRIBUTOR:
            return
        recovery = self.config.recovery
        # Controller-side chaos acts on the record stream to the
        # distributors; the controller itself never crash-faults.
        attach_chaos(handle.control, recovery.chaos if recovery else None,
                     handle.role, handle.worker_id, handle.incarnation,
                     controller_side=True)
        try:
            handle.control.send_time_sync(self.result.trace_start)
        except OSError:
            pass   # dead already: surfaces as a lost shard / respawn
        self._assigner.add(handle)

    # -- the runs ----------------------------------------------------------

    def replay(self, trace: Trace) -> ReplayResult:
        """Replay an in-memory trace: records cross the control links,
        as RECORD frames, or as RECORD_SEQ when ``config.recovery`` is
        set (every send attributable to a global trace index; END
        withheld until the checkpoint store accounts for every index;
        exactly-once merge)."""
        records = sorted(trace.records, key=lambda r: r.timestamp)
        if not records:
            return self.result
        return self._run(self.config.distributors, records[0].timestamp,
                         records[-1].timestamp - records[0].timestamp,
                         records)

    def replay_shard_files(self, directory: str, read_ahead: int = 2048,
                           pace_lead: float = 2.0) -> ReplayResult:
        """Replay a shard-file set at constant memory (the 10⁸ path).

        The trace must already be split sticky-by-source into chunked
        binary shard files (:func:`repro.trace.stream.split_shards`);
        this controller reads only the ``manifest.json`` sidecar — it
        never touches a record.  One distributor process is spawned per
        shard file (``config.distributors`` is ignored) and self-sources
        it lazily with ``read_ahead`` records of decode-ahead, pacing
        routing ``pace_lead`` seconds ahead of the replay clock so no
        tier ever buffers the trace.  The control links carry only
        TIME_SYNC and END.  Queriers account in aggregate mode, so
        RESULT frames stay a few KB at any scale.
        """
        if self.config.recovery is not None:
            raise ValueError(
                "shard-file streaming does not support recovery mode")
        manifest = read_manifest(directory)
        self.result = ReplayResult("distributed-process", aggregate=True)
        if not manifest["total_records"]:
            return self.result
        self._source_args = lambda index: (
            shard_path(directory, index, manifest), read_ahead, pace_lead)
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
        the tree busy after its first record is due."""
        config = self.config
        recovery = config.recovery
        span += config.start_delay
        # The trace time of the anchor, which is what TIME_SYNC carries:
        # the first record is due start_delay after the zero point, as
        # in SimReplayEngine.  Set before any worker exists: _resync
        # may need it early.
        self.result.trace_start = trace_start - config.start_delay
        if recovery is not None:
            self._store = CheckpointStore()
        self._spawn_tree([
            (ROLE_DISTRIBUTOR, num_distributors),
            (ROLE_QUERIER,
             num_distributors * config.queriers_per_distributor)])
        if config.supervision is not None:
            self.watchdog = ReplayWatchdog(
                config.supervision, self._handles(),
                on_stall=self._handle_stall,
                on_deadline=self._handle_deadline)
            self.watchdog.start()
        self._anchor()
        streamed = self._stream(records)

        if recovery is not None:
            # Exactly-once drain: withhold END until the checkpoint
            # store accounts for every streamed index.
            cap = time.monotonic() + span + config.settle_time \
                + recovery.collect_timeout
            if not self._deadline_hit:
                self._drain_exactly_once(records, streamed, cap)
            # From here on worker death is no longer recoverable work
            # loss (everything is checkpointed), so stop respawning and
            # let the tree wind down.
            self._closing.set()
        for handle in self.distributor_handles:
            try:
                handle.control.send_end()   # behind the last record block
            except OSError:
                pass

        # Collect: every worker reports RESULT + METRICS when done.
        if recovery is not None:
            self._await_reports(
                min(cap, time.monotonic() + config.settle_time + 8.0))
        else:
            supervision = config.supervision
            cap = None
            if supervision is not None and supervision.deadline is not None:
                # The user's wall-clock budget, and the only one.
                cap = self.result.start_clock + supervision.deadline \
                    + supervision.stall_timeout + _COLLECT_SLACK
            self._await_reports(cap, self.result.start_clock + span,
                                config.settle_time + _COLLECT_SLACK)

        self._merge("multiproc.workers")
        if isinstance(self.telemetry, Telemetry):
            # Per-query tracing cannot cross the process boundary; the
            # merged counter/histogram snapshots are the process-mode
            # telemetry surface.  A bare TelemetryConfig has no registry
            # to fold into.
            self.telemetry.metrics.merge(self.metrics)
        self._teardown()
        return self.result

    def _anchor(self) -> None:
        """Take the run's zero point and broadcast it as TIME_SYNC."""
        self.result.start_clock = time.monotonic()
        if self.cluster is not None:
            self.cluster.set_anchor(self.result.start_clock)
        for handle in self.distributor_handles:
            self._resync(handle)

    def _stream(self, records: Sequence) -> int:
        """Reader + Postman: shard the records sticky-by-source over the
        distributors, tagged with their global trace index when a store
        accounts for them.  Returns how many were handed to the tree."""
        sequenced = self._store is not None
        streamed = 0
        for index, record in enumerate(records):
            if self._deadline_hit:
                # Stop feeding the tree; everything not yet streamed is
                # shed here (queued records shed inside the queriers).
                self.result.deadline_shed += len(records) - streamed
                break
            self._send_record(index if sequenced else None, record)
            streamed += 1
        self._flush_records()
        return streamed

    def _send_record(self, index: Optional[int], record) -> None:
        """Route one record to its sticky distributor — RECORD when
        ``index`` is None, RECORD_SEQ otherwise — failing a dead
        distributor's sources over to the next live one."""
        while self._assigner.entities:
            handle = self._assigner.assign(record.src)
            try:
                if index is None:
                    handle.control.write_record(record)
                else:
                    handle.control.write_record_seq(index, record)
                return
            except OSError:   # distributor died: fail its sources over
                self._assigner.remove(handle)
                with self._lock:
                    self.result.reassigned_queries += 1
        with self._lock:
            self.result.send_failures += 1

    def _flush_records(self) -> None:
        """Write out the buffered record blocks before waiting.  What a
        dead link's block held comes back, in recovery mode, as missing
        indices in the next redelivery round."""
        for handle in self._assigner.entities:
            try:
                handle.control.flush()
            except OSError:
                self._assigner.remove(handle)

    # -- exactly-once drain (recovery mode) --------------------------------

    def _drain_exactly_once(self, records, streamed: int,
                            drain_deadline: float) -> None:
        """Wait until the store covers every streamed index,
        re-streaming lost records in bounded redelivery rounds."""
        recovery = self.config.recovery
        store = self._store
        rounds = 0
        last_seen = None
        last_progress = time.monotonic()
        while time.monotonic() < drain_deadline:
            with self._progress:
                # Done when every index has a recorded send and none of
                # them is an unanswered send stranded in a dead
                # incarnation (those get one more chance below).
                if store.covers(streamed) \
                        and not self._stale_unanswered(streamed):
                    return
                now = time.monotonic()
                seen = store.progress()
                if seen != last_seen:
                    last_seen = seen
                    last_progress = now
                quiet = now - last_progress
                if quiet < recovery.redelivery_grace:
                    self._progress.wait(
                        min(recovery.redelivery_grace - quiet,
                            max(drain_deadline - now, 0.0)))
                    continue
                live_queriers = any(h.is_alive() and not h.failed
                                    for h in self.querier_handles)
                if not self._assigner.entities or not live_queriers:
                    # No live routing path: a respawn is (hopefully) in
                    # flight — don't burn redelivery rounds into the void.
                    self._progress.wait(0.05)
                    continue
                if rounds >= recovery.redelivery_rounds:
                    return
                redeliver = sorted(set(store.missing(streamed))
                                   | self._stale_unanswered(streamed))
            rounds += 1
            for index in redeliver:
                self._send_record(index, records[index])
            self._flush_records()
            with self._lock:
                self.result.redelivered_records += len(redeliver)
            last_progress = time.monotonic()

    def _stale_unanswered(self, streamed: int) -> set:
        """Indices whose only sends belong to dead incarnations and
        were never answered — rescue candidates for redelivery.
        Call with the lock held."""
        live_keys = [((h.role, h.worker_id), h.incarnation)
                     for h in self.querier_handles
                     if h.is_alive() and not h.failed]
        return {index for index in self._store.stale_unanswered(live_keys)
                if index < streamed}


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

    Recovery: a shard's replay is deterministic for its slice, so a
    respawned incarnation (``_maybe_respawn``, the tree's path) redoes
    the whole slice and its RESULT simply replaces the one the dead
    incarnation never sent — no partial state to reconcile.

    Determinism: the merged :class:`ReplayResult` is the union of the
    per-shard results merged in shard-id order, and each shard's result
    depends only on its own slice (sticky-by-source partitioning, one
    closed world per shard) — so the aggregate is independent of how the
    OS schedules the workers.  ``tests/test_shard_differential.py``
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
        self.start_method = start_method
        self.collect_timeout = collect_timeout
        self.recovery = recovery
        self.telemetry_config = (
            telemetry_config if _streaming(telemetry_config) else None)
        super().__init__(ReplayResult("sharded-replay"), recovery,
                         self.telemetry_config, start_method)
        self.shard_handles: List[_WorkerHandle] = []
        self._tiers = {ROLE_SHARD: self.shard_handles}
        self.wall_s: Optional[float] = None     # controller wall clock
        self.shard_walls: List[Optional[float]] = []
        self.lost_shards = 0
        self.respawns = 0

    def _worker_argv(self, role: int, worker_id: int, incarnation: int,
                     listen_port: int) -> Tuple[object, tuple]:
        return _shard_main, (
            self._control_addr, worker_id, self.num_shards,
            self.trace_factory, self.scenario_factory, self.recovery,
            incarnation, self.telemetry_config)

    def replay(self) -> ReplayResult:
        started = time.perf_counter()
        self._spawn_tree([(ROLE_SHARD, self.num_shards)])
        self._await_reports(time.monotonic() + self.collect_timeout)
        self.wall_s = time.perf_counter() - started
        self.lost_shards = self._merge("multiproc.shards")
        self.respawns = self._respawns_total
        self.shard_walls = [
            (handle.metrics_state or {}).get("gauges", {}).get(
                f"shard.{handle.worker_id}.wall_s")
            for handle in self.shard_handles]
        self._teardown()
        return self.result

    def aggregate_qps(self) -> Optional[float]:
        """Aggregate queries/second over the controller's wall clock.

        Conservative: the denominator includes process spawn, trace
        regeneration, and collection, not just the replay loops.
        """
        if not self.wall_s or not self.result.sent:
            return None
        return len(self.result.sent) / self.wall_s
