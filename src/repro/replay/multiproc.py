"""Multi-process replay: the paper's real deployment topology (§3).

LDplayer runs the controller → distributor → querier tree as real OS
processes spread over client machines; one Python process running the
tree as threads (the ``topology="threads"`` default in
:mod:`repro.replay.distributed`) caps the aggregate query rate at one
core because of the GIL.  This module launches the same tree as real
**worker processes** on one host, connected by the same TCP
:class:`~repro.replay.protocol.MessageSocket` framing — the protocol
already crosses process boundaries by construction, so the tiers
themselves (:class:`_LiveDistributor`, :class:`_LiveQuerier`) run
unmodified inside the workers.

Life of a run:

1. the controller binds a loopback control listener and spawns one
   process per distributor; each distributor binds its own querier
   listener and reports the port in a HELLO frame;
2. the controller spawns one process per querier, wired to its
   distributor's port; queriers HELLO back over the control channel;
3. the trace is streamed exactly as in thread mode — time-sync first,
   then records sharded sticky-by-source over the distributors, each of
   which re-shards sticky-by-source over its queriers;
4. when a querier finishes (END received, queue drained, settle
   elapsed) it serializes its local :class:`ReplayResult` shard and
   :class:`MetricsRegistry` snapshot back over the control channel
   (RESULT + METRICS frames); distributors do the same for their
   routing counters;
5. the controller merges every shard (``ReplayResult.merge``) and every
   metrics snapshot (``MetricsRegistry.merge_state``) into one
   aggregate, sends SHUTDOWN, and reaps the processes.

Supervision: each worker is watched through a :class:`_WorkerHandle`
(``is_alive`` = the OS process) by the same
:class:`~repro.replay.supervision.ReplayWatchdog`; a dead process with
its shard outstanding is flagged immediately, its routes fail over via
``StickyAssigner.remove`` (the distributor's broken-pipe path), and the
collection phase skips it instead of hanging.  A wall-clock deadline
propagates as SHUTDOWN frames down the tree so queriers shed their
queues and report truthful ``deadline_shed`` counts.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import socket
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

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


def _await_shutdown(control: MessageSocket, timeout: float = 10.0) -> None:
    """Block until the controller says SHUTDOWN (or gives up)."""
    control.settimeout(timeout)
    try:
        while True:
            message = control.receive()
            if message is None or message[0] == MSG_SHUTDOWN:
                return
    except (ProtocolError, OSError):
        return


# ---------------------------------------------------------------------------
# Worker process entry points (top-level: importable under spawn)
# ---------------------------------------------------------------------------

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
    control = connect(control_addr)
    attach_chaos(control, recovery.chaos if recovery else None,
                 ROLE_DISTRIBUTOR, distributor_id, incarnation)
    control.send_hello(ROLE_DISTRIBUTOR, distributor_id,
                       listener.getsockname()[1], incarnation)
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
        return registry.to_state()

    streamer: Optional[TelemetryStreamer] = None
    if _streaming(telemetry):
        streamer = TelemetryStreamer(
            control.send_telemetry, ROLE_DISTRIBUTOR, distributor_id,
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
    if streamer is not None:
        # The definitive frame: cumulative metrics are frozen now, so
        # this matches the METRICS sent below.  The periodic loop keeps
        # reporting health while we wait out the controller's SHUTDOWN.
        streamer.flush(final=True)

    try:
        control.send_result(result.to_dict())
        control.send_metrics(metrics_snapshot())
        _await_shutdown(control)
    except OSError:
        pass
    if streamer is not None:
        streamer.stop(final=False)
    for outbound in distributor.querier_sockets:
        outbound.close()
    control.close()


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


class _CheckpointPump:
    """Sequence-numbered checkpoint emitter with control-link self-heal.

    Owns the querier's control socket: checkpoints and the final
    RESULT/METRICS pair all flow through it, and a broken link is
    re-dialed (connect + re-HELLO with the same incarnation) with
    backoff before any frame is declared lost.
    """

    def __init__(self, control: MessageSocket,
                 control_addr: Tuple[str, int], querier_id: int,
                 incarnation: int, recovery: RecoveryConfig):
        self.control = control
        self._control_addr = control_addr
        self._querier_id = querier_id
        self._incarnation = incarnation
        self._recovery = recovery
        self._seq = 0
        self._broken = False

    def _redial(self) -> bool:
        def factory() -> MessageSocket:
            replacement = connect(self._control_addr, timeout=2.0)
            attach_chaos(replacement, self._recovery.chaos, ROLE_QUERIER,
                         self._querier_id, self._incarnation)
            replacement.send_hello(ROLE_QUERIER, self._querier_id, 0,
                                   self._incarnation)
            return replacement
        replacement = reconnect_with_backoff(
            factory, self._recovery.reconnect_attempts,
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
            self._querier_id, self._incarnation, seq, delta))

    def send_final(self, result: dict, metrics: dict) -> None:
        self._deliver(lambda: self.control.send_result(result))
        self._deliver(lambda: self.control.send_metrics(metrics))


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
    control = connect(control_addr)
    attach_chaos(control, recovery.chaos if recovery else None,
                 ROLE_QUERIER, querier_id, incarnation)
    control.send_hello(ROLE_QUERIER, querier_id, 0, incarnation)
    inbound = connect(distributor_addr)
    result = ReplayResult(f"querier-{querier_id}", aggregate=aggregate)
    querier = _LiveQuerier(querier_id, inbound, tuple(server), result,
                           threading.Lock())
    # The controller cannot flip this worker's shed_event across the
    # process boundary once the record stream has ended, so the
    # wall-clock budget is enforced locally, anchored at TIME_SYNC —
    # the same zero point thread-mode deadlines use.
    querier.deadline = deadline
    pump: Optional[_CheckpointPump] = None
    if recovery is not None:
        pump = _CheckpointPump(control, control_addr, querier_id,
                               incarnation, recovery)
        querier.checkpoint_policy = recovery.checkpoint
        querier.checkpoint_sink = pump
        querier.reconnect = lambda: reconnect_with_backoff(
            lambda: connect(distributor_addr, timeout=1.0),
            recovery.reconnect_attempts, recovery.reconnect_backoff,
            abort=querier.shed_event.is_set)

    def metrics_snapshot() -> dict:
        registry = MetricsRegistry()
        registry.incr("replay.records_received", querier.records_received)
        registry.incr("replay.records_sent", querier.records_sent)
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
        # The pump may replace its control socket on redial; resolve
        # the live socket at send time so streamed frames follow it.
        if pump is not None:
            send = lambda report: pump.control.send_telemetry(report)
        else:
            send = control.send_telemetry
        streamer = TelemetryStreamer(
            send, ROLE_QUERIER, querier_id, incarnation,
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
    if streamer is not None:
        recorder.log(f"querier-{querier_id} inc{incarnation} replay done")
        # Definitive frame (cumulative metrics frozen); the periodic
        # loop keeps the health view live until SHUTDOWN arrives.
        streamer.flush(final=True)

    metrics_state = metrics_snapshot()
    if pump is not None:
        pump.send_final(result.to_dict(), metrics_state)
        _await_shutdown(pump.control)
        if streamer is not None:
            streamer.stop(final=False)
        pump.control.close()
        return
    try:
        control.send_result(result.to_dict())
        control.send_metrics(metrics_state)
        _await_shutdown(control)
    except OSError:
        pass
    if streamer is not None:
        streamer.stop(final=False)
    control.close()


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
    control = connect(control_addr)
    attach_chaos(control, recovery.chaos if recovery else None,
                 ROLE_SHARD, shard_index, incarnation)
    control.send_hello(ROLE_SHARD, shard_index, 0, incarnation)
    perf = PerfCounters()
    streamer: Optional[TelemetryStreamer] = None
    if _streaming(telemetry):
        # Shards never see TIME_SYNC, so no sync_mono: the aggregator
        # falls back to min-skew alignment.  Spans are omitted — shard
        # timestamps are sim-clock, not monotonic, and cannot rebase.
        streamer = TelemetryStreamer(
            control.send_telemetry, ROLE_SHARD, shard_index, incarnation,
            telemetry.stream_period, metrics_snapshot=perf.to_state)
        streamer.start()
    try:
        trace = _resolve_factory(trace_spec)(**trace_spec[2])
        slice_ = shard_slice(trace, shard_index, num_shards)
        engine = _resolve_factory(scenario_spec)(perf=perf,
                                                 **scenario_spec[2])
        started = time.perf_counter()
        result = engine.replay(slice_)
        wall = time.perf_counter() - started
        result.name = f"shard-{shard_index}"
        perf.incr("shard.records", len(slice_.records))
        perf.set_gauge(f"shard.{shard_index}.wall_s", wall)
        perf.set_gauge(f"shard.{shard_index}.qps",
                       len(slice_.records) / wall if wall > 0 else 0.0)
        if streamer is not None:
            streamer.stop(final=True)
            streamer = None
        control.send_result(result.to_dict())
        control.send_metrics(perf.to_state())
        _await_shutdown(control)
    except OSError:
        pass
    finally:
        if streamer is not None:
            streamer.stop(final=False)
        control.close()


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
    bottleneck; an echo server thread inside the controller process
    would share the GIL with the threaded topology and starve it.  One
    of these per querier keeps the server side out of the measurement.
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

# Stands in for a shard already folded into the controller result
# (streaming merge): non-None, so has_work()/collection see the worker
# as reported, without keeping the per-worker frame alive.
_DRAINED = ReplayResult("drained", aggregate=True)


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
        kind = {ROLE_DISTRIBUTOR: "distributor",
                ROLE_QUERIER: "querier",
                ROLE_SHARD: "shard"}.get(self.role, f"role{self.role}")
        return f"{kind}-{self.worker_id}"


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


class ProcessTopology:
    """The controller of the multi-process replay tree.

    Usually reached through
    ``LiveDistributedReplay(server, DistributedConfig(
    topology="processes"))``; instantiating it directly is equivalent.
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
        self.result = ReplayResult(
            "distributed-process", aggregate=self.config.aggregate_results)
        # Cross-process telemetry: per-worker MetricsRegistry snapshots
        # merged into one registry (and into the telemetry hub's, when
        # one is attached).
        self.metrics = MetricsRegistry()
        self.watchdog: Optional[ReplayWatchdog] = None
        self.distributor_handles: List[_WorkerHandle] = []
        self.querier_handles: List[_WorkerHandle] = []
        # Live cluster view, populated only when the telemetry config
        # asks for streaming (stream_period set); None otherwise so the
        # classic path stays byte-identical to a telemetry-free run.
        self.cluster: Optional[ClusterAggregator] = None
        self._deadline_hit = False
        self._lock = threading.Lock()
        # Recovery mode: notified (under _lock) whenever a reader folds
        # a frame in or a worker's fate changes, so the drain wakes on
        # progress instead of polling.
        self._progress = threading.Condition(self._lock)

    def server_for(self, querier_id: int) -> ServerAddress:
        return self.servers[querier_id % len(self.servers)]

    def _stream_config(self) -> Optional[TelemetryConfig]:
        """The TelemetryConfig to ship to workers, or None when the run
        must be observation-free (the differential guarantee: workers
        only ever learn about telemetry when streaming is on)."""
        config = getattr(self.telemetry, "config", self.telemetry)
        if isinstance(config, TelemetryConfig) and config.streaming():
            return config
        return None

    # -- supervision callbacks --------------------------------------------

    def _handle_stall(self, handle: _WorkerHandle) -> None:
        """A worker process died with its shard outstanding.

        Mark it failed so collection skips it; its sticky routes already
        fail over inside the tree (broken pipe → StickyAssigner.remove).
        """
        with self._lock:
            handle.failed = True
            self.result.watchdog_stalls += 1
        if self.cluster is not None:
            self.cluster.record_crash(handle.role, handle.worker_id,
                                      handle.incarnation,
                                      reason="watchdog stall")
        handle.control.close()

    def _handle_deadline(self) -> None:
        """Propagate the wall-clock budget down the tree as SHUTDOWN."""
        self._deadline_hit = True
        for handle in self.distributor_handles:
            try:
                handle.control.send_shutdown()
            except OSError:
                pass

    # -- setup helpers -----------------------------------------------------

    def _accept_hello(self, listener: socket.socket,
                      expected_role: int) -> _WorkerHandle:
        return _accept_hello(listener, expected_role)

    def _spawn_tree(self, num_distributors: int,
                    distributor_extra=None,
                    aggregate: bool = False) -> List:
        """Spawn distributors + queriers and HELLO them in.

        ``distributor_extra(i)`` appends streaming arguments (shard
        file path, read-ahead, pacing) to distributor *i*'s argv;
        ``aggregate`` switches the queriers to O(1) result accounting.
        Returns the process list (distributors first, queriers after).
        """
        config = self.config
        tconfig = self._stream_config()
        if tconfig is not None:
            self.cluster = _make_aggregator(tconfig)
        ctx = _mp_context(config.start_method)
        querier_total = (num_distributors
                         * config.queriers_per_distributor)
        processes = []
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(num_distributors + querier_total)
            listener.settimeout(_SETUP_TIMEOUT)
            control_addr = listener.getsockname()

            # Tier 1: distributor processes; HELLO carries each one's
            # querier-listener port.
            for distributor_id in range(num_distributors):
                args = (control_addr, distributor_id,
                        config.queriers_per_distributor,
                        None, 0, 0, tconfig)
                if distributor_extra is not None:
                    args = args + tuple(distributor_extra(distributor_id))
                process = ctx.Process(
                    target=_distributor_main, args=args,
                    daemon=True, name=f"replay-distributor-{distributor_id}")
                process.start()
                processes.append(process)
            by_id: Dict[int, _WorkerHandle] = {}
            for _ in range(num_distributors):
                handle = self._accept_hello(listener, ROLE_DISTRIBUTOR)
                handle.process = processes[handle.worker_id]
                by_id[handle.worker_id] = handle
            self.distributor_handles = [by_id[i]
                                        for i in range(num_distributors)]

            # Tier 2: querier processes, each wired to its distributor.
            deadline = (config.supervision.deadline
                        if config.supervision is not None else None)
            for querier_id in range(querier_total):
                distributor_id = (querier_id
                                  // config.queriers_per_distributor)
                distributor_port = \
                    self.distributor_handles[distributor_id].listen_port
                process = ctx.Process(
                    target=_querier_main,
                    args=(control_addr, querier_id,
                          ("127.0.0.1", distributor_port),
                          self.server_for(querier_id), deadline,
                          None, 0, tconfig, aggregate),
                    daemon=True, name=f"replay-querier-{querier_id}")
                process.start()
                processes.append(process)
            by_id = {}
            for _ in range(querier_total):
                handle = self._accept_hello(listener, ROLE_QUERIER)
                handle.process = \
                    processes[num_distributors + handle.worker_id]
                by_id[handle.worker_id] = handle
            self.querier_handles = [by_id[i] for i in range(querier_total)]
        except Exception:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            raise
        finally:
            listener.close()
        return processes

    # -- the run -----------------------------------------------------------

    def replay(self, trace: Trace) -> ReplayResult:
        records = sorted(trace.records, key=lambda r: r.timestamp)
        if not records:
            return self.result
        if self.config.recovery is not None:
            return self._replay_recovering(records)
        config = self.config
        processes = self._spawn_tree(
            config.distributors, aggregate=config.aggregate_results)

        handles = self.querier_handles + self.distributor_handles
        if self.cluster is not None:
            # Streaming mode: frames arrive *during* the run, so every
            # handle gets a dedicated reader thread and collection
            # becomes a wait instead of a read (one reader per socket).
            for handle in handles:
                self._start_stream_reader(handle)
        if config.supervision is not None:
            self.watchdog = ReplayWatchdog(
                config.supervision, handles,
                on_stall=self._handle_stall,
                on_deadline=self._handle_deadline)
            self.watchdog.start()

        # Reader + Postman: time-sync broadcast, then the sharded stream.
        assigner = StickyAssigner(self.distributor_handles)
        trace_start = records[0].timestamp
        self.result.trace_start = trace_start
        time.sleep(config.start_delay)
        self.result.start_clock = time.monotonic()
        if self.cluster is not None:
            self.cluster.set_anchor(self.result.start_clock)
        for handle in self.distributor_handles:
            handle.control.send_time_sync(trace_start)
        streamed = 0
        for record in records:
            if self._deadline_hit:
                # Stop feeding the tree; everything not yet streamed is
                # shed here (queued records shed inside the queriers).
                self.result.deadline_shed += len(records) - streamed
                break
            while assigner.entities:
                handle = assigner.assign(record.src)
                try:
                    handle.control.write_record(record)
                    streamed += 1
                    break
                except OSError:   # distributor died: fail its sources over
                    assigner.remove(handle)
                    with self._lock:
                        self.result.reassigned_queries += 1
            else:
                with self._lock:
                    self.result.send_failures += 1
        for handle in self.distributor_handles:
            try:
                handle.control.send_end()   # behind the last record block
            except OSError:
                pass

        # Collection: every worker reports RESULT + METRICS when done.
        duration = records[-1].timestamp - trace_start
        deadline = time.monotonic() + duration \
            + config.settle_time + 10.0
        supervision = config.supervision
        if supervision is not None and supervision.deadline is not None:
            deadline = min(deadline, self.result.start_clock
                           + supervision.deadline
                           + supervision.stall_timeout + 10.0)
        for handle in handles:
            self._collect(handle, deadline)
        if self.watchdog is not None:
            self.watchdog.stop()
            self.watchdog.join(timeout=1.0)

        # Merge shards deterministically: queriers in id order, then
        # distributor routing counters.
        lost = 0
        for handle in handles:
            if handle.shard is not None:
                self.result.merge(handle.shard)
            else:
                lost += 1
            if handle.metrics_state is not None:
                self.metrics.merge_state(handle.metrics_state)
        if lost:
            self.metrics.incr("multiproc.lost_shards", lost)
        self.metrics.incr("multiproc.workers", len(handles))
        telemetry = self.telemetry
        if telemetry is not None:
            # Per-query tracing cannot cross the process boundary; the
            # merged counter/histogram snapshots are the process-mode
            # telemetry surface.
            telemetry.metrics.merge(self.metrics)

        # Teardown: SHUTDOWN, close, reap.
        for handle in handles:
            try:
                handle.control.send_shutdown()
            except OSError:
                pass
            handle.control.close()
        for process in processes:
            process.join(timeout=2.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        return self.result

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
        tier ever buffers the trace.  Queriers account in aggregate
        mode, so RESULT frames stay a few KB at any scale and are
        merged into the controller result the moment they arrive
        instead of being buffered per worker.
        """
        if self.config.recovery is not None:
            raise ValueError(
                "shard-file streaming does not support recovery mode")
        manifest = read_manifest(directory)
        num_shards = manifest["num_shards"]
        self.result = ReplayResult("distributed-process", aggregate=True)
        if not manifest["total_records"]:
            return self.result
        config = self.config

        def streaming_args(index: int):
            return (shard_path(directory, index, manifest),
                    read_ahead, pace_lead)

        processes = self._spawn_tree(num_shards,
                                     distributor_extra=streaming_args,
                                     aggregate=True)
        handles = self.querier_handles + self.distributor_handles
        if self.cluster is not None:
            for handle in handles:
                self._start_stream_reader(handle)
        if config.supervision is not None:
            self.watchdog = ReplayWatchdog(
                config.supervision, handles,
                on_stall=self._handle_stall,
                on_deadline=self._handle_deadline)
            self.watchdog.start()

        trace_start = manifest["first_timestamp"]
        self.result.trace_start = trace_start
        time.sleep(config.start_delay)
        self.result.start_clock = time.monotonic()
        if self.cluster is not None:
            self.cluster.set_anchor(self.result.start_clock)
        # The whole control stream: TIME_SYNC anchors the tree, END
        # closes it.  Records never cross these sockets — each
        # distributor reads its own shard file.  A dead distributor
        # surfaces through lost-shard accounting below.
        for handle in self.distributor_handles:
            try:
                handle.control.send_time_sync(trace_start)
                handle.control.send_end()
            except OSError:
                pass

        duration = manifest["last_timestamp"] - trace_start
        deadline = time.monotonic() + duration + pace_lead \
            + config.settle_time + 10.0
        supervision = config.supervision
        if supervision is not None and supervision.deadline is not None:
            deadline = min(deadline, self.result.start_clock
                           + supervision.deadline
                           + supervision.stall_timeout + 10.0)
        # Streaming merge: fold each worker's aggregate frame into the
        # controller result as it is collected, then drop it — the
        # controller holds O(1) state however many workers report.
        lost = 0
        for handle in handles:
            self._collect(handle, deadline)
            with self._lock:
                if handle.shard is not None:
                    self.result.merge(handle.shard)
                    handle.shard = _DRAINED
                else:
                    lost += 1
                if handle.metrics_state is not None:
                    self.metrics.merge_state(handle.metrics_state)
                    handle.metrics_state = {}
        if self.watchdog is not None:
            self.watchdog.stop()
            self.watchdog.join(timeout=1.0)
        if lost:
            self.metrics.incr("multiproc.lost_shards", lost)
        self.metrics.incr("multiproc.workers", len(handles))
        self.metrics.incr("multiproc.trace_records",
                          manifest["total_records"])
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.merge(self.metrics)

        for handle in handles:
            try:
                handle.control.send_shutdown()
            except OSError:
                pass
            handle.control.close()
        for process in processes:
            process.join(timeout=2.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        return self.result

    def _collect(self, handle: _WorkerHandle, deadline: float) -> None:
        if self.cluster is not None:
            self._await_worker(handle, deadline)
        else:
            _collect_worker(handle, deadline)

    # -- streaming-mode readers (classic path, cluster is not None) --------

    def _start_stream_reader(self, handle: _WorkerHandle) -> None:
        thread = threading.Thread(
            target=self._stream_reader, args=(handle, handle.control),
            daemon=True, name=f"stream-reader-{handle.name}")
        thread.start()

    def _stream_reader(self, handle: _WorkerHandle,
                       control: MessageSocket) -> None:
        """Per-worker reader: TELEMETRY feeds the aggregator live, the
        final RESULT/METRICS pair lands on the handle for collection."""
        while True:
            try:
                message = control.receive()
            except (ProtocolError, OSError):
                break
            if message is None:
                break
            kind, payload = message
            if kind == MSG_TELEMETRY:
                self.cluster.ingest(payload)
                continue
            with self._lock:
                if kind == MSG_RESULT:
                    handle.shard = ReplayResult.from_dict(payload)
                elif kind == MSG_METRICS:
                    handle.metrics_state = payload
        # Reader EOF with the shard outstanding: if the process is
        # really dead this is a crash — freeze its flight recorder.
        if handle.shard is not None:
            return
        process = handle.process
        if process is not None:
            process.join(timeout=1.0)
            if process.is_alive():
                return   # dropped socket on a live worker; deadline rules
        with self._lock:
            if handle.failed or handle.shard is not None:
                return
            handle.failed = True
        self.cluster.record_crash(handle.role, handle.worker_id,
                                  handle.incarnation)

    def _await_worker(self, handle: _WorkerHandle,
                      deadline: float) -> None:
        """Streaming-mode collection: the reader thread owns the socket,
        so wait for it to land the RESULT/METRICS pair (or fail)."""
        while time.monotonic() < deadline:
            with self._lock:
                if handle.failed or (handle.shard is not None
                                     and handle.metrics_state is not None):
                    return
            time.sleep(0.02)
        with self._lock:
            if handle.shard is None or handle.metrics_state is None:
                handle.failed = True

    # -- self-healing mode (config.recovery is set) ------------------------
    #
    # Differences from the classic run above: the control listener stays
    # open for the whole run so respawned/reconnecting workers can
    # re-HELLO; every worker gets a dedicated reader thread (CHECKPOINT
    # frames arrive *during* the replay, not just at collection);
    # records are streamed as RECORD_SEQ so every send is attributable
    # to a global trace index; END is withheld until the checkpoint
    # store accounts for every index (with bounded redelivery rounds
    # re-streaming lost ones); and the final merge is the exactly-once
    # merge_recovered over the store instead of the re-indexing
    # ReplayResult.merge.

    def _replay_recovering(self, records) -> ReplayResult:
        config = self.config
        recovery = config.recovery
        self._tconfig = self._stream_config()
        if self._tconfig is not None:
            self.cluster = _make_aggregator(self._tconfig)
        self._ctx = _mp_context(config.start_method)
        querier_total = (config.distributors
                         * config.queriers_per_distributor)
        self._store = CheckpointStore()
        self._processes: List = []
        self._pending_processes: Dict[Tuple[int, int, int], object] = {}
        self._respawn_counts: Dict[Tuple[int, int], int] = {}
        self._respawns_total = 0
        self._closing = threading.Event()
        self._retired_handles: List[_WorkerHandle] = []
        self._deadline_arg = (config.supervision.deadline
                              if config.supervision is not None else None)

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener = listener
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(config.distributors + querier_total + 4)
            listener.settimeout(recovery.hello_timeout)
            self._control_addr = listener.getsockname()

            for distributor_id in range(config.distributors):
                process = self._ctx.Process(
                    target=_distributor_main,
                    args=(self._control_addr, distributor_id,
                          config.queriers_per_distributor, recovery, 0, 0,
                          self._tconfig),
                    daemon=True, name=f"replay-distributor-{distributor_id}")
                process.start()
                self._processes.append(process)
            by_id: Dict[int, _WorkerHandle] = {}
            for _ in range(config.distributors):
                handle = _accept_hello(listener, ROLE_DISTRIBUTOR,
                                       recovery.hello_timeout)
                handle.process = self._processes[handle.worker_id]
                by_id[handle.worker_id] = handle
            self.distributor_handles = [by_id[i]
                                        for i in range(config.distributors)]

            for querier_id in range(querier_total):
                distributor_id = (querier_id
                                  // config.queriers_per_distributor)
                distributor_port = \
                    self.distributor_handles[distributor_id].listen_port
                process = self._ctx.Process(
                    target=_querier_main,
                    args=(self._control_addr, querier_id,
                          ("127.0.0.1", distributor_port),
                          self.server_for(querier_id), self._deadline_arg,
                          recovery, 0, self._tconfig),
                    daemon=True, name=f"replay-querier-{querier_id}")
                process.start()
                self._processes.append(process)
            by_id = {}
            for _ in range(querier_total):
                handle = _accept_hello(listener, ROLE_QUERIER,
                                       recovery.hello_timeout)
                handle.process = \
                    self._processes[config.distributors + handle.worker_id]
                by_id[handle.worker_id] = handle
            self.querier_handles = [by_id[i] for i in range(querier_total)]
        except Exception:
            self._closing.set()
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
            listener.close()
            raise

        # Controller-side chaos acts on the record stream to the
        # distributors; the controller itself never crash-faults.
        for handle in self.distributor_handles:
            attach_chaos(handle.control, recovery.chaos, handle.role,
                         handle.worker_id, handle.incarnation,
                         controller_side=True)
        for handle in self.distributor_handles + self.querier_handles:
            self._start_reader(handle)
        # Short accept timeout from here on: the accept loop must wake
        # often enough to notice shutdown.
        listener.settimeout(0.25)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True,
            name="replay-recovery-accept")
        self._accept_thread.start()

        if config.supervision is not None:
            self.watchdog = ReplayWatchdog(
                config.supervision,
                self.querier_handles + self.distributor_handles,
                on_stall=self._handle_stall_recovering,
                on_deadline=self._handle_deadline)
            self.watchdog.start()

        # Reader + Postman with global indices.
        self._assigner = StickyAssigner(self.distributor_handles)
        trace_start = records[0].timestamp
        self._trace_start_value = trace_start
        self.result.trace_start = trace_start
        time.sleep(config.start_delay)
        self.result.start_clock = time.monotonic()
        if self.cluster is not None:
            self.cluster.set_anchor(self.result.start_clock)
        for handle in self.distributor_handles:
            try:
                handle.control.send_time_sync(trace_start)
            except OSError:
                pass
        streamed = 0
        for index, record in enumerate(records):
            if self._deadline_hit:
                self.result.deadline_shed += len(records) - streamed
                break
            self._send_record_seq(index, record)
            streamed += 1
        self._flush_records()

        # Exactly-once drain: withhold END until the checkpoint store
        # accounts for every streamed index, re-streaming lost records
        # in bounded redelivery rounds.
        duration = records[-1].timestamp - trace_start
        drain_deadline = time.monotonic() + duration \
            + config.settle_time + recovery.collect_timeout
        if not self._deadline_hit:
            self._drain_exactly_once(records, streamed, drain_deadline)

        # From here on worker death is no longer recoverable work loss
        # (everything is checkpointed), so stop respawning and let the
        # tree wind down.
        self._closing.set()
        for handle in self.distributor_handles:
            try:
                handle.control.send_end()
            except OSError:
                pass

        final_deadline = min(drain_deadline,
                             time.monotonic() + config.settle_time + 8.0)
        with self._progress:
            while time.monotonic() < final_deadline:
                # RESULT and METRICS travel as a pair; waking on the
                # first must not leave the second unread.
                if not any((h.shard is None or h.metrics_state is None)
                           and not h.failed and h.is_alive()
                           for h in (self.querier_handles
                                     + self.distributor_handles)):
                    break
                # Bounded: a worker dying silently notifies nobody.
                self._progress.wait(0.25)

        if self.watchdog is not None:
            self.watchdog.stop()
            self.watchdog.join(timeout=1.0)
        listener.close()
        self._accept_thread.join(timeout=2.0)

        return self._finish_recovering()

    def _finish_recovering(self) -> ReplayResult:
        """Merge the store exactly-once, fold counters, tear down."""
        handles = self.querier_handles + self.distributor_handles
        with self._lock:
            snapshots = self._store.snapshots()
        merged = merge_recovered(snapshots, name=self.result.name)
        # Controller-side accounting (respawns, redelivery, shedding,
        # failover) accrued on self.result during the run.
        for counter in _COUNTER_FIELDS:
            setattr(merged, counter,
                    getattr(merged, counter) + getattr(self.result, counter))
        merged.trace_start = self.result.trace_start
        if self.result.start_clock is not None:
            merged.start_clock = self.result.start_clock \
                if merged.start_clock is None \
                else min(merged.start_clock, self.result.start_clock)
        self.result = merged

        lost = 0
        for handle in handles + self._retired_handles:
            if handle.metrics_state is not None:
                self.metrics.merge_state(handle.metrics_state)
        for handle in handles:
            if handle.shard is None:
                lost += 1
        if lost:
            self.metrics.incr("multiproc.lost_shards", lost)
        self.metrics.incr("multiproc.workers", len(handles))
        if self._respawns_total:
            self.metrics.incr("multiproc.respawns", self._respawns_total)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.metrics.merge(self.metrics)

        for handle in handles:
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
        return self.result

    def _drain_exactly_once(self, records, streamed: int,
                            drain_deadline: float) -> None:
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
                self._send_record_seq(index, records[index])
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

    def _send_record_seq(self, index: int, record) -> bool:
        while self._assigner.entities:
            handle = self._assigner.assign(record.src)
            try:
                handle.control.write_record_seq(index, record)
                return True
            except OSError:
                self._assigner.remove(handle)
                with self._lock:
                    self.result.reassigned_queries += 1
        with self._lock:
            self.result.send_failures += 1
        return False

    def _flush_records(self) -> None:
        """Write out the buffered RECORD_SEQ blocks before waiting on
        the store.  What a dead link's block held comes back as missing
        indices in the next redelivery round."""
        for handle in self._assigner.entities:
            try:
                handle.control.flush()
            except OSError:
                self._assigner.remove(handle)

    # -- reader / adoption / respawn ---------------------------------------

    def _start_reader(self, handle: _WorkerHandle) -> None:
        thread = threading.Thread(
            target=self._reader_loop, args=(handle, handle.control),
            daemon=True, name=f"reader-{handle.name}@{handle.incarnation}")
        thread.start()

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
                    # The store keeps the entries; the handle only
                    # needs to read as reported.  The final RESULT is
                    # cumulative and its header outranks every
                    # checkpoint of the same incarnation, whatever the
                    # arrival order.
                    handle.shard = _DRAINED
                    self._store.offer(key, handle.incarnation, 0,
                                      payload, final=True)
                elif kind == MSG_METRICS:
                    handle.metrics_state = payload
                self._progress.notify_all()
        # Reader gone: either this socket was replaced by a reconnect
        # (handle.control moved on — not our problem) or the worker
        # died and the self-healing path takes over.
        if handle.control is control and not self._closing.is_set():
            self._maybe_respawn(handle)

    def _accept_loop(self) -> None:
        recovery = self.config.recovery
        while not self._closing.is_set():
            try:
                newcomer = _accept_hello(self._listener, None,
                                         recovery.hello_timeout)
            except (TimeoutError, ProtocolError):
                continue
            except OSError:
                return
            self._adopt(newcomer)

    def _adopt(self, newcomer: _WorkerHandle) -> None:
        """Classify a late HELLO: reconnect of a live incarnation, or a
        respawned worker taking over its slot."""
        slots = (self.distributor_handles
                 if newcomer.role == ROLE_DISTRIBUTOR
                 else self.querier_handles)
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
        if handle is newcomer and newcomer.role == ROLE_DISTRIBUTOR:
            attach_chaos(newcomer.control, self.config.recovery.chaos,
                         newcomer.role, newcomer.worker_id,
                         newcomer.incarnation, controller_side=True)
            try:
                newcomer.control.send_time_sync(self._trace_start_value)
            except OSError:
                pass
            self._assigner.add(newcomer)
        self._start_reader(handle)

    def _maybe_respawn(self, handle: _WorkerHandle) -> None:
        """A worker's control link died.  Respawn it if it is really
        dead, its shard is outstanding, and the budget allows."""
        if handle.process is not None:
            handle.process.join(timeout=1.5)
            if handle.process.is_alive():
                return   # live worker with a dropped socket: it re-dials
        recovery = self.config.recovery
        key = (handle.role, handle.worker_id)
        with self._lock:
            if (self._closing.is_set() or handle.failed
                    or handle.shard is not None):
                return
            handle.failed = True
            self._progress.notify_all()
            attempts = self._respawn_counts.get(key, 0)
            budget_left = (
                attempts < recovery.respawn.max_per_worker
                and self._respawns_total < recovery.respawn.max_total)
            if budget_left:
                self._respawn_counts[key] = attempts + 1
                self._respawns_total += 1
                self.result.respawns += 1
            else:
                self.result.watchdog_stalls += 1
        if self.cluster is not None:
            self.cluster.record_crash(handle.role, handle.worker_id,
                                      handle.incarnation,
                                      reason="process died")
        if handle.role == ROLE_DISTRIBUTOR:
            self._assigner.remove(handle)
        if not budget_left:
            return
        thread = threading.Thread(
            target=self._respawn_worker,
            args=(handle, attempts, handle.incarnation + 1),
            daemon=True, name=f"respawn-{handle.name}")
        thread.start()

    def _respawn_worker(self, handle: _WorkerHandle, attempt: int,
                        incarnation: int) -> None:
        config = self.config
        recovery = config.recovery
        time.sleep(recovery.respawn.backoff(attempt))
        if self._closing.is_set():
            return
        if handle.role == ROLE_QUERIER:
            distributor_id = (handle.worker_id
                              // config.queriers_per_distributor)
            port = self.distributor_handles[distributor_id].listen_port
            process = self._ctx.Process(
                target=_querier_main,
                args=(self._control_addr, handle.worker_id,
                      ("127.0.0.1", port),
                      self.server_for(handle.worker_id),
                      self._deadline_arg, recovery, incarnation,
                      self._tconfig),
                daemon=True,
                name=f"replay-querier-{handle.worker_id}r{incarnation}")
        else:
            process = self._ctx.Process(
                target=_distributor_main,
                args=(self._control_addr, handle.worker_id,
                      config.queriers_per_distributor, recovery,
                      incarnation, handle.listen_port, self._tconfig),
                daemon=True,
                name=f"replay-distributor-{handle.worker_id}r{incarnation}")
        pending_key = (handle.role, handle.worker_id, incarnation)
        with self._lock:
            if self._closing.is_set():
                return
            self._pending_processes[pending_key] = process
            self._processes.append(process)
        process.start()
        # A respawn that dies before its HELLO is adopted would otherwise
        # vanish silently (no reader thread watches it yet) — babysit it
        # through the handshake and retry within the budget.
        hello_deadline = time.monotonic() + recovery.hello_timeout
        while time.monotonic() < hello_deadline:
            if self._closing.is_set():
                return
            with self._lock:
                if pending_key not in self._pending_processes:
                    return   # adopted: the reader thread owns it now
            if not process.is_alive():
                break
            time.sleep(0.05)
        else:
            return
        with self._lock:
            if (self._closing.is_set()
                    or pending_key not in self._pending_processes):
                return
            del self._pending_processes[pending_key]
            key = (handle.role, handle.worker_id)
            attempts = self._respawn_counts.get(key, 0)
            if (attempts >= recovery.respawn.max_per_worker
                    or self._respawns_total >= recovery.respawn.max_total):
                self.result.watchdog_stalls += 1
                return
            self._respawn_counts[key] = attempts + 1
            self._respawns_total += 1
            self.result.respawns += 1
        self._respawn_worker(handle, attempts, incarnation + 1)

    def _handle_stall_recovering(self, handle: _WorkerHandle) -> None:
        """Watchdog verdict: dead or wedged.  Make death unambiguous
        (terminate a wedged process) and close the control link so the
        reader exits into the respawn path."""
        with self._lock:
            self.result.watchdog_stalls += 1
        if handle.is_alive():
            handle.process.terminate()
        handle.control.close()


def _collect_worker(handle: _WorkerHandle, deadline: float,
                    cluster: Optional[ClusterAggregator] = None) -> None:
    """Drain one worker's RESULT + METRICS pair (or mark it failed).

    With a ``cluster``, interleaved TELEMETRY frames feed the
    aggregator on the way (self-sourcing shards stream through the same
    socket their RESULT arrives on — there is no separate reader).
    """
    if handle.failed:
        return
    handle.control.settimeout(max(deadline - time.monotonic(), 0.5))
    try:
        while handle.shard is None or handle.metrics_state is None:
            message = handle.control.receive()
            if message is None:
                handle.failed = True
                if cluster is not None and not handle.is_alive():
                    cluster.record_crash(handle.role, handle.worker_id,
                                         handle.incarnation)
                return
            kind, payload = message
            if kind == MSG_RESULT:
                handle.shard = ReplayResult.from_dict(payload)
            elif kind == MSG_METRICS:
                handle.metrics_state = payload
            elif kind == MSG_TELEMETRY and cluster is not None:
                cluster.ingest(payload)
    except (TimeoutError, ProtocolError, OSError):
        handle.failed = True
        if cluster is not None and not handle.is_alive():
            cluster.record_crash(handle.role, handle.worker_id,
                                 handle.incarnation)
    finally:
        handle.control.settimeout(None)


# ---------------------------------------------------------------------------
# Sharded simulation controller
# ---------------------------------------------------------------------------

class ShardTopology:
    """N self-sourcing simulation shards as real OS processes.

    The replicated-server shape of :mod:`repro.netsim.shard` deployed
    over the PR-5 control plane: every worker regenerates the trace from
    an importable factory spec, keeps only its
    ``shard_of(record.src, num_shards)`` slice, replays it against its
    own in-process server replica, and reports a RESULT + METRICS pair
    back.  The controller's job is spawn / HELLO / collect / merge —
    no trace bytes ever cross the process boundary.

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
            telemetry_config if telemetry_config is not None
            and telemetry_config.streaming() else None)
        self.cluster: Optional[ClusterAggregator] = (
            _make_aggregator(self.telemetry_config)
            if self.telemetry_config is not None else None)
        self.result = ReplayResult("sharded-replay")
        self.metrics = MetricsRegistry()
        self.shard_handles: List[_WorkerHandle] = []
        self.wall_s: Optional[float] = None     # controller wall clock
        self.shard_walls: List[Optional[float]] = []
        self.lost_shards = 0
        self.respawns = 0

    def _spawn_shard(self, ctx, control_addr, shard_index: int,
                     incarnation: int = 0):
        process = ctx.Process(
            target=_shard_main,
            args=(control_addr, shard_index, self.num_shards,
                  self.trace_factory, self.scenario_factory,
                  self.recovery, incarnation, self.telemetry_config),
            daemon=True,
            name=f"replay-shard-{shard_index}"
                 + (f"r{incarnation}" if incarnation else ""))
        process.start()
        return process

    def replay(self) -> ReplayResult:
        ctx = _mp_context(self.start_method)
        processes = []
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        started = time.perf_counter()
        hello_timeout = (_SETUP_TIMEOUT if self.recovery is None
                         else self.recovery.hello_timeout)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(self.num_shards)
            listener.settimeout(hello_timeout)
            control_addr = listener.getsockname()
            for shard_index in range(self.num_shards):
                processes.append(
                    self._spawn_shard(ctx, control_addr, shard_index))
            by_id: Dict[int, _WorkerHandle] = {}
            for _ in range(self.num_shards):
                handle = _accept_hello(listener, ROLE_SHARD, hello_timeout)
                handle.process = processes[handle.worker_id]
                by_id[handle.worker_id] = handle
            self.shard_handles = [by_id[i] for i in range(self.num_shards)]
        except Exception:
            for process in processes:
                if process.is_alive():
                    process.terminate()
            listener.close()
            raise
        if self.recovery is None:
            listener.close()

        deadline = time.monotonic() + self.collect_timeout
        for handle in self.shard_handles:
            _collect_worker(handle, deadline, self.cluster)
        if self.recovery is not None:
            # Shards are self-sourcing (each regenerates its own slice),
            # so recovery is simply: respawn a failed shard with a fresh
            # incarnation and collect again, within the budget.
            try:
                self._respawn_failed_shards(ctx, processes,
                                            listener.getsockname(),
                                            listener, deadline)
            finally:
                listener.close()
        self.wall_s = time.perf_counter() - started

        self.shard_walls = []
        for handle in self.shard_handles:
            if handle.shard is not None:
                self.result.merge(handle.shard)
            else:
                self.lost_shards += 1
            state = handle.metrics_state
            if state is not None:
                self.metrics.merge_state(state)
                self.shard_walls.append(state.get("gauges", {}).get(
                    f"shard.{handle.worker_id}.wall_s"))
            else:
                self.shard_walls.append(None)
        if self.lost_shards:
            self.metrics.incr("multiproc.lost_shards", self.lost_shards)
        self.metrics.incr("multiproc.shards", len(self.shard_handles))
        if self.respawns:
            self.result.respawns += self.respawns
            self.metrics.incr("multiproc.respawns", self.respawns)

        for handle in self.shard_handles:
            try:
                handle.control.send_shutdown()
            except OSError:
                pass
            handle.control.close()
        for process in processes:
            process.join(timeout=2.0)
        for process in processes:
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        return self.result

    def _respawn_failed_shards(self, ctx, processes, control_addr,
                               listener: socket.socket,
                               deadline: float) -> None:
        """Respawn dead shards with fresh incarnations, within budget.

        A shard's replay is deterministic for its slice, so a respawned
        incarnation redoes the whole slice and its RESULT simply
        replaces the one the dead incarnation never sent — no partial
        state to reconcile.
        """
        recovery = self.recovery
        per_worker: Dict[int, int] = {}
        while time.monotonic() < deadline:
            failed = [handle for handle in self.shard_handles
                      if handle.failed and handle.shard is None
                      and per_worker.get(handle.worker_id, 0)
                      < recovery.respawn.max_per_worker
                      and self.respawns < recovery.respawn.max_total]
            if not failed:
                return
            pending: Dict[Tuple[int, int], object] = {}
            for handle in failed:
                attempt = per_worker.get(handle.worker_id, 0)
                per_worker[handle.worker_id] = attempt + 1
                self.respawns += 1
                time.sleep(recovery.respawn.backoff(attempt))
                incarnation = handle.incarnation + 1
                process = self._spawn_shard(ctx, control_addr,
                                            handle.worker_id, incarnation)
                processes.append(process)
                pending[(handle.worker_id, incarnation)] = process
            for _ in range(len(pending)):
                try:
                    newcomer = _accept_hello(listener, ROLE_SHARD,
                                             recovery.hello_timeout)
                except (TimeoutError, ProtocolError):
                    continue   # died pre-HELLO: next loop pass retries
                old = self.shard_handles[newcomer.worker_id]
                old.control.close()
                newcomer.process = pending.get(
                    (newcomer.worker_id, newcomer.incarnation))
                self.shard_handles[newcomer.worker_id] = newcomer
                _collect_worker(newcomer, deadline, self.cluster)

    def aggregate_qps(self) -> Optional[float]:
        """Aggregate queries/second over the controller's wall clock.

        Conservative: the denominator includes process spawn, trace
        regeneration, and collection, not just the replay loops.
        """
        if not self.wall_s or not self.result.sent:
            return None
        return len(self.result.sent) / self.wall_s
