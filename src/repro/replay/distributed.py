"""The live replay tiers: Figure 4 with real sockets.

This is the tree of the paper's prototype:

* the **controller** (Reader + Postman) streams the trace over TCP
  message sockets (:mod:`repro.replay.protocol`) to the distributors,
  broadcasting a time-sync message first;
* each **distributor** forwards records over further TCP sockets to its
  queriers, sticky by original source address;
* each **querier** applies the ΔT = Δt̄ − Δt timing discipline against
  the real clock and sends real UDP queries, matching responses on the
  (message id, qname, qtype) key.

This module holds the two worker tiers and their configuration.  The
controller, and the worker processes the tiers run in, are
:class:`repro.replay.multiproc.ProcessTopology` — the one live replay.
"""

from __future__ import annotations

import heapq
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, List, Optional, Set, Tuple

from ..dns import WireError
from ..trace import QueryRecord
from ..trace.stream import DEFAULT_READ_AHEAD, iter_shard_file
from .distributor import StickyAssigner
from .live import grow_receive_buffer
from .protocol import (MSG_END, MSG_RECORD, MSG_RECORD_SEQ, MSG_SHUTDOWN,
                       MSG_TIME_SYNC, Message, MessageSocket, ProtocolError)
from .querier import MatchKey, match_key
from .recovery import RecoveryConfig
from .result import ReplayResult, SentQuery
from .supervision import SupervisionConfig

ServerAddress = Tuple[str, int]

# Aggregate-mode bound on response-matching state: unanswered sends and
# answered-key tombstones would otherwise grow with the trace (exactly
# the per-query memory aggregate accounting exists to avoid).  Evicted
# pending sends simply stay unanswered — the same fate a lost datagram
# already has.
_AGGREGATE_PENDING_CAP = 1 << 16

# The querier works a block at a time (DESIGN.md "Live data plane").
# These are sizes of the mechanism, not settings of a run.
_FRAME_BLOCK = 256      # frames taken off the link per wake
_READ_EVERY = 32        # sends between reads of the UDP socket
_IDLE_POLL = 0.05       # longest wait: how late shed_event is noticed
# A replay on its schedule sleeps once per send (DESIGN.md "Wake
# budget").  While a queued send is due within _ANSWER_DEFER the wait
# leaves the UDP socket out and the answers are read straight after the
# sends of that wake: ``answered_at`` is stamped at most _ANSWER_DEFER
# plus one send after the datagram arrived.  The distributor, on waking
# for a record ``pace_lead`` ahead, releases every record up to
# _PACE_QUANTUM further ahead: queriers buffer one quantum more and
# take their frames a block per quantum.
_ANSWER_DEFER = 0.001
_PACE_QUANTUM = 0.02
# Catching up on a backlog is answer-clocked: dumped at line rate it is
# a burst the trace never held, and what overruns a server once the
# querier is fast.  While sends run more than _OVERDUE late, at most
# _WINDOW of them are ahead of the datagrams read back (two windows fit
# the 256 small datagrams of a default 212 992-byte server buffer); an
# answer slower than _PATIENCE is written off, so a silent server still
# sees _WINDOW / _PATIENCE q/s and nothing stalls.  A send within
# _OVERDUE of its time is never held and reopens the window: a replay
# on its schedule stays open loop.  _OVERDUE is also what a flood sends
# unheld at first: 1 ms at ~100 k q/s plus a window is 164 datagrams.
_CATCHUP_OVERDUE = 0.001
_CATCHUP_WINDOW = 64
_CATCHUP_PATIENCE = 0.002


@dataclass
class DistributedConfig:
    distributors: int = 2
    queriers_per_distributor: int = 2
    settle_time: float = 0.3
    # The first record is due this long after TIME_SYNC: the lead-in in
    # which the head of the stream reaches the queriers.
    start_delay: float = 0.1
    # Worker-process start method; None picks fork when the platform
    # offers it, else spawn.
    start_method: Optional[str] = None
    # Supervision (off by default): dead-worker watchdog plus optional
    # wall-clock deadline.
    supervision: Optional[SupervisionConfig] = None
    # Self-healing: worker respawn with checkpointed result shards and
    # exactly-once redelivery.  None keeps the fail-fast behavior byte
    # for byte.
    recovery: Optional[RecoveryConfig] = None
    # Aggregate accounting: queriers fold every send into O(1)
    # counters/histograms (ReplayResult(aggregate=True)) instead of
    # retaining a SentQuery per query.  This is what keeps a 10⁸-query
    # streamed replay at flat RSS; per-query forensics are unavailable.
    aggregate_results: bool = False


class _LiveQuerier:
    """Receives records over a MessageSocket; sends real UDP queries.

    One loop, one blocking call: ``select`` on the distributor link and
    the UDP socket, for no longer than the next due send, the next
    checkpoint flush or ``_IDLE_POLL``.  Each wake takes up to
    ``_FRAME_BLOCK`` frames already off the wire, sends everything due
    (reading answers every ``_READ_EVERY`` sends), then reads answers
    and checkpoints once.  With a send due within ``_ANSWER_DEFER`` the
    UDP socket stays out of the wait: the sends clock the answer reads.
    """

    def __init__(self, querier_id: int, inbound: MessageSocket,
                 server: ServerAddress, result: ReplayResult,
                 lock: threading.Lock):
        self.querier_id = querier_id
        self.inbound = inbound
        self.server = server
        self.result = result
        self.lock = lock
        # List mode retains SentQuery entries; aggregate mode stores
        # only the sent_at float (enough to compute the latency).
        self._pending: Dict[MatchKey, List] = {}
        self._pending_entries = 0
        self._answered: Set[MatchKey] = set()
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        grow_receive_buffer(self._sock)
        self._sock.connect(server)
        self._sock.setblocking(False)
        self._trace_start: Optional[float] = None
        self._clock_start: Optional[float] = None
        self._queue: List[Tuple[float, int, QueryRecord,
                                Optional[int]]] = []
        self._sequence = 0
        self._done_receiving = False
        self._closed = False
        self._unread = 0        # sends since the UDP socket was last read
        self.wakes = 0          # returns of _wait
        # Catch-up window: overdue sends not yet matched by a datagram
        # read back (see _CATCHUP_*).
        self._ahead = 0
        self.catchup_waits = 0          # times the window held a send
        self.catchup_forgiven = 0       # windows written off unanswered
        # Recovery hooks (recovery mode; all None otherwise so the
        # fail-fast behavior is untouched).
        self.checkpoint_policy = None       # recovery.CheckpointPolicy
        self.checkpoint_sink: Optional[Callable[[dict], None]] = None
        self.reconnect: Optional[Callable[[], Optional[MessageSocket]]] \
            = None                          # inbound re-dial after a drop
        # Redelivery dedup by global index: None while the record is
        # queued, its SentQuery once sent.
        self._seen_indices: Dict[int, Optional[SentQuery]] = {}
        self.redundant_records = 0          # redelivered dups dropped here
        # Entries the next CHECKPOINT frame carries, by index: first
        # sends, answers to entries already shipped, and re-reports.
        self._news: Dict[int, SentQuery] = {}
        self._last_checkpoint_time = time.monotonic()
        # Supervision surface: SHUTDOWN and the deadline timer set
        # shed_event.
        self.records_received = 0
        self.records_sent = 0
        self.shed_event = threading.Event()
        # Optional local wall-clock budget, armed at TIME_SYNC: the
        # controller cannot reach into a worker's shed_event once the
        # stream has ended, so the deadline is enforced where the queue
        # lives.
        self.deadline: Optional[float] = None
        self._deadline_timer: Optional[threading.Timer] = None
        # Telemetry hub, installed by the worker main before run();
        # calls are serialized under the result lock.
        self.telemetry = None

    def run(self) -> None:
        try:
            self._run()
        finally:
            self.shutdown()

    def _run(self) -> None:
        while not (self._done_receiving and not self._queue):
            now = time.monotonic()
            # Whole frames the last read left behind: look, don't sleep.
            buffered = not self._done_receiving and self.inbound.has_frame()
            # With a send this close the UDP socket is not waited on
            # but read once the sends of this wake are out.
            send_soon = bool(self._queue) \
                and self._queue[0][0] - now <= _ANSWER_DEFER
            frames, answers = self._wait(
                0.0 if buffered else self._idle_time(now),
                answers=not send_soon)
            if frames or buffered:
                self._read_frames()
            self._send_due()
            if answers or send_soon or self._unread:
                self._drain_responses()
            self._maybe_checkpoint()
        # Settle: catch responses still in flight.
        deadline = time.monotonic() + 0.2
        while (now := time.monotonic()) < deadline:
            if self._wait(deadline - now, frames=False)[1]:
                self._drain_responses()
        self._maybe_checkpoint()

    def _idle_time(self, now: float) -> float:
        """How long the loop may sleep when no socket turns readable."""
        wake = now + _IDLE_POLL
        if self._queue:
            wake = min(wake, self._queue[0][0])
        if self._news and self.checkpoint_policy is not None:
            wake = min(wake, self._last_checkpoint_time
                       + self.checkpoint_policy.interval_s)
        return max(wake - now, 0.0)

    def _wait(self, timeout: float, frames: bool = True,
              answers: bool = True) -> Tuple[bool, bool]:
        """The loop's one blocking call: sleep until the distributor
        link (if ``frames``) or the UDP socket (if ``answers``) is
        readable, at most ``timeout``.  Returns (frames to read, answers
        to read).  Tests drive the loop over fakes by patching this
        module's ``select``."""
        self.wakes += 1
        frames = frames and not self._done_receiving
        watched = [self.inbound] if frames else []
        if answers:
            watched.append(self._sock)
        try:
            readable = select.select(watched, (), (), timeout)[0]
        except (OSError, ValueError):
            # A socket was closed under the wait; the reads say which.
            return frames, answers
        return self.inbound in readable, self._sock in readable

    def _read_frames(self) -> None:
        """Take the frames already off the wire, at most a block: a due
        send waits for one block of decoding and never for the link
        (``receive`` blocks only for the tail of a frame in flight)."""
        for _ in range(_FRAME_BLOCK):
            try:
                message = self.inbound.receive()
            except ProtocolError:
                # A corrupt or torn-down control channel ends the
                # stream; queued records still drain.
                message = None
            if message is None:
                # EOF without END: the distributor died.  In recovery
                # mode its respawn rebinds the same port — re-dial with
                # backoff before giving up the stream.
                if not self._reconnect_inbound():
                    self._done_receiving = True
            else:
                self._handle(message)
            if self._done_receiving or not self.inbound.has_frame():
                return

    def _handle(self, message: Message) -> None:
        kind, payload = message
        if kind == MSG_RECORD:
            self.records_received += 1
            self._enqueue(payload)
        elif kind == MSG_RECORD_SEQ:
            index, record = payload
            if index in self._seen_indices:
                # Redelivered copy of a record already queued or sent
                # here: exactly-once, drop it locally.  If it was sent,
                # the controller lost the frame that said so — report
                # the entry again.
                self.redundant_records += 1
                entry = self._seen_indices[index]
                if entry is not None:
                    self._report(entry)
            else:
                self._seen_indices[index] = None
                self.records_received += 1
                self._enqueue(record, index)
        elif kind == MSG_END:
            self._done_receiving = True
        elif kind == MSG_SHUTDOWN:
            # Controller-ordered stop (deadline shedding): drop queued
            # work, finish.
            self.shed_event.set()
            self._done_receiving = True
        elif kind == MSG_TIME_SYNC:
            # Keep the first anchor: a re-sent TIME_SYNC after a
            # reconnect must not skew already-scheduled sends.
            if self._trace_start is None:
                self._trace_start = payload
                self._clock_start = time.monotonic()
                if self.result.aggregate:
                    # Aggregate accounting folds §2.6 time errors at
                    # send time, so the anchors must be in place before
                    # the first count_send.
                    with self.lock:
                        if self.result.trace_start is None:
                            self.result.trace_start = self._trace_start
                            self.result.start_clock = self._clock_start
            if self.deadline is not None and self._deadline_timer is None:
                self._deadline_timer = threading.Timer(
                    self.deadline, self.shed_event.set)
                self._deadline_timer.daemon = True
                self._deadline_timer.start()

    def _reconnect_inbound(self) -> bool:
        """Re-dial a dropped distributor link (recovery mode only)."""
        if self.reconnect is None or self.shed_event.is_set():
            return False
        replacement = self.reconnect()
        if replacement is None:
            return False
        self.inbound.close()
        self.inbound = replacement
        with self.lock:
            self.result.reconnects += 1
        return True

    def _report(self, entry: SentQuery) -> None:
        """Put an entry in the next CHECKPOINT frame (recovery mode)."""
        if self.checkpoint_sink is not None:
            self._news[entry.index] = entry

    def _maybe_checkpoint(self) -> None:
        """Emit a delta frame if the cadence says so: the entries with
        news since the last frame under the cumulative header."""
        if not self._news or self.checkpoint_policy is None:
            return
        since = time.monotonic() - self._last_checkpoint_time
        if not self.checkpoint_policy.due(len(self._news), since):
            return
        news, self._news = self._news, {}
        with self.lock:
            frame = self.result.to_dict(news.values())
        self.checkpoint_sink(frame)
        self._last_checkpoint_time = time.monotonic()

    def shutdown(self) -> None:
        """Close every socket this querier owns (idempotent).

        Called from the querier itself when ``run`` ends, however it
        ends.
        """
        if self._closed:
            return
        self._closed = True
        if self._deadline_timer is not None:
            self._deadline_timer.cancel()
        self.inbound.close()
        try:
            self._sock.close()
        except OSError:
            pass

    def _shed_queue(self) -> None:
        """Deadline shedding: count queued-but-unsent records, drop them."""
        if self._queue:
            with self.lock:
                self.result.deadline_shed += len(self._queue)
            self._queue.clear()

    def _enqueue(self, record: QueryRecord,
                 index: Optional[int] = None) -> None:
        if self._trace_start is None:
            target = time.monotonic()       # no anchor yet: due at once
        else:
            target = self._clock_start \
                + (record.timestamp - self._trace_start)
        heapq.heappush(self._queue, (target, self._sequence, record, index))
        self._sequence += 1

    def _send_due(self) -> None:
        """Send every queued record whose time has come.

        On schedule this is open loop: a due send is never held.  A send
        more than ``_CATCHUP_OVERDUE`` late is answer-clocked instead.
        """
        queue, shed = self._queue, self.shed_event.is_set
        now = time.monotonic()
        while queue and queue[0][0] <= now and not shed():
            target = queue[0][0]
            if now - target <= _CATCHUP_OVERDUE:
                self._ahead = 0
            elif self._ahead >= _CATCHUP_WINDOW:
                self._await_answers()
                now = time.monotonic()
                continue
            else:
                self._ahead += 1
            _target, _seq, record, index = heapq.heappop(queue)
            now = self._send(record, target, index)
            if self._unread >= _READ_EVERY:
                self._drain_responses()
        if shed():
            self._shed_queue()

    def _await_answers(self) -> None:
        """The catch-up window is full: wait for a datagram to read, or
        write the window off when none comes in ``_CATCHUP_PATIENCE``."""
        self.catchup_waits += 1
        if self._wait(_CATCHUP_PATIENCE, frames=False)[1]:
            self._drain_responses()
        if self._ahead >= _CATCHUP_WINDOW:
            self._ahead = 0
            self.catchup_forgiven += 1

    def _send(self, record: QueryRecord, scheduled_at: float,
              index: Optional[int] = None) -> float:
        """Put one query on the wire; returns the instant it left."""
        message_id = self._sequence * 31 % 0xFFFF or 1
        self._sequence += 1
        wire = struct.pack("!H", message_id) + record.wire[2:]
        key = match_key(wire)
        sent_at = time.monotonic()
        if self.result.aggregate:
            # O(1) memory: fold into counters, keep only sent_at.
            self._pending.setdefault(key, []).append(sent_at)
            self._pending_entries += 1
            with self.lock:
                self.result.count_send("udp", record.timestamp, sent_at)
            if self._pending_entries > _AGGREGATE_PENDING_CAP:
                # Evict the older half of the keys (dict order is
                # insertion order) in one pass: the dropped sends are
                # already counted and simply stay unanswered if a late
                # response does arrive.
                for evicted in list(islice(self._pending,
                                           len(self._pending) // 2)):
                    self._pending_entries -= len(self._pending.pop(evicted))
            if len(self._answered) > _AGGREGATE_PENDING_CAP:
                self._answered.clear()
        else:
            try:
                question = record.question()
            except WireError:
                question = None
            entry = SentQuery(
                # Recovery mode carries the global trace index so the
                # controller's merge can dedup across respawns; classic
                # mode numbers the local shard and lets merge() re-index.
                index=index if index is not None else len(self.result.sent),
                source=record.src,
                trace_time=record.timestamp, scheduled_at=scheduled_at,
                sent_at=sent_at, protocol="udp",
                qname=question[0].to_text().lower() if question else "-",
                querier_id=self.querier_id)
            self._pending.setdefault(key, []).append(entry)
            if index is not None:
                self._seen_indices[index] = entry
            self._report(entry)
            with self.lock:
                self.result.add(entry)
                if self.telemetry is not None:
                    self.telemetry.on_send(entry, wire)
        self._answered.discard(key)
        try:
            self._sock.send(wire)
            self.records_sent += 1
        except OSError:
            self.result.send_failures += 1
        self._unread += 1
        return sent_at

    def _drain_responses(self) -> None:
        """Read the UDP socket dry, crediting each answer to its query."""
        self._unread = 0
        receive, pending, answered = (self._sock.recv, self._pending,
                                      self._answered)
        result, lock, clock = self.result, self.lock, time.monotonic
        while True:
            try:
                data = receive(65535)
            except OSError:     # BlockingIOError: dry (or closed)
                return
            if self._ahead:
                self._ahead -= 1
            key = match_key(data)
            waiting = pending.get(key)
            if waiting:
                entry = waiting.pop(0)
                answered_at = clock()
                if not waiting:
                    del pending[key]
                    answered.add(key)
                if result.aggregate:
                    # ``entry`` is the sent_at float; fold the latency.
                    self._pending_entries -= 1
                    with lock:
                        result.count_answer(answered_at - entry)
                    continue
                entry.answered_at = answered_at
                self._report(entry)
                if self.telemetry is not None:
                    with lock:
                        self.telemetry.on_answer(entry)
            elif key in answered:
                # A duplicated/stale datagram re-answering a completed
                # query; before full-key matching this could be credited
                # to a different in-flight query with a colliding id.
                with lock:
                    result.duplicate_responses += 1
            else:
                with lock:
                    result.unmatched_responses += 1


class _LiveDistributor:
    """Forwards records to queriers, sticky by source address."""

    def __init__(self, distributor_id: int, inbound: MessageSocket,
                 querier_sockets: List[MessageSocket],
                 result: Optional[ReplayResult] = None,
                 lock: Optional[threading.Lock] = None):
        self.distributor_id = distributor_id
        self.inbound = inbound
        self.querier_sockets = querier_sockets
        # allow_empty: a respawned distributor may start with zero
        # queriers attached and adopt them as they reconnect; records
        # arriving in that window count as send_failures and are
        # recovered by the controller's redelivery rounds.
        self.assigner = StickyAssigner(querier_sockets, allow_empty=True)
        self.result = result
        self.lock = lock
        self.records_routed = 0
        self.pace_sleeps = 0        # pacing sleeps of run_shard_file
        # Cached for late joiners: a respawned querier attaching after
        # the broadcast still needs the timing anchor.
        self._trace_start: Optional[float] = None
        # Monotonic instant the first TIME_SYNC arrived: the clock
        # offset the cluster telemetry stream reports for alignment.
        self.sync_mono: Optional[float] = None

    @property
    def record_batches(self) -> int:
        """Buffered record blocks written to the queriers so far."""
        return sum(outbound.blocks_sent for outbound in self.querier_sockets)

    def add_querier(self, outbound: MessageSocket) -> None:
        """Attach a (re)connected querier mid-run (recovery accept loop).

        The new socket gets the cached TIME_SYNC anchor first, then
        joins the sticky rotation — sources orphaned by a crashed
        predecessor rebalance onto it on their next record.
        """
        if self._trace_start is not None:
            try:
                outbound.send_time_sync(self._trace_start)
            except OSError:
                outbound.close()
                return
        self.querier_sockets.append(outbound)
        self.assigner.add(outbound)

    def run(self) -> None:
        try:
            for kind, payload in self.inbound.messages():
                if kind == MSG_TIME_SYNC:
                    self._trace_start = payload
                    if self.sync_mono is None:
                        self.sync_mono = time.monotonic()
                    for outbound in self.querier_sockets:
                        outbound.send_time_sync(payload)
                elif kind == MSG_RECORD:
                    self.records_routed += 1
                    self._route(payload)
                elif kind == MSG_RECORD_SEQ:
                    self.records_routed += 1
                    self._route(payload[1], payload[0])
                elif kind == MSG_SHUTDOWN:
                    # Controller-ordered stop: relay to the queriers so
                    # they shed their queues, then end the stream.
                    for outbound in self.querier_sockets:
                        try:
                            outbound.send_shutdown()
                        except OSError:
                            pass
                    return
                if not self.inbound.has_frame():
                    self._flush()   # the next receive will block
        except ProtocolError:
            pass  # torn-down control channel: flush END downstream
        finally:
            for outbound in self.querier_sockets:
                try:
                    outbound.send_end()
                except OSError:
                    pass

    def run_shard_file(self, path: str,
                       read_ahead: int = DEFAULT_READ_AHEAD,
                       pace_lead: float = 2.0) -> None:
        """Self-source records from a shard file (streaming replay).

        The control socket carries only the timing handshake — the
        controller sends TIME_SYNC then END without ever reading a
        record (it knows the shard only through the manifest).  Records
        come off disk through :func:`iter_shard_file`'s bounded
        read-ahead, and routing is *paced*: the distributor sleeps until
        the next record is ``pace_lead`` seconds from its replay time
        and then forwards every record up to ``_PACE_QUANTUM`` further
        ahead, so the querier heaps hold at most a few seconds of
        queries instead of the whole shard and a dense trace costs one
        sleep per quantum, not per record.  ``pace_lead <= 0`` disables
        pacing (as fast as the tree accepts, the classic firehose).
        """
        try:
            for kind, payload in self.inbound.messages():  # until END
                if kind == MSG_TIME_SYNC:
                    self._trace_start = payload
                    if self.sync_mono is None:
                        self.sync_mono = time.monotonic()
                    for outbound in self.querier_sockets:
                        outbound.send_time_sync(payload)
                elif kind == MSG_SHUTDOWN:
                    for outbound in self.querier_sockets:
                        try:
                            outbound.send_shutdown()
                        except OSError:
                            pass
                    return
            if self._trace_start is None:
                return   # controller vanished before the handshake
            # Trace time at the anchor plus what routing runs ahead: a
            # record's timestamp less this is its forwarding time on the
            # clock since the anchor.
            origin = self._trace_start + pace_lead
            # Records due up to here go without a look at the clock.
            released = 0.0 if pace_lead > 0 else float("inf")
            for record in iter_shard_file(path, read_ahead=read_ahead):
                due = record.timestamp - origin
                if due > released:
                    now = time.monotonic() - self.sync_mono
                    while now < due:
                        self._flush()
                        self.pace_sleeps += 1
                        time.sleep(min(due - now, 0.25))
                        now = time.monotonic() - self.sync_mono
                    released = now + _PACE_QUANTUM
                self.records_routed += 1
                self._route(record)
        except ProtocolError:
            pass  # torn-down control channel: flush END downstream
        finally:
            for outbound in self.querier_sockets:
                try:
                    outbound.send_end()
                except OSError:
                    pass

    def _route(self, record: QueryRecord,
               index: Optional[int] = None) -> None:
        """Send to the sticky querier; on a dead socket, reroute.

        A querier that crashed shows up as a broken pipe on its message
        socket.  The dead entity is dropped from the sticky map and the
        record re-assigned, so its sources fail over to live queriers.
        """
        first_try = True
        while self.assigner.entities:
            outbound = self.assigner.assign(record.src)
            try:
                if index is None:
                    outbound.write_record(record)
                else:
                    outbound.write_record_seq(index, record)
            except OSError:
                self.assigner.remove(outbound)
                first_try = False
                continue
            if not first_try and self.result is not None:
                with self.lock:
                    self.result.reassigned_queries += 1
            return
        if self.result is not None:
            with self.lock:
                self.result.send_failures += 1

    def _flush(self) -> None:
        """Write out what ``_route`` buffered; called before this worker
        blocks.  A link that fails here is dropped like one that fails
        in ``_route``: its sources fail over on their next record."""
        for outbound in self.assigner.entities:
            try:
                outbound.flush()
            except OSError:
                self.assigner.remove(outbound)
