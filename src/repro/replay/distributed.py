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
from typing import Callable, List, Optional, Tuple

from ..server.live import grow_receive_buffer
from ..trace.binfmt import (RECORD_PROTOCOL_OFFSET, RECORD_SOURCE,
                            RECORD_TIME_AND_WIRE_LENGTH, WIRE_OFFSET,
                            iter_record_bodies, record_head, record_source)
from ..trace.record import PROTOCOLS
from .distributor import StickyAssigner
from .protocol import (MSG_END, MSG_RECORD, MSG_SHUTDOWN, MSG_TIME_SYNC,
                       Message, MessageSocket, ProtocolError)
from .querier import ResponseTable, match_key, query_qname
from .recovery import QuerierLedger, RecoveryConfig
from .result import ReplayResult

ServerAddress = Tuple[str, int]

# Aggregate-mode bound on unanswered sends, which would otherwise grow
# with the trace (exactly the per-query memory aggregate accounting
# exists to avoid; the answered window bounds itself).  Evicted pending
# sends simply stay unanswered — the same fate a lost datagram already
# has.
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

_MESSAGE_ID = struct.Struct("!H")

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
    # Wall-clock budget of the whole replay, from its start; None is no
    # budget.  When it runs out the tree stops sending, and every record
    # not sent by then is counted in ``deadline_shed``.
    deadline: Optional[float] = None
    # Every in-memory replay checkpoints, redelivers what a dead worker
    # held and merges exactly once; a RecoveryConfig also grants dead
    # workers respawns (None: zero) and may carry a chaos schedule.
    recovery: Optional[RecoveryConfig] = None


class _LiveQuerier:
    """Receives records over a MessageSocket; sends real UDP queries.

    One loop, one blocking call: ``select`` on the distributor link and
    the UDP socket, for no longer than the next due send, the next
    checkpoint flush or ``_IDLE_POLL``.  Each wake takes one block of
    up to ``_FRAME_BLOCK`` frames already off the wire, sends everything
    due (reading answers every ``_READ_EVERY`` sends), then reads
    answers and checkpoints once.  With a send due within
    ``_ANSWER_DEFER`` the UDP socket stays out of the wait: the sends
    clock the answer reads.

    Every recovery rule is the :class:`QuerierLedger`'s: a list-mode
    querier feeds it each arrival, send and answer, and asks it when a
    delta leaves and when the tail may stop settling; an aggregate one
    asks it only the latter.

    Records stay bytes: the queue holds record bodies, each with its
    global trace index, and a send puts this querier's message id and
    the body's wire on the socket.  Answers are matched by the sim
    querier's :class:`ResponseTable`.  A list-mode row takes its
    source from the packed address and its query name from
    :func:`query_qname`, the sim querier's rule.  Aggregate accounting
    is folded once per wake, over the wake's sends and over each
    drain's answers.
    """

    def __init__(self, querier_id: int, inbound: MessageSocket,
                 server: ServerAddress, result: ReplayResult,
                 lock: threading.Lock):
        self.querier_id = querier_id
        self.inbound = inbound
        self.server = server
        self.result = result
        self.lock = lock
        # Waiters by match_key: result rows in list mode, only the
        # sent_at float (enough for the latency) in aggregate mode.
        self._pending = ResponseTable()
        self._pending_entries = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        grow_receive_buffer(self._sock)
        self._sock.connect(server)
        self._sock.setblocking(False)
        self._trace_start: Optional[float] = None
        self._clock_start: Optional[float] = None
        # (due instant, sequence, record body, global trace index).
        self._queue: List[Tuple[float, int, bytes, int]] = []
        # Aggregate mode: (trace time, sent_at) of this wake's sends.
        self._sends: List[Tuple[float, float]] = []
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
        # The recovery rules, fed in list mode only (an aggregate
        # querier keeps no per-record state).
        self.ledger = QuerierLedger(result.sent, time.monotonic())
        self.redundant_records = 0          # redelivered dups dropped here
        # Recovery hooks, installed by the worker main: the sink of the
        # ledger's deltas in list mode only, the re-dial always.
        self.checkpoint_sink: Optional[Callable[[dict], None]] = None
        self.reconnect: Optional[Callable[[], Optional[MessageSocket]]] \
            = None                          # inbound re-dial after a drop
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
            self._checkpoint()
        # Settle: catch responses still in flight, as the ledger says.
        while (until := self.ledger.settle(now := time.monotonic(),
                                           bool(self._pending))) is not None:
            if self._wait(until - now, frames=False)[1]:
                self._drain_responses()
        self._checkpoint()

    @property
    def queue_depth(self) -> int:
        """Records queued here and not yet sent."""
        return len(self._queue)

    def _idle_time(self, now: float) -> float:
        """How long the loop may sleep when no socket turns readable."""
        wake = now + _IDLE_POLL
        if self._queue:
            wake = min(wake, self._queue[0][0])
        cadence = None if self.result.aggregate else self.ledger.wake()
        if cadence is not None:
            wake = min(wake, cadence)
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
        """Take one block of frames off the link: a due send waits for
        one block of intake and never for the link (``receive_block``
        blocks only for the tail of a frame in flight)."""
        try:
            messages = self.inbound.receive_block(_FRAME_BLOCK)
        except ProtocolError:
            # A corrupt or torn-down control channel ends the stream;
            # queued records still drain.
            messages = []
        if not messages:
            # EOF without END: the distributor died.  A respawn rebinds
            # the same port — re-dial with backoff before giving up the
            # stream.
            if not self._reconnect_inbound():
                self._done_receiving = True
            return
        for message in messages:
            if message[0] == MSG_RECORD:
                index, body = message[1]
                if self.result.aggregate or self.ledger.arrived(index):
                    self.records_received += 1
                    self._enqueue(body, index)
                else:
                    self.redundant_records += 1
                continue
            self._handle(message)
            if self._done_receiving:
                return

    def _handle(self, message: Message) -> None:
        kind, payload = message
        if kind == MSG_END:
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
        """Re-dial a dropped distributor link, if a re-dial is set."""
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

    def _checkpoint(self) -> None:
        """Emit the ledger's delta, under the cumulative header, when
        the ledger says one is due (with no sink, it is dropped)."""
        if self.result.aggregate:
            return
        now = time.monotonic()
        if not self.ledger.due(now, bool(self._queue)):
            return
        delta = self.ledger.delta(now)
        if self.checkpoint_sink is not None:
            with self.lock:
                frame = self.result.to_dict(delta)
            self.checkpoint_sink(frame)

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

    def _enqueue(self, body: bytes, index: int) -> None:
        if self._trace_start is None:
            target = time.monotonic()       # no anchor yet: due at once
        else:
            target = self._clock_start + (
                RECORD_TIME_AND_WIRE_LENGTH.unpack_from(body)[0]
                - self._trace_start)
        heapq.heappush(self._queue, (target, self._sequence, body, index))
        self._sequence += 1

    def _send_due(self) -> None:
        """Send every queued record whose time has come.

        On schedule this is open loop: a due send is never held.  A send
        more than ``_CATCHUP_OVERDUE`` late is answer-clocked instead.
        """
        queue, shed = self._queue, self.shed_event.is_set
        now = time.monotonic()
        while queue and queue[0][0] <= now and not shed():
            target, _seq, body, index = queue[0]
            if body[RECORD_PROTOCOL_OFFSET]:
                heapq.heappop(queue)
                self._refuse(body, target, index)
                continue
            if now - target <= _CATCHUP_OVERDUE:
                self._ahead = 0
            elif self._ahead >= _CATCHUP_WINDOW:
                self._await_answers()
                now = time.monotonic()
                continue
            else:
                self._ahead += 1
            heapq.heappop(queue)
            now = self._send(body, target, index)
            if self._unread >= _READ_EVERY:
                self._drain_responses()
        if self._sends:
            self.result.count_sends("udp", self._sends)
            self._sends.clear()
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

    def _refuse(self, body: bytes, scheduled_at: float, index: int) -> None:
        """A TCP or TLS record: this querier speaks UDP only, so the
        record is not sent, and says so.  It counts as a send failure;
        in list mode its entry, under its own protocol, gave up, so the
        controller's store accounts for its index."""
        self.result.send_failures += 1
        if self.result.aggregate:
            return
        trace_time, wire_length = RECORD_TIME_AND_WIRE_LENGTH.unpack_from(body)
        with self.lock:
            self.ledger.sent(
                index, record_source(body), trace_time, scheduled_at,
                time.monotonic(), PROTOCOLS[body[RECORD_PROTOCOL_OFFSET]],
                query_qname(body[WIRE_OFFSET:WIRE_OFFSET + wire_length]),
                self.querier_id, gave_up=True)

    def _send(self, body: bytes, scheduled_at: float, index: int) -> float:
        """Put one query on the wire; returns the instant it left."""
        message_id = self._sequence * 31 % 0xFFFF or 1
        self._sequence += 1
        trace_time, wire_length = RECORD_TIME_AND_WIRE_LENGTH.unpack_from(body)
        # The record's wire under this querier's message id; bytes past
        # the wire are an extension of the record, not of the query.
        wire = _MESSAGE_ID.pack(message_id) \
            + body[WIRE_OFFSET + 2:WIRE_OFFSET + wire_length]
        key = match_key(wire)
        sent_at = time.monotonic()
        if self.result.aggregate:
            # O(1) memory: keep only sent_at; the send is folded into
            # the counters with the rest of this wake's (_send_due).
            self._pending.file(key, sent_at)
            self._pending_entries += 1
            self._sends.append((trace_time, sent_at))
            if self._pending_entries > _AGGREGATE_PENDING_CAP:
                # Evict the older half of the keys (dict order is
                # insertion order) in one pass: the dropped sends are
                # already counted and simply stay unanswered if a late
                # response does arrive.
                waiting = self._pending.waiting
                for evicted in list(islice(waiting, len(waiting) // 2)):
                    self._pending_entries -= len(waiting.pop(evicted))
        else:
            with self.lock:
                row = self.ledger.sent(
                    index, record_source(body), trace_time, scheduled_at,
                    sent_at, "udp", query_qname(wire), self.querier_id)
                if self.telemetry is not None:
                    self.telemetry.on_send(self.result.sent[row], wire)
            self._pending.file(key, row)
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
        receive, pending = self._sock.recv, self._pending
        result, lock, clock = self.result, self.lock, time.monotonic
        latencies: List[float] = []     # aggregate mode: folded at the end
        while True:
            try:
                data = receive(65535)
            except OSError:     # BlockingIOError: dry (or closed)
                break
            if self._ahead:
                self._ahead -= 1
            key = match_key(data)
            waiter = pending.take(key)
            if waiter is None:
                with lock:
                    pending.book_stray(key, result)
                continue
            answered_at = clock()
            if result.aggregate:
                # ``waiter`` is the sent_at float.
                self._pending_entries -= 1
                latencies.append(answered_at - waiter)
                continue
            self.ledger.answered(waiter, answered_at)
            if self.telemetry is not None:
                with lock:
                    self.telemetry.on_answer(result.sent[waiter])
        if latencies:
            with lock:      # a telemetry snapshot reads the histogram
                result.count_answers(latencies)


class _LiveDistributor:
    """Forwards records to queriers, sticky by source address.

    A record is forwarded as the body it arrived as — off the control
    link or out of its shard file — and routed on its packed source: the
    distributor never decodes one.
    """

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
        """Attach a querier that (re)connected mid-run (late accept).

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
                    index, body = payload
                    self.records_routed += 1
                    self._route(index, body,
                                RECORD_SOURCE.unpack_from(body)[0])
                elif kind == MSG_SHUTDOWN:
                    # Controller-ordered stop: the queriers shed their
                    # queues, and what the controller wrote behind the
                    # SHUTDOWN is shed here, up to END.
                    self._relay_shutdown()
                    self._shed(sum(frame[0] == MSG_RECORD
                                   for frame in self.inbound.messages()))
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

    def run_shard_file(self, path: str, pace_lead: float = 2.0,
                       first_index: int = 0,
                       records: Optional[int] = None) -> None:
        """Self-source records from a shard file (streaming replay).

        The control socket carries only the timing handshake — the
        controller sends TIME_SYNC then END without ever reading a
        record (it knows the shard only through the manifest) — and a
        SHUTDOWN when the deadline runs out.  Records come off disk a
        chunk at a time, inline (:func:`iter_record_bodies`); each body
        is checked by :func:`record_head`, numbered from
        ``first_index`` (the shard's offset in the manifest: the earlier
        shards' record counts), paced on its timestamp, routed on its
        packed source and forwarded undecoded.  Routing is *paced*: the
        distributor sleeps until the next record is ``pace_lead``
        seconds from its replay time and then forwards every record up
        to ``_PACE_QUANTUM`` further ahead, so the querier heaps hold at
        most a few seconds of queries instead of the whole shard and a
        dense trace costs one sleep per quantum, not per record.
        The control link is looked at, without waiting, before every
        pacing sleep and once per ``_FRAME_BLOCK`` records: on SHUTDOWN
        the queriers are told, and the shard's ``records`` (its manifest
        count) not yet routed are counted as shed.
        ``pace_lead <= 0`` disables pacing (as fast as the tree accepts,
        the classic firehose).
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
                    break
            else:
                if self._trace_start is None:
                    return   # controller vanished before the handshake
                if self._route_shard(path, pace_lead, first_index):
                    return
            # SHUTDOWN: the queriers shed their queues, and the rest of
            # the shard is shed here.
            self._relay_shutdown()
            if records is not None:
                self._shed(records - self.records_routed)
        except ProtocolError:
            pass  # torn-down control channel: flush END downstream
        finally:
            for outbound in self.querier_sockets:
                try:
                    outbound.send_end()
                except OSError:
                    pass

    def _route_shard(self, path: str, pace_lead: float,
                     first_index: int) -> bool:
        """Route the shard file's records on their schedule; False when
        a SHUTDOWN stopped it first."""
        # Trace time at the anchor plus what routing runs ahead: a
        # record's timestamp less this is its forwarding time on the
        # clock since the anchor.
        origin = self._trace_start + pace_lead
        # Records due up to here go without a look at the clock.
        released = 0.0 if pace_lead > 0 else float("inf")
        with open(path, "rb") as stream:
            for index, body in enumerate(iter_record_bodies(stream),
                                         first_index):
                timestamp, source = record_head(body)
                due = timestamp - origin
                if due > released:
                    released = self._pace(due)
                    if released is None:
                        return False
                elif not (index - first_index) % _FRAME_BLOCK \
                        and self._shutdown_arrived():
                    return False
                self.records_routed += 1
                self._route(index, body, source)
        return True

    def _pace(self, due: float) -> Optional[float]:
        """Sleep until ``due`` seconds past the anchor, flushing first
        and looking at the control link before every sleep.  Returns the
        end of the next release quantum, or None once SHUTDOWN is in."""
        now = time.monotonic() - self.sync_mono
        while now < due:
            self._flush()
            if self._shutdown_arrived():
                return None
            self.pace_sleeps += 1
            time.sleep(min(due - now, 0.25))
            now = time.monotonic() - self.sync_mono
        return now + _PACE_QUANTUM

    def _shutdown_arrived(self) -> bool:
        """A look, without waiting, at the control link of a shard-file
        run, where only a SHUTDOWN follows END.  An EOF (the controller
        gone) leaves the shard running: only SHUTDOWN stops it."""
        if not (self.inbound.has_frame()
                or select.select([self.inbound], (), (), 0.0)[0]):
            return False
        message = self.inbound.receive()
        return message is not None and message[0] == MSG_SHUTDOWN

    def _relay_shutdown(self) -> None:
        """Pass a SHUTDOWN on: the queriers shed their queues."""
        for outbound in self.querier_sockets:
            try:
                outbound.send_shutdown()
            except OSError:
                pass

    def _shed(self, count: int) -> None:
        """Count ``count`` records this distributor will never route."""
        if count and self.result is not None:
            with self.lock:
                self.result.deadline_shed += count

    def _route(self, index: int, body: bytes, source: int) -> None:
        """Send record ``index``'s body to the sticky querier of its
        packed ``source``; on a dead socket, reroute.

        A querier that crashed shows up as a broken pipe on its message
        socket.  The dead entity is dropped from the sticky map and the
        record re-assigned, so its sources fail over to live queriers.
        """
        first_try = True
        while self.assigner.entities:
            outbound = self.assigner.assign(source)
            try:
                outbound.write_record(index, body)
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
