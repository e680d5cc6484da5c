"""Queriers: the processes that actually speak DNS to the server (§2.6).

Each querier owns a set of network sockets and emulates query sources:
queries from the same original source IP use the same socket (UDP) or
the same open connection (TCP/TLS) — "same-source queries use the same
socket if it is still open; new sources start new sockets".  For
connection-oriented replay this is what makes connection *reuse* happen,
the effect Figure 15 measures.

With a :class:`~repro.netsim.RetryPolicy` configured, the querier also
recovers from injected faults: UDP queries time out and are re-sent
with exponential backoff (optionally falling back to TCP), and stream
channels that reset or close with queries in flight are reopened and
the stranded queries re-sent.  Every such event is counted in
:class:`~repro.replay.result.ReplayResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..dns import DNS_OVER_TLS_PORT, DNS_PORT, Rcode
from ..dns.wire import QueryKey, question_key, read_question
from ..netsim import (EventLoop, Host, NetworkError, RetryPolicy,
                      TcpConnection, TcpOptions, TcpStack, Timer,
                      TlsEndpoint, UdpSocket)
from ..netsim.packet import IpPacket, WireView, make_udp_packet
from ..server.dnsio import StreamFramer, frame_message
from ..trace import QueryRecord
from .result import ReplayResult
from .supervision import AimdPacer, PacingConfig

_SERVFAIL = int(Rcode.SERVFAIL)

# Keys per generation of a ResponseTable's answered window.
ANSWERED_WINDOW = 4096


def match_key(wire: bytes) -> QueryKey:
    """The key a query is filed under and its response looked up by:
    ``(message id, qname, qtype)``, from :func:`question_key`.

    Matching on the id alone mismatches when two in-flight queries share
    an id on one connection; the question section disambiguates, as a
    real stub does.  The live querier's table and the sim querier's
    TCP/TLS channels call this, send side and answer side, on the bytes
    they put on or took off the wire, so the two sides cannot disagree
    on a name.  A message with no readable question pairs on its id
    alone (an echo of junk still answers the junk).  The sim querier's
    UDP table does not use it: it pairs on (socket port, message id),
    one socket per source.
    """
    return question_key(wire) or (int.from_bytes(wire[:2], "big"), b"", 0)


def query_qname(wire: bytes) -> str:
    """``SentQuery.qname`` of a query's wire, in every querier: the first
    question's name in lowercased presentation format, or ``-`` when the
    wire holds no readable question.  Read through
    :func:`~repro.dns.wire.read_question`, whose entry the sim server
    keys its cache from too: traces repeat names.
    """
    return read_question(wire).qname


@dataclass
class QuerierConfig:
    """Client-side transport knobs."""

    nagle: bool = False            # paper disables Nagle at the client
    # Recovery budget; None preserves the fire-and-forget seed behaviour
    # (no timeouts, no re-sends, no reconnects).
    retry: Optional[RetryPolicy] = None
    # Overload cooperation (both off by default).  ``pacing`` caps the
    # querier's send rate with AIMD backoff on SERVFAIL/timeouts;
    # ``send_highwater`` holds stream sends while the TCP send buffer
    # sits above the watermark instead of queueing unbounded bytes.
    pacing: Optional[PacingConfig] = None
    send_highwater: Optional[int] = None


class ResponseTable:
    """One querier's response matching: the queries in flight by key,
    and the keys answered lately.  The sim UDP table (keyed by socket
    port and message ID), every sim stream channel and the live querier
    (both keyed by :func:`match_key`) each hold one.

    A key holds a FIFO of waiters, whatever its driver needs back when
    the answer comes; an answer takes the oldest.  A key whose last
    waiter is answered joins the answered window, which tells a
    duplicate answer from an unmatched one: of two generations of at
    most :data:`ANSWERED_WINDOW` keys, a full newer one becomes the
    older one and the previous older one is dropped.  A key leaves the
    window when it is filed again.
    """

    __slots__ = ("waiting", "newer", "older")

    def __init__(self) -> None:
        self.waiting: Dict[object, list] = {}
        self.newer: Set[object] = set()
        self.older: Set[object] = set()

    def __len__(self) -> int:
        """Keys with a query in flight."""
        return len(self.waiting)

    def file(self, key: object, waiter: object) -> None:
        """A query went out under ``key``."""
        self.waiting.setdefault(key, []).append(waiter)
        self.newer.discard(key)
        self.older.discard(key)

    def take(self, key: object):
        """The oldest waiter under ``key``, for its answer; None when no
        query waits (a stray: see :meth:`book_stray`)."""
        waiting = self.waiting.get(key)
        if not waiting:
            return None
        waiter = waiting.pop(0)
        if not waiting:
            del self.waiting[key]
            newer = self.newer
            newer.add(key)
            if len(newer) >= ANSWERED_WINDOW:
                self.older, self.newer = newer, set()
        return waiter

    def drop(self, key: object, waiter: object) -> None:
        """Stop waiting for one query (given up, or gone to TCP)."""
        waiting = self.waiting.get(key)
        if waiting and waiter in waiting:
            waiting.remove(waiter)
            if not waiting:
                del self.waiting[key]

    def drain(self) -> list:
        """Every waiter, oldest first per key; the table is left empty
        (a lost stream channel's queries, for re-send)."""
        drained = [waiter for waiting in self.waiting.values()
                   for waiter in waiting]
        self.waiting.clear()
        return drained

    def book_stray(self, key: object, result: ReplayResult) -> None:
        """Count an answer :meth:`take` found no query for: a duplicate
        when ``key`` was answered lately, else unmatched."""
        if key in self.newer or key in self.older:
            result.duplicate_responses += 1
        else:
            result.unmatched_responses += 1


@dataclass(slots=True)
class _PendingUdp:
    """One in-flight UDP query awaiting its response (or timeout)."""

    row: int                # its row in the querier's result
    record: QueryRecord
    sock: UdpSocket
    tries: int = 0          # re-sends performed so far
    timeouts: int = 0       # consecutive per-try timeouts
    timer: Optional[Timer] = None


class _StreamChannel:
    """One TCP or TLS connection shared by all queries of one source."""

    def __init__(self, querier: "SimQuerier", source: str, dst: str,
                 dport: int, protocol: str):
        self.querier = querier
        self.source = source
        self.dst = dst
        self.dport = dport
        self.protocol = protocol
        self.framer = StreamFramer()
        # Waiters are (result row, record) pairs.
        self.pending = ResponseTable()
        self.open = True
        self.ever_used = False

        options = TcpOptions(
            nagle=querier.config.nagle,
            send_highwater=querier.config.send_highwater)
        stack: TcpStack = querier.host.tcp_stack
        self.tcp = stack.connect(querier.host.primary_address, dst, dport,
                                 options)
        self._paused: List[QueryRecord] = []
        if querier.config.send_highwater is not None:
            self.tcp.on_writable = lambda _cn: self._resume()
        self.tls: Optional[TlsEndpoint] = None
        if protocol == "tls":
            self.tls = TlsEndpoint(self.tcp, "client")
            self.tls.on_data = lambda _ep, data: self._on_bytes(data)
            self.tls.on_close = lambda _ep: self._on_closed()
        else:
            self.tcp.on_data = lambda _cn, data: self._on_bytes(data)
        self.tcp.on_close = lambda cn: self._on_server_close(cn)
        self.tcp.on_reset = lambda _cn: self._on_closed()

    def send(self, record: QueryRecord, row: int) -> None:
        self.ever_used = True
        self.pending.file(match_key(record.wire), (row, record))
        if self.querier.config.send_highwater is not None \
                and not self.tcp.writable:
            # Backpressure: the connection is not draining; hold the
            # frame until the send buffer falls below the watermark.
            self._paused.append(record)
            self.querier.result.backpressure_pauses += 1
            return
        self._emit_frame(record.wire)

    def _emit_frame(self, wire: bytes) -> None:
        framed = frame_message(wire)
        if self.tls is not None:
            self.tls.send(framed)
        else:
            self.tcp.send(framed)

    def _resume(self) -> None:
        while self._paused and self.tcp.writable:
            record = self._paused.pop(0)
            try:
                self._emit_frame(record.wire)
            except NetworkError:
                # The channel died while paused; channel-loss recovery
                # re-sends anything still pending.
                break

    def _on_bytes(self, data: bytes) -> None:
        querier = self.querier
        for wire in self.framer.feed(data):
            key = match_key(wire)
            waiter = self.pending.take(key)
            if waiter is None:
                self.pending.book_stray(key, querier.result)
                continue
            sent = querier.result.sent
            sent.answer(waiter[0], querier.loop.now)
            querier._note_response(wire)
            if querier.telemetry is not None:
                querier.telemetry.on_answer(sent[waiter[0]])

    def _on_server_close(self, conn: TcpConnection) -> None:
        self.open = False
        conn.close()
        self.querier._channel_lost(self)

    def _on_closed(self) -> None:
        self.open = False
        self.querier._channel_lost(self)


class SimQuerier:
    """One querier process: sockets, source affinity, reply matching."""

    def __init__(self, querier_id: int, host: Host, result: ReplayResult,
                 config: Optional[QuerierConfig] = None):
        self.querier_id = querier_id
        self.host = host
        self.loop: EventLoop = host.network.loop
        self.result = result
        self.config = config if config is not None else QuerierConfig()
        if host.tcp_stack is None:
            TcpStack(host)
        self._udp_sockets: Dict[str, UdpSocket] = {}
        # Keyed by socket port and message id, packed in one int (no
        # tuple for the collector to walk); waiters are _PendingUdp.
        self._udp_pending = ResponseTable()
        self._channels: Dict[Tuple[str, str], _StreamChannel] = {}
        self.queries_sent = 0
        self._pacer = (AimdPacer(self.config.pacing, self.loop.now)
                       if self.config.pacing is not None else None)
        # Telemetry hub, installed by the engine only when per-query
        # recording is enabled; every hook below is behind a None check.
        self.telemetry = None

    # -- sending ------------------------------------------------------------

    def send(self, index: int, record: QueryRecord,
             scheduled_at: float) -> None:
        if self._pacer is not None:
            at = self._pacer.reserve(self.loop.now)
            if at > self.loop.now:
                # Paced: hold the send until the AIMD governor's slot.
                self.result.paced_queries += 1
                self.loop.call_later(at - self.loop.now, self._send_now,
                                     index, record, scheduled_at)
                return
        self._send_now(index, record, scheduled_at)

    def book_now(self, index: int, record: QueryRecord,
                 scheduled_at: float) -> Optional[int]:
        """Book a send due at this instant ahead of :meth:`send_batch`:
        its row, or None for a paced querier, whose sends book
        themselves when they leave (see :meth:`send`)."""
        if self._pacer is not None:
            return None
        return self._book(index, record, scheduled_at)

    def send_batch(self, items: List[Tuple[int, QueryRecord, float,
                                           Optional[int]]],
                   outbox: List[IpPacket]) -> None:
        """Send several records due at the same instant, in order:
        ``items`` are ``(index, record, scheduled_at, row)``, ``row``
        what :meth:`book_now` returned for the record.

        Per-record semantics match :meth:`send` exactly.  UDP packets
        are appended to ``outbox``, the instant's packets of this
        querier's host, which the caller hands to one
        ``Host.send_packet_batch`` once every querier due at the
        instant has added its own.  A record that leaves by another
        path — a TCP/TLS record, or any record of a paced querier
        (pacing reshapes per-query timing) — first flushes the outbox,
        so the host's packets keep record order.
        """
        for index, record, scheduled_at, row in items:
            if row is None:
                self._flush(outbox)
                self.send(index, record, scheduled_at)
            elif record.protocol == "udp":
                self._send_udp(record, row, outbox)
            else:
                self._flush(outbox)
                self._send_stream(record, row)

    def _flush(self, outbox: List[IpPacket]) -> None:
        if outbox:
            self.host.send_packet_batch(outbox)
            outbox.clear()

    def _send_now(self, index: int, record: QueryRecord,
                  scheduled_at: float) -> None:
        row = self._book(index, record, scheduled_at)
        if record.protocol == "udp":
            self._send_udp(record, row)
        else:
            self._send_stream(record, row)

    def _book(self, index: int, record: QueryRecord,
              scheduled_at: float) -> int:
        """File one send, at this instant, in the result and the hub:
        its row."""
        row = self.result.add((index, record.src, record.timestamp,
                               scheduled_at, self.loop.now, record.protocol,
                               query_qname(record.wire), None, False,
                               self.querier_id))
        self.queries_sent += 1
        if self.telemetry is not None:
            self.telemetry.on_send(self.result.sent[row], record.wire)
        return row

    # -- overload cooperation ------------------------------------------------

    def _note_response(self, wire: bytes) -> None:
        """Classify a matched response for the pacing control law."""
        if type(wire) is WireView:
            body = wire.body    # the wire from byte 2 on
            rcode = body[1] & 0x0F if len(body) >= 2 else 0
        else:
            rcode = wire[3] & 0x0F if len(wire) >= 4 else 0
        if rcode == _SERVFAIL:
            self.result.servfails_observed += 1
            self._congestion()
        elif self._pacer is not None:
            self._pacer.on_success()

    def _congestion(self) -> None:
        if self._pacer is not None and self._pacer.on_congestion():
            self.result.pace_rate_cuts += 1

    # -- UDP with timeout/retry ---------------------------------------------

    def _send_udp(self, record: QueryRecord, row: int,
                  outbox: Optional[List[IpPacket]] = None) -> None:
        """Send one UDP query: through ``sendto``, or onto ``outbox``
        for the caller's batch handoff."""
        sock = self._udp_sockets.get(record.src)
        if sock is None:
            sock = self.host.bind_udp(self.host.primary_address, 0,
                                      self._on_udp_response)
            self._udp_sockets[record.src] = sock
        wire = record.wire
        key = (sock.port << 16) | (wire[0] << 8) | wire[1]
        pending = _PendingUdp(row, record, sock)
        self._udp_pending.file(key, pending)
        if outbox is None:
            sock.sendto(wire, record.dst, record.dport)
        else:
            outbox.append(make_udp_packet(sock.address, sock.port,
                                          record.dst, record.dport, wire))
        policy = self.config.retry
        if policy is not None:
            pending.timer = self.loop.call_later(
                policy.timeout_for(0), self._udp_timeout_fire, key, pending)

    def _on_udp_response(self, sock: UdpSocket, data: bytes, _src: str,
                         _sport: int) -> None:
        # A zero-copy answer's header holds its message ID.
        head = data.header if type(data) is WireView else data
        if len(head) < 2:
            return
        key = (sock.port << 16) | (head[0] << 8) | head[1]
        pending = self._udp_pending.take(key)
        if pending is None:
            self._udp_pending.book_stray(key, self.result)
            return
        sent = self.result.sent
        sent.answer(pending.row, self.loop.now)
        self._note_response(data)
        if self.telemetry is not None:
            self.telemetry.on_answer(sent[pending.row])
        if pending.timer is not None:
            pending.timer.cancel()
            pending.timer = None

    def _udp_timeout_fire(self, key: int,
                          pending: _PendingUdp) -> None:
        pending.timer = None
        entry = self.result.sent[pending.row]
        if entry.answered_at is not None:
            return
        policy = self.config.retry
        pending.timeouts += 1
        entry.timeouts += 1
        self.result.udp_timeouts += 1
        self._congestion()
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_timeout(entry)
        if policy.tcp_fallback_after is not None \
                and pending.timeouts >= policy.tcp_fallback_after:
            self._udp_pending.drop(key, pending)
            entry.tcp_fallback = True
            self.result.tcp_fallbacks += 1
            self.result.retries += 1
            entry.retries += 1
            if telemetry is not None:
                telemetry.on_tcp_fallback(entry)
            self._send_stream(pending.record, pending.row, protocol="tcp")
            return
        if pending.tries >= policy.max_retries:
            self._udp_pending.drop(key, pending)
            entry.gave_up = True
            self.result.gave_up += 1
            if telemetry is not None:
                telemetry.on_giveup(entry)
            return
        pending.tries += 1
        entry.retries += 1
        self.result.retries += 1
        if telemetry is not None:
            telemetry.on_retry(entry, pending.record.wire)
        try:
            pending.sock.sendto(pending.record.wire, pending.record.dst,
                                pending.record.dport)
        except NetworkError:
            self.result.send_failures += 1
            return
        pending.timer = self.loop.call_later(
            policy.timeout_for(pending.tries), self._udp_timeout_fire,
            key, pending)

    # -- TCP/TLS with reconnection -------------------------------------------

    def _send_stream(self, record: QueryRecord, row: int,
                     protocol: Optional[str] = None) -> None:
        protocol = protocol if protocol is not None else record.protocol
        dport = record.dport
        if protocol == "tls" and dport == DNS_PORT:
            dport = DNS_OVER_TLS_PORT
        key = (record.src, protocol)
        channel = self._channels.get(key)
        if channel is None or not channel.open:
            channel = _StreamChannel(self, record.src, record.dst, dport,
                                     protocol)
            self._channels[key] = channel
            self.result.sent[row].fresh_connection = True
        try:
            channel.send(record, row)
        except NetworkError:
            # The server's idle close raced with this send: retry once
            # on a fresh connection, as a real stub/resolver would.
            channel = _StreamChannel(self, record.src, record.dst, dport,
                                     protocol)
            self._channels[key] = channel
            self.result.sent[row].fresh_connection = True
            channel.send(record, row)

    def _channel_lost(self, channel: _StreamChannel) -> None:
        """Re-send a dead channel's in-flight queries on a new one.

        Only runs with a retry policy configured; the seed behaviour
        (stranded queries stay stranded) is kept otherwise so lossless
        benchmark outputs are reproducible.
        """
        policy = self.config.retry
        if policy is None:
            return  # seed behaviour: stranded queries stay stranded
        stranded = channel.pending.drain()
        if not stranded:
            return
        live = [(self.result.sent[row], record) for row, record in stranded]
        retryable = []
        for entry, record in live:
            if entry.answered_at is not None:
                continue
            if entry.retries >= policy.max_retries:
                if not entry.gave_up:
                    entry.gave_up = True
                    self.result.gave_up += 1
                    if self.telemetry is not None:
                        self.telemetry.on_giveup(entry)
            else:
                retryable.append((entry, record))
        if not retryable:
            return
        self.result.reconnects += 1
        replacement = _StreamChannel(self, channel.source, channel.dst,
                                     channel.dport, channel.protocol)
        self._channels[(channel.source, channel.protocol)] = replacement
        for entry, record in retryable:
            entry.retries += 1
            self.result.retries += 1
            entry.fresh_connection = True
            if self.telemetry is not None:
                self.telemetry.on_retry(entry, record.wire)
            replacement.send(record, entry.row)

    # -- statistics ----------------------------------------------------------

    def open_connections(self) -> int:
        return sum(1 for channel in self._channels.values() if channel.open)

    def socket_count(self) -> int:
        return len(self._udp_sockets) + len(self._channels)
