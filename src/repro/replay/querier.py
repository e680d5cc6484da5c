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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..dns import DNS_OVER_TLS_PORT, DNS_PORT, Rcode
from ..netsim import (EventLoop, Host, NetworkError, RetryPolicy,
                      SessionCache, TcpConnection, TcpOptions, TcpStack,
                      Timer, TlsEndpoint, UdpSocket)
from ..netsim.packet import IpPacket, UdpSegment, packet_checksum
from ..server.dnsio import StreamFramer, frame_message
from ..telemetry.tracing import QueryKey, wire_question_key
from ..trace import QueryRecord
from .result import ReplayResult, SentQuery
from .supervision import AimdPacer, PacingConfig

# Response-matching key: (message id, qname, qtype).  Matching on the id
# alone mismatches when two in-flight queries share an id on one
# connection; the question section disambiguates, as a real stub does.
MatchKey = QueryKey

# Presentation-format qnames memoized on question-section bytes, shared
# across queriers (the distributor spreads the same sources over many).
# The cap is a safety valve for traces with unbounded name populations.
_QNAME_MEMO: Dict[bytes, str] = {}
_QNAME_MEMO_LIMIT = 1 << 16


def match_key(wire: bytes) -> MatchKey:
    """The key a query is filed under and its response looked up by.

    Sim and live queriers, send side and answer side, all call this on
    the bytes they put on or took off the wire, so the two sides cannot
    disagree on a name.  A message with no readable question pairs on
    its id alone (an echo of junk still answers the junk).
    """
    return wire_question_key(wire) \
        or (int.from_bytes(wire[:2], "big"), b"", 0)


@dataclass
class QuerierConfig:
    """Client-side transport knobs."""

    nagle: bool = False            # paper disables Nagle at the client
    tls_session_resumption: bool = False
    connection_close_timeout: Optional[float] = None  # client-side close
    respond_to_server_close: bool = True
    # Recovery budget; None preserves the fire-and-forget seed behaviour
    # (no timeouts, no re-sends, no reconnects).
    retry: Optional[RetryPolicy] = None
    # Overload cooperation (both off by default).  ``pacing`` caps the
    # querier's send rate with AIMD backoff on SERVFAIL/timeouts;
    # ``send_highwater`` holds stream sends while the TCP send buffer
    # sits above the watermark instead of queueing unbounded bytes.
    pacing: Optional[PacingConfig] = None
    send_highwater: Optional[int] = None


@dataclass
class _PendingUdp:
    """One in-flight UDP query awaiting its response (or timeout)."""

    entry: SentQuery
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
        self.pending: Dict[MatchKey, List[Tuple[SentQuery, QueryRecord]]] = {}
        self._answered: Set[MatchKey] = set()
        self.open = True
        self.ever_used = False

        options = TcpOptions(
            nagle=querier.config.nagle,
            idle_timeout=querier.config.connection_close_timeout,
            send_highwater=querier.config.send_highwater)
        stack: TcpStack = querier.host.tcp_stack
        self.tcp = stack.connect(querier.host.primary_address, dst, dport,
                                 options)
        self._paused: List[QueryRecord] = []
        if querier.config.send_highwater is not None:
            self.tcp.on_writable = lambda _cn: self._resume()
        self.tls: Optional[TlsEndpoint] = None
        if protocol == "tls":
            cache = querier.tls_cache if \
                querier.config.tls_session_resumption else None
            self.tls = TlsEndpoint(self.tcp, "client", session_cache=cache)
            self.tls.on_data = lambda _ep, data: self._on_bytes(data)
            self.tls.on_close = lambda _ep: self._on_closed()
        else:
            self.tcp.on_data = lambda _cn, data: self._on_bytes(data)
        self.tcp.on_close = lambda cn: self._on_server_close(cn)
        self.tcp.on_reset = lambda _cn: self._on_closed()

    def send(self, record: QueryRecord, entry: SentQuery) -> None:
        self.ever_used = True
        key = match_key(record.wire)
        self.pending.setdefault(key, []).append((entry, record))
        self._answered.discard(key)
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
        for wire in self.framer.feed(data):
            key = match_key(wire)
            waiting = self.pending.get(key)
            if waiting:
                entry, _record = waiting.pop(0)
                entry.answered_at = self.querier.loop.now
                self.querier._note_response(wire)
                if self.querier.telemetry is not None:
                    self.querier.telemetry.on_answer(entry)
                if not waiting:
                    del self.pending[key]
                    self._answered.add(key)
            elif key in self._answered:
                self.querier.result.duplicate_responses += 1
            else:
                self.querier.result.unmatched_responses += 1

    def take_pending(self) -> List[Tuple[SentQuery, QueryRecord]]:
        """Drain the in-flight queries (for re-send on a new channel)."""
        stranded = [pair for waiting in self.pending.values()
                    for pair in waiting]
        self.pending.clear()
        return stranded

    def _on_server_close(self, conn: TcpConnection) -> None:
        self.open = False
        if self.querier.config.respond_to_server_close:
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
        self.tls_cache = SessionCache()
        self._udp_sockets: Dict[str, UdpSocket] = {}
        self._udp_pending: Dict[Tuple[int, int], List[_PendingUdp]] = {}
        self._udp_answered: Set[Tuple[int, int]] = set()
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

    def send_batch(self, items: List[Tuple[int, QueryRecord, float]]) -> None:
        """Send several records due at the same instant, in order.

        Per-record semantics match :meth:`send` exactly; datagrams for
        consecutive same-socket records leave through one
        ``UdpSocket.sendto_batch`` call, amortizing the packet path.
        Paced or per-query-traced queriers (and singleton batches) fall
        back to the one-by-one path — pacing reshapes per-query timing
        and tracing hooks are per-send.
        """
        if (self._pacer is not None or self.telemetry is not None
                or len(items) == 1):
            for index, record, scheduled_at in items:
                self.send(index, record, scheduled_at)
            return
        loop = self.loop
        now = loop.now
        policy = self.config.retry
        result = self.result
        querier_id = self.querier_id
        udp_pending = self._udp_pending
        # UDP packets accumulate across *all* this querier's sockets
        # (they share the host) and leave through one
        # ``Host.send_packet_batch`` — the batch survives the per-source
        # socket model instead of degenerating into runs of one.
        packets: List[IpPacket] = []
        for index, record, scheduled_at in items:
            entry = SentQuery(
                index=index, source=record.src, trace_time=record.timestamp,
                scheduled_at=scheduled_at, sent_at=now,
                protocol=record.protocol, qname=self._qname(record),
                querier_id=querier_id)
            result.add(entry)
            self.queries_sent += 1
            if record.protocol != "udp":
                if packets:
                    self.host.send_packet_batch(packets)
                    packets = []
                self._send_stream(record, entry)
                continue
            sock = self._udp_sockets.get(record.src)
            if sock is None:
                sock = self.host.bind_udp(self.host.primary_address, 0,
                                          self._on_udp_response)
                self._udp_sockets[record.src] = sock
            wire = record.wire
            key = (sock.port, (wire[0] << 8) | wire[1])
            pending = _PendingUdp(entry, record, sock)
            udp_pending.setdefault(key, []).append(pending)
            self._udp_answered.discard(key)
            segment = UdpSegment(sock.port, record.dport, wire)
            packets.append(IpPacket(
                sock.address, record.dst, segment,
                packet_checksum(sock.address, record.dst, segment)))
            if policy is not None:
                pending.timer = loop.call_later(
                    policy.timeout_for(0), self._udp_timeout_fire, key,
                    pending)
        if packets:
            self.host.send_packet_batch(packets)

    def _send_now(self, index: int, record: QueryRecord,
                  scheduled_at: float) -> None:
        entry = SentQuery(
            index=index, source=record.src, trace_time=record.timestamp,
            scheduled_at=scheduled_at, sent_at=self.loop.now,
            protocol=record.protocol, qname=self._qname(record),
            querier_id=self.querier_id)
        self.result.add(entry)
        self.queries_sent += 1
        if self.telemetry is not None:
            self.telemetry.on_send(entry, record.wire)
        if record.protocol == "udp":
            self._send_udp(record, entry)
        else:
            self._send_stream(record, entry)

    # -- overload cooperation ------------------------------------------------

    def _note_response(self, wire: bytes) -> None:
        """Classify a matched response for the pacing control law."""
        rcode = wire[3] & 0x0F if len(wire) >= 4 else 0
        if rcode == int(Rcode.SERVFAIL):
            self.result.servfails_observed += 1
            self._congestion()
        elif self._pacer is not None:
            self._pacer.on_success()

    def _congestion(self) -> None:
        if self._pacer is not None and self._pacer.on_congestion():
            self.result.pace_rate_cuts += 1

    def _qname(self, record: QueryRecord) -> str:
        # Memoized on the question-section bytes: replay traces are
        # heavily skewed (the zipf workloads repeat a few hundred
        # names), and parse + presentation-format rendering per send was
        # one of the top hot-path costs.  Records sharing the bytes past
        # the message ID share the qname by construction.
        key = record.wire[12:]
        qname = _QNAME_MEMO.get(key)
        if qname is None:
            question = record.question()
            qname = question[0].to_text() if question else "-"
            if len(_QNAME_MEMO) >= _QNAME_MEMO_LIMIT:
                _QNAME_MEMO.clear()
            _QNAME_MEMO[key] = qname
        return qname

    # -- UDP with timeout/retry ---------------------------------------------

    def _send_udp(self, record: QueryRecord, entry: SentQuery) -> None:
        sock = self._udp_sockets.get(record.src)
        if sock is None:
            sock = self.host.bind_udp(self.host.primary_address, 0,
                                      self._on_udp_response)
            self._udp_sockets[record.src] = sock
        message_id = int.from_bytes(record.wire[:2], "big")
        key = (sock.port, message_id)
        pending = _PendingUdp(entry, record, sock)
        self._udp_pending.setdefault(key, []).append(pending)
        self._udp_answered.discard(key)
        sock.sendto(record.wire, record.dst, record.dport)
        policy = self.config.retry
        if policy is not None:
            pending.timer = self.loop.call_later(
                policy.timeout_for(0), self._udp_timeout_fire, key, pending)

    def _on_udp_response(self, sock: UdpSocket, data: bytes, _src: str,
                         _sport: int) -> None:
        if len(data) < 2:
            return
        message_id = int.from_bytes(data[:2], "big")
        key = (sock.port, message_id)
        waiting = self._udp_pending.get(key)
        if waiting:
            pending = waiting.pop(0)
            pending.entry.answered_at = self.loop.now
            self._note_response(data)
            if self.telemetry is not None:
                self.telemetry.on_answer(pending.entry)
            if pending.timer is not None:
                pending.timer.cancel()
                pending.timer = None
            if not waiting:
                del self._udp_pending[key]
                self._udp_answered.add(key)
        elif key in self._udp_answered:
            self.result.duplicate_responses += 1
        else:
            self.result.unmatched_responses += 1

    def _udp_timeout_fire(self, key: Tuple[int, int],
                          pending: _PendingUdp) -> None:
        pending.timer = None
        if pending.entry.answered_at is not None:
            return
        policy = self.config.retry
        pending.timeouts += 1
        pending.entry.timeouts += 1
        self.result.udp_timeouts += 1
        self._congestion()
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.on_timeout(pending.entry)
        if policy.tcp_fallback_after is not None \
                and pending.timeouts >= policy.tcp_fallback_after:
            self._drop_pending(key, pending)
            pending.entry.tcp_fallback = True
            self.result.tcp_fallbacks += 1
            self.result.retries += 1
            pending.entry.retries += 1
            if telemetry is not None:
                telemetry.on_tcp_fallback(pending.entry)
            self._send_stream(pending.record, pending.entry,
                              protocol="tcp")
            return
        if pending.tries >= policy.max_retries:
            self._drop_pending(key, pending)
            pending.entry.gave_up = True
            self.result.gave_up += 1
            if telemetry is not None:
                telemetry.on_giveup(pending.entry)
            return
        pending.tries += 1
        pending.entry.retries += 1
        self.result.retries += 1
        if telemetry is not None:
            telemetry.on_retry(pending.entry, pending.record.wire)
        try:
            pending.sock.sendto(pending.record.wire, pending.record.dst,
                                pending.record.dport)
        except NetworkError:
            self.result.send_failures += 1
            return
        pending.timer = self.loop.call_later(
            policy.timeout_for(pending.tries), self._udp_timeout_fire,
            key, pending)

    def _drop_pending(self, key: Tuple[int, int],
                      pending: _PendingUdp) -> None:
        waiting = self._udp_pending.get(key)
        if waiting and pending in waiting:
            waiting.remove(pending)
            if not waiting:
                del self._udp_pending[key]

    # -- TCP/TLS with reconnection -------------------------------------------

    def _send_stream(self, record: QueryRecord, entry: SentQuery,
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
            entry.fresh_connection = True
        try:
            channel.send(record, entry)
        except NetworkError:
            # The server's idle close raced with this send: retry once
            # on a fresh connection, as a real stub/resolver would.
            channel = _StreamChannel(self, record.src, record.dst, dport,
                                     protocol)
            self._channels[key] = channel
            entry.fresh_connection = True
            channel.send(record, entry)

    def _channel_lost(self, channel: _StreamChannel) -> None:
        """Re-send a dead channel's in-flight queries on a new one.

        Only runs with a retry policy configured; the seed behaviour
        (stranded queries stay stranded) is kept otherwise so lossless
        benchmark outputs are reproducible.
        """
        policy = self.config.retry
        if policy is None:
            return  # seed behaviour: stranded queries stay stranded
        stranded = channel.take_pending()
        if not stranded:
            return
        live = [(entry, record) for entry, record in stranded
                if entry.answered_at is None]
        retryable = []
        for entry, record in live:
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
            replacement.send(record, entry)

    # -- statistics ----------------------------------------------------------

    def open_connections(self) -> int:
        return sum(1 for channel in self._channels.values() if channel.open)

    def socket_count(self) -> int:
        return len(self._udp_sockets) + len(self._channels)
