"""One DNS server core, bound to a simulated host's transports.

``DnsServerCore`` needs no host: an engine, its counters and telemetry,
and the per-datagram routine.  ``HostedDnsServer`` binds it to a
simulated host's UDP/TCP/TLS sockets, CPU meter and admission control
(the analogue of running ``nsd`` with 16 processes on the testbed
server, §5.2.1); :class:`repro.server.live.LiveDnsServer` runs it on a
real UDP socket.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional

from ..dns import DNS_OVER_TLS_PORT, DNS_PORT, Message, Rcode, WireError
from ..netsim import (Host, NetworkError, ServerResourceModel,
                      TcpConnection, TcpOptions, TcpStack, TlsEndpoint)
from ..dns.wire import read_question
from ..telemetry import MetricsRegistry, Telemetry
from .dnsio import FramingError, StreamFramer, frame_message
from .overload import OverloadConfig, OverloadControl, minimal_wire


@dataclass
class TransportConfig:
    """Server-side transport knobs the experiments sweep."""

    udp: bool = True
    tcp: bool = True
    tls: bool = False
    tcp_idle_timeout: Optional[float] = 20.0  # Fig 11/13/14 sweep 5-40 s
    nagle: bool = True  # paper §5.2.4 suggests disabling as an optimization
    # Backpressure knobs (all off by default).  ``max_pipelined`` caps
    # in-flight (received, not yet responded) queries per stream
    # connection; exceeding it aborts the connection with RST instead of
    # letting a pipelining client queue unbounded work.
    # ``max_stream_buffer`` bounds the framer's reassembly buffer per
    # connection (a guard against length-prefix floods).
    max_pipelined: Optional[int] = None
    max_stream_buffer: Optional[int] = None


# The batch cell of a datagram served alone: no batch is ever open.
_UNBATCHED = [None]


class DnsServerCore:
    """An engine and the routine that serves it a datagram at a time
    (``_serve_udp`` -> ``_serve`` -> ``_dispatch`` -> ``_deliver``).

    ``overload`` and the CPU ``_charge`` stay inert here: only the
    netsim binding has an event loop to queue on and a meter to charge.
    """

    def __init__(self, engine, perf: Optional[MetricsRegistry] = None,
                 telemetry: Optional[Telemetry] = None):
        self.engine = engine
        self.perf = perf if perf is not None else MetricsRegistry()
        if getattr(engine, "perf", None) is None and hasattr(engine, "perf"):
            engine.perf = self.perf
        # Per-query hooks are installed only when the hub records per query.
        self.telemetry: Optional[Telemetry] = (
            telemetry if telemetry is not None and telemetry.per_query
            else None)
        if self.telemetry is not None \
                and getattr(engine, "telemetry", None) is None \
                and hasattr(engine, "telemetry"):
            engine.telemetry = self.telemetry
        self.overload: Optional[OverloadControl] = None
        self._charge: Callable[..., None] = lambda kind, units=1: None
        self.decode_errors = 0
        # Cached counter handles: the per-packet paths below bump these
        # thousands of times per simulated second; a handle is one bound
        # call instead of registry lookup + string hash per event.
        self._queries_counter = self.perf.counter("hosting.queries")
        self._decodes_counter = self.perf.counter("hosting.decodes")
        self._responses_counter = self.perf.counter("hosting.responses_sent")
        self._responses_by_transport = {
            transport: self.perf.counter(f"hosting.responses_sent.{transport}")
            for transport in ("udp", "tcp", "tls")}
        # Decode-free zero-copy serving whenever the engine can answer
        # straight off the query wire and no admission control needs the
        # decoded Message.  Telemetry keys its hooks on wire bytes, so a
        # traced server takes this path too.
        self._fast_serve = getattr(engine, "serve_wire_fast", None)

    # -- UDP --------------------------------------------------------------

    def _on_udp(self, sock, data: bytes, src: str, sport: int) -> None:
        if self._serve_udp(sock, data, src, sport, _UNBATCHED):
            self._book_fast_hits(1)

    def _on_udp_batch(self, sock, datagrams) -> None:
        """Serve a datagram batch; respond through one batch send.

        Each datagram is served as a lone one is (same verdicts, same
        response bytes, same send order); the answers produced
        synchronously leave through one ``sock.sendto_batch``, so a
        burst of cache hits costs one trip down the send path.
        """
        batch = [[]]
        fast_hits = 0
        for data, src, sport in datagrams:
            if sock.closed:
                break
            fast_hits += self._serve_udp(sock, data, src, sport, batch)
        if fast_hits:
            self._book_fast_hits(fast_hits)
        out, batch[0] = batch[0], None
        if out and not sock.closed:
            sock.sendto_batch(out)

    def _serve_udp(self, sock, data: bytes, src: str, sport: int,
                   batch: list) -> bool:
        """Serve one datagram; True when the zero-copy path answered it.

        The answer joins the open batch ``batch[0]``, or leaves through
        ``sendto`` when none is open: a lone datagram, or an answer an
        async engine produces after its batch was flushed.
        """
        fast = self._fast_serve
        if fast is not None:
            wire = fast(data, src, "udp")
            if wire is not None:
                telemetry = self.telemetry
                if telemetry is not None:
                    # What the decode path reports for a cache hit.
                    telemetry.server_event(data, "server.recv",
                                           transport="udp")
                    telemetry.server_event(data, "server.cache_hit")
                    telemetry.on_server_response(data, wire, "udp")
                self._answer_udp(sock, src, sport, batch, wire)
                return True
        # CPU is charged in _serve, once the admission verdict is known:
        # a query shed at the door costs udp_shed, not the full path.
        self._serve(data, src, "udp",
                    partial(self._answer_udp, sock, src, sport, batch))
        return False

    @staticmethod
    def _answer_udp(sock, src: str, sport: int, batch: list,
                    wire) -> None:
        out = batch[0]
        if out is None:
            sock.sendto(wire, src, sport)
        else:
            out.append((wire, src, sport))

    def _book_fast_hits(self, count: int) -> None:
        self._queries_counter.add(count)
        self._charge("udp_query", count)
        self._responses_counter.add(count)
        self._responses_by_transport["udp"].add(count)

    def _serve(self, wire_query: bytes, source: str, transport: str,
               send: Callable[[bytes], None]) -> None:
        perf = self.perf
        self._queries_counter.add()
        try:
            query = Message.from_wire(wire_query)
        except WireError:
            if transport == "udp":
                self._charge("udp_query")
            self.decode_errors += 1
            perf.incr("hosting.decode_errors")
            return
        self._decodes_counter.add()
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.server_event(wire_query, "server.recv",
                                   transport=transport)

        if self.overload is None:
            if transport == "udp":
                self._charge("udp_query")
            self._dispatch(query, source, transport, send)
            return

        def execute() -> None:
            if transport == "udp":
                self._charge("udp_query")
            self._dispatch(query, source, transport, send)

        def charge_shed() -> None:
            # The datagram was received and parsed but never resolved:
            # early-drop and queue drops refund most of the path cost.
            if transport == "udp":
                self._charge("udp_shed")

        def on_drop() -> None:
            charge_shed()
            if telemetry is not None:
                telemetry.server_event(wire_query, "server.drop")

        def shed() -> None:
            # Tell the client the truth (SERVFAIL) instead of a timeout.
            charge_shed()
            if telemetry is not None:
                telemetry.server_event(wire_query, "server.shed")
            shed_wire = getattr(self.engine, "shed_response", None)
            wire = (shed_wire(query, transport) if shed_wire is not None
                    else minimal_wire(query, rcode=Rcode.SERVFAIL))
            self._deliver(query, source, transport, send, wire)

        self.overload.admit(query, source, transport, execute, shed,
                            on_drop=on_drop)

    def _dispatch(self, query: Message, source: str, transport: str,
                  send: Callable[[bytes], None]) -> None:
        """Hand one decoded query to the engine and deliver its answer."""
        handle_async = getattr(self.engine, "handle_query_async", None)
        if handle_async is None:
            serve_wire = getattr(self.engine, "serve_wire", None)
            if serve_wire is not None:
                # Wire fast path: the engine answers in encoded bytes,
                # usually straight out of its response-wire cache.
                self._deliver(query, source, transport, send,
                              serve_wire(query, source, transport))
                return

        def respond(response: Optional[Message]) -> None:
            if response is None:
                return
            encode = getattr(self.engine, "encode_response", None)
            if encode is not None:
                wire = encode(query, response, transport)
            else:
                limit = None
                if transport == "udp":
                    limit = (query.edns.payload_size
                             if query.edns is not None else 512)
                wire = response.to_wire(max_size=limit)
            self._deliver(query, source, transport, send, wire)

        if handle_async is not None:
            handle_async(query, source, transport, respond)
        else:
            respond(self.engine.handle_query(query, source=source,
                                             transport=transport))

    def _deliver(self, query: Message, source: str, transport: str,
                 send: Callable[[bytes], None], wire: bytes) -> None:
        """Final send stage: RRL filtering, then transport counters."""
        if self.overload is not None:
            filtered = self.overload.filter_response(
                query, source, transport, wire)
            if filtered is None:
                return
            wire = filtered
        self._responses_counter.add()
        self._responses_by_transport[transport].add()
        if self.telemetry is not None:
            self.telemetry.on_server_response(wire, wire, transport)
        send(wire)


class HostedDnsServer(DnsServerCore):
    """A DNS engine attached to a host's port 53 (and 853 for TLS)."""

    def __init__(self, host: Host, engine, config: Optional[TransportConfig] = None,
                 resources: Optional[ServerResourceModel] = None,
                 address: Optional[str] = None,
                 perf: Optional[MetricsRegistry] = None,
                 overload: Optional[OverloadConfig] = None,
                 telemetry: Optional[Telemetry] = None):
        super().__init__(engine, perf, telemetry)
        self.host = host
        self.config = config if config is not None else TransportConfig()
        self.address = address if address is not None else host.primary_address
        if host.tcp_stack is None:
            TcpStack(host)
        self.tcp_stack = host.tcp_stack
        if self.tcp_stack.perf is None:
            self.tcp_stack.perf = self.perf
        self.resources = resources if resources is not None else \
            ServerResourceModel(host.network.loop, self.tcp_stack)
        if self.resources.tcp_stack is None:
            self.resources.tcp_stack = self.tcp_stack
        self._charge = self.resources.cpu.charge
        if overload is not None and overload.enabled():
            self.overload = OverloadControl(
                overload, host.network.loop, self.perf, telemetry=self.telemetry)
            self._fast_serve = None   # admission needs the decoded query
        if telemetry is not None:   # probes sample even untraced hubs
            telemetry.add_probe("server.queue_depth", self._queue_depth)
            telemetry.add_probe("server.cache_hit_rate",
                                self._cache_hit_rate)
            telemetry.add_probe("server.queries",
                                lambda: self.perf.count("hosting.queries"))
            if self.overload is not None:
                # Should sample flat zero; any excursion pinpoints when
                # the admission pipeline lost track of a query.
                telemetry.add_probe(
                    "server.overload_conservation_delta",
                    lambda: float(self.overload.conservation_delta()))
        self.responses_dropped_on_closed = 0
        self.pipelining_aborts = 0
        self.stream_overflows = 0
        self._udp_socket = None
        self._tls_endpoints: Dict[TcpConnection, TlsEndpoint] = {}
        self._start()

    # -- sampler probes --------------------------------------------------

    def _queue_depth(self) -> float:
        if self.overload is None or self.overload.queue is None:
            return 0.0
        return float(self.overload.queue.depth())

    def _cache_hit_rate(self) -> float:
        cache = getattr(self.engine, "wire_cache", None)
        if cache is None:
            return 0.0
        rate = cache.hit_rate()
        return rate if rate is not None else 0.0

    # -- setup ----------------------------------------------------------

    def _start(self) -> None:
        if self.config.udp:
            self._udp_socket = self.host.bind_udp(
                self.address, DNS_PORT, self._on_udp)
            self._udp_socket.on_datagram_batch = self._on_udp_batch
        options = TcpOptions(nagle=self.config.nagle,
                             idle_timeout=self.config.tcp_idle_timeout)
        if self.config.tcp:
            self.tcp_stack.listen(self.address, DNS_PORT,
                                  self._on_tcp_accept, options)
        if self.config.tls:
            self.tcp_stack.listen(self.address, DNS_OVER_TLS_PORT,
                                  self._on_tls_accept, options)

    # -- TCP --------------------------------------------------------------

    def _on_tcp_accept(self, conn: TcpConnection) -> None:
        self._charge("tcp_handshake")
        conn.on_data = self._stream_reader(conn, "tcp", conn.send)
        conn.on_close = lambda cn: cn.close()

    def _stream_reader(self, conn: TcpConnection, transport: str,
                       write: Callable[[bytes], None]):
        """The ``on_data`` handler of one TCP or TLS stream: frame the
        queries, police pipelining, serve each, ``write`` the answers."""
        framer = StreamFramer(max_buffered=self.config.max_stream_buffer)
        outstanding = [0]  # queries received but not yet responded to

        def send_response(wire: bytes) -> None:
            outstanding[0] -= 1
            try:
                write(frame_message(wire))
            except NetworkError:
                # The idle timer closed this connection while the query
                # was in flight; a real server's write fails the same
                # way and the client retries on a fresh connection.
                self.responses_dropped_on_closed += 1
                self.perf.incr("hosting.responses_dropped_on_closed")

        def on_data(_endpoint, data: bytes) -> None:
            if transport == "tcp":
                self._charge("tcp_segment")
            try:
                queries = framer.feed(data)
            except FramingError:
                self._abort_stream(conn, "hosting.stream_overflows")
                return
            for wire_query in queries:
                self._charge("tcp_query")
                if transport == "tcp" and self._serve_axfr(wire_query, conn):
                    continue
                limit = self.config.max_pipelined
                if limit is not None and outstanding[0] >= limit:
                    self._abort_stream(conn, "hosting.pipeline_aborts")
                    return
                outstanding[0] += 1
                self._serve(wire_query, conn.remote_addr, transport,
                            send_response)

        return on_data

    def _abort_stream(self, conn: TcpConnection, counter: str) -> None:
        """Push back on an abusive stream with RST instead of queueing."""
        self.perf.incr(counter)
        if counter == "hosting.pipeline_aborts":
            self.pipelining_aborts += 1
        else:
            self.stream_overflows += 1
        conn.abort()

    # -- TLS --------------------------------------------------------------

    def _on_tls_accept(self, conn: TcpConnection) -> None:
        self._charge("tcp_handshake")
        endpoint = TlsEndpoint(conn, "server",
                               crypto_hook=self._charge_crypto)
        self._tls_endpoints[conn] = endpoint

        def on_established(_ep: TlsEndpoint) -> None:
            self.resources.tls_sessions += 1

        def on_close(ep: TlsEndpoint) -> None:
            if self._tls_endpoints.pop(conn, None) is not None \
                    and ep.established_at is not None:
                self.resources.tls_sessions -= 1

        endpoint.on_established = on_established
        endpoint.on_data = self._stream_reader(conn, "tls", endpoint.send)
        endpoint.on_close = on_close
        conn.on_close = lambda cn: (on_close(endpoint), cn.close())

    def _charge_crypto(self, kind: str, units: int) -> None:
        if kind.startswith("record_"):      # record_encrypt / _decrypt
            self._charge("tls_per_byte", units)
        else:                               # a handshake step, once
            self._charge("tls_" + kind)

    def _serve_axfr(self, wire_query: bytes, conn: TcpConnection) -> bool:
        """Serve an AXFR stream if this is a transfer request.  Only a
        question that reads as AXFR, or does not read plainly, is
        decoded here: every other query is decoded once, by _serve."""
        handle = getattr(self.engine, "handle_axfr", None)
        if handle is None:
            return False
        from .axfr import AXFR
        qtype = read_question(wire_query).qtype
        if qtype is not None and qtype != AXFR:
            return False
        try:
            query = Message.from_wire(wire_query)
        except WireError:
            return False
        if not query.question or query.question[0].rrtype != AXFR:
            return False
        messages = handle(query, source=conn.remote_addr)
        if messages is None:
            return False
        try:
            for message in messages:
                conn.send(frame_message(message.to_wire()))
        except NetworkError:
            self.responses_dropped_on_closed += 1
            self.perf.incr("hosting.responses_dropped_on_closed")
        return True
