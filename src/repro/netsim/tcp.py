"""A simulated TCP: handshake, ordering, Nagle, delayed ACK, timeouts,
and RTO-based retransmission.

This is not a full RFC 793 implementation (no windows/congestion
control; links never reorder), but it models every TCP behaviour the
paper's experiments measure, plus loss recovery so the network's
optional loss model works end-to-end:

* three-way handshake (fresh-connection queries cost an extra RTT, §5.2.4),
* sequence-numbered segmentation and in-order reassembly (the paper
  attributes tail latency to segment reassembly of large replies),
* Nagle's algorithm and delayed ACKs, whose interaction produces the
  latency discontinuities of Figure 15 (and which the paper disables at
  the client as an optimization),
* server-side idle timeouts that close connections after a configurable
  window (Figures 11/13/14 sweep this from 5 s to 40 s),
* TIME_WAIT state with a 60 s lifetime on the actively-closing side (the
  server), matching Figure 13c/14c's TIME_WAIT populations,
* per-state connection accounting and per-connection buffer footprints
  consumed by the server memory model (:mod:`repro.netsim.resources`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .core import EventLoop, Timer
from .network import Host, NetworkError
from .packet import Address, IpPacket, TcpFlags, TcpSegment

MSS = 1460
TIME_WAIT_DURATION = 60.0    # Linux 2*MSL
DELAYED_ACK_TIMEOUT = 0.040  # Linux delack ~40 ms
INITIAL_SEQUENCE = 1000      # deterministic ISS keeps replays reproducible
INITIAL_RTO = 1.0            # RFC 6298 initial retransmission timeout
MAX_RTO = 16.0
MAX_RETRANSMITS = 6          # then the connection is declared dead


class TcpState(enum.Enum):
    LISTEN = "LISTEN"
    SYN_SENT = "SYN_SENT"
    SYN_RECEIVED = "SYN_RECEIVED"
    ESTABLISHED = "ESTABLISHED"
    FIN_WAIT_1 = "FIN_WAIT_1"
    FIN_WAIT_2 = "FIN_WAIT_2"
    CLOSE_WAIT = "CLOSE_WAIT"
    LAST_ACK = "LAST_ACK"
    TIME_WAIT = "TIME_WAIT"
    CLOSED = "CLOSED"


@dataclass
class TcpOptions:
    """Per-connection knobs the experiments vary."""

    nagle: bool = True
    idle_timeout: Optional[float] = None  # server-side close after idle
    time_wait_duration: float = TIME_WAIT_DURATION
    mss: int = MSS
    # Half-open (SYN_RECEIVED) connections are reaped after this long —
    # the kernel's SYN-ACK retry window.  SYN floods park connections
    # here, which is why the DoS experiments care.
    syn_timeout: float = 30.0
    # Backpressure knobs (both off by default).  ``accept_backlog`` caps
    # half-open connections per listener; excess SYNs are refused with
    # RST and counted, so clients learn immediately instead of waiting
    # out a SYN-ACK that will never come.  ``send_highwater`` marks the
    # send-buffer level above which ``writable`` turns False; once a
    # flush drains back below it, ``on_writable`` fires.
    accept_backlog: Optional[int] = None
    send_highwater: Optional[int] = None


FlowKey = Tuple[Address, int, Address, int]


class TcpConnection:
    """One endpoint of a simulated TCP connection."""

    def __init__(self, stack: "TcpStack", local: Tuple[Address, int],
                 remote: Tuple[Address, int], options: TcpOptions):
        self.stack = stack
        self.loop: EventLoop = stack.loop
        self.local_addr, self.local_port = local
        self.remote_addr, self.remote_port = remote
        self.options = options
        self.state = TcpState.CLOSED

        self.snd_nxt = INITIAL_SEQUENCE
        self.snd_una = INITIAL_SEQUENCE
        self.rcv_nxt = 0

        self._send_buffer = bytearray()
        self._out_of_order: Dict[int, bytes] = {}
        self._pending_close = False
        self._fin_sent = False
        self._fin_seq: Optional[int] = None

        self._delayed_ack_timer: Optional[Timer] = None
        self._syn_timer: Optional[Timer] = None
        self._pending_ack_segments = 0
        self._idle_timer: Optional[Timer] = None
        self._time_wait_timer: Optional[Timer] = None

        # Reliability: unacknowledged segments awaiting retransmission.
        # Entries are (seq, flags, data, seq_space) in send order.
        self._unacked: List[Tuple[int, TcpFlags, bytes, int]] = []
        self._rto = INITIAL_RTO
        self._rto_timer: Optional[Timer] = None
        self._retransmit_count = 0
        self.retransmissions = 0

        # Application callbacks.
        self.on_connected: Optional[Callable[["TcpConnection"], None]] = None
        self.on_data: Optional[Callable[["TcpConnection", bytes], None]] = None
        self.on_close: Optional[Callable[["TcpConnection"], None]] = None
        self.on_reset: Optional[Callable[["TcpConnection"], None]] = None
        self.on_writable: Optional[Callable[["TcpConnection"], None]] = None

        # Backpressure bookkeeping.
        self._listener: Optional["TcpListener"] = None
        self._half_open_counted = False
        self._above_highwater = False

        # Statistics the experiments read.
        self.created_at = self.loop.now
        self.established_at: Optional[float] = None
        self.bytes_sent = 0
        self.bytes_received = 0
        self.segments_sent = 0
        self.segments_received = 0
        self.last_activity = self.loop.now

    # -- public API ------------------------------------------------------

    @property
    def key(self) -> FlowKey:
        return (self.local_addr, self.local_port,
                self.remote_addr, self.remote_port)

    def send(self, data: bytes) -> None:
        """Queue application data; Nagle may delay small segments."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.SYN_SENT,
                              TcpState.CLOSE_WAIT):
            raise NetworkError(f"send in state {self.state.name}")
        self._send_buffer += data
        if self.state != TcpState.SYN_SENT:
            self._flush()
        if not self.writable:
            self._above_highwater = True

    @property
    def writable(self) -> bool:
        """False while the send buffer sits above ``send_highwater``."""
        highwater = self.options.send_highwater
        return highwater is None or len(self._send_buffer) < highwater

    def close(self) -> None:
        """Active close: send FIN once the buffer drains."""
        if self.state in (TcpState.CLOSED, TcpState.TIME_WAIT,
                          TcpState.FIN_WAIT_1, TcpState.FIN_WAIT_2,
                          TcpState.LAST_ACK):
            return
        self._pending_close = True
        self._maybe_send_fin()

    def abort(self) -> None:
        """Send RST and drop all state."""
        self._emit(TcpFlags.RST | TcpFlags.ACK)
        self._enter_closed()

    def buffer_footprint(self) -> int:
        """Bytes of buffer memory this connection pins (memory model)."""
        from .resources import (TCP_RECV_BUFFER_BYTES, TCP_SEND_BUFFER_BYTES,
                                TCP_SOCK_STRUCT_BYTES)
        if self.state == TcpState.TIME_WAIT:
            from .resources import TIME_WAIT_STRUCT_BYTES
            return TIME_WAIT_STRUCT_BYTES
        return (TCP_SOCK_STRUCT_BYTES + TCP_SEND_BUFFER_BYTES
                + TCP_RECV_BUFFER_BYTES)

    # -- connection establishment ---------------------------------------

    def _start_connect(self) -> None:
        self.state = TcpState.SYN_SENT
        self._emit(TcpFlags.SYN)
        self.snd_nxt += 1  # SYN occupies one sequence number

    def _start_accept(self, syn: TcpSegment) -> None:
        self.state = TcpState.SYN_RECEIVED
        if self._listener is not None:
            self._listener.half_open += 1
            self._half_open_counted = True
        self.rcv_nxt = syn.seq + 1
        self._emit(TcpFlags.SYN | TcpFlags.ACK)
        self.snd_nxt += 1
        self._syn_timer = self.loop.call_later(self.options.syn_timeout,
                                               self._syn_timeout_fire)

    def _syn_timeout_fire(self) -> None:
        if self.state == TcpState.SYN_RECEIVED:
            self.stack.half_open_reaped += 1
            self._enter_closed()

    # -- segment processing ------------------------------------------------

    def handle_segment(self, packet: IpPacket) -> None:
        segment = packet.segment
        assert isinstance(segment, TcpSegment)
        self.segments_received += 1
        self.last_activity = self.loop.now
        self._restart_idle_timer()

        if segment.flags & TcpFlags.RST:
            self._handle_reset()
            return

        if self.state == TcpState.SYN_SENT:
            if segment.flags & TcpFlags.SYN and segment.flags & TcpFlags.ACK:
                self.rcv_nxt = segment.seq + 1
                self.snd_una = segment.ack
                self._ack_advances(segment.ack)
                self._become_established()
                self._send_ack()
                self._flush()
            return

        if self.state == TcpState.SYN_RECEIVED:
            if segment.flags & TcpFlags.ACK and segment.ack >= self.snd_nxt:
                self.snd_una = segment.ack
                self._ack_advances(segment.ack)
                self._become_established(passive=True)
                # fall through: the handshake ACK may carry data

        if segment.flags & TcpFlags.ACK:
            self._process_ack(segment.ack)

        if segment.data:
            self._process_data(segment)

        if segment.flags & TcpFlags.FIN:
            self._process_fin(segment)

    def _uncount_half_open(self) -> None:
        if self._half_open_counted:
            self._half_open_counted = False
            if self._listener is not None:
                self._listener.half_open -= 1

    def _become_established(self, passive: bool = False) -> None:
        if self._syn_timer is not None:
            self._syn_timer.cancel()
            self._syn_timer = None
        self._uncount_half_open()
        self.state = TcpState.ESTABLISHED
        self.established_at = self.loop.now
        self.stack._note_established(self)
        self._restart_idle_timer()
        if passive:
            listener = self.stack._listeners.get(
                (self.local_addr, self.local_port))
            if listener is None:
                listener = self.stack._listeners.get(
                    ("0.0.0.0", self.local_port))
            if listener is not None and listener.on_accept is not None:
                listener.on_accept(self)
        if self.on_connected is not None:
            self.on_connected(self)

    def _process_ack(self, ack: int) -> None:
        if ack > self.snd_una:
            self.snd_una = ack
            self._ack_advances(ack)
            if self._fin_sent and self._fin_seq is not None \
                    and ack >= self._fin_seq + 1:
                self._fin_acknowledged()
            self._flush()
            self._maybe_send_fin()

    def _process_data(self, segment: TcpSegment) -> None:
        if segment.seq == self.rcv_nxt:
            self.rcv_nxt += len(segment.data)
            self.bytes_received += len(segment.data)
            self._deliver(segment.data)
            # Drain any out-of-order segments that are now contiguous.
            while self.rcv_nxt in self._out_of_order:
                data = self._out_of_order.pop(self.rcv_nxt)
                self.rcv_nxt += len(data)
                self.bytes_received += len(data)
                self._deliver(data)
            self._schedule_ack()
        elif segment.seq > self.rcv_nxt:
            self._out_of_order[segment.seq] = segment.data
            self._send_ack()  # duplicate ACK asks for the gap
        else:
            self._send_ack()  # stale retransmission

    def _deliver(self, data: bytes) -> None:
        if self.on_data is not None:
            self.on_data(self, data)

    def _process_fin(self, segment: TcpSegment) -> None:
        fin_seq = segment.seq + len(segment.data)
        if fin_seq != self.rcv_nxt:
            return  # FIN not yet in order
        self.rcv_nxt += 1
        self._send_ack(immediate=True)
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            self.stack._note_state_change(self)
            if self.on_close is not None:
                self.on_close(self)
        elif self.state == TcpState.FIN_WAIT_1:
            # Simultaneous close; our FIN is unacked but theirs arrived.
            self._enter_time_wait()
        elif self.state == TcpState.FIN_WAIT_2:
            self._enter_time_wait()
            if self.on_close is not None:
                self.on_close(self)

    def _handle_reset(self) -> None:
        self._enter_closed()
        if self.on_reset is not None:
            self.on_reset(self)

    # -- sending -----------------------------------------------------------

    def _flush(self) -> None:
        """Send as much buffered data as Nagle permits."""
        if self.state not in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            return
        mss = self.options.mss
        while self._send_buffer:
            in_flight = self.snd_nxt - self.snd_una
            if (self.options.nagle and in_flight > 0
                    and len(self._send_buffer) < mss):
                break  # Nagle: hold the small segment until ACKed
            chunk = bytes(self._send_buffer[:mss])
            del self._send_buffer[: len(chunk)]
            self._emit(TcpFlags.ACK | TcpFlags.PSH, chunk)
            self.snd_nxt += len(chunk)
            self.bytes_sent += len(chunk)
            self._ack_is_piggybacked()
        if self._above_highwater and self.writable:
            self._above_highwater = False
            if self.on_writable is not None:
                self.on_writable(self)
        self._maybe_send_fin()

    def _maybe_send_fin(self) -> None:
        if not self._pending_close or self._fin_sent or self._send_buffer:
            return
        self._fin_seq = self.snd_nxt
        self._emit(TcpFlags.FIN | TcpFlags.ACK)
        self.snd_nxt += 1
        self._fin_sent = True
        if self.state == TcpState.ESTABLISHED:
            self.state = TcpState.FIN_WAIT_1
        elif self.state == TcpState.CLOSE_WAIT:
            self.state = TcpState.LAST_ACK
        self.stack._note_state_change(self)
        self._cancel_idle_timer()

    def _fin_acknowledged(self) -> None:
        if self.state == TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
            self.stack._note_state_change(self)
        elif self.state == TcpState.LAST_ACK:
            self._enter_closed()

    # -- ACK management -------------------------------------------------

    def _schedule_ack(self) -> None:
        self._pending_ack_segments += 1
        if self._pending_ack_segments >= 2:
            self._send_ack()
        elif self._delayed_ack_timer is None:
            self._delayed_ack_timer = self.loop.call_later(
                DELAYED_ACK_TIMEOUT, self._delayed_ack_fire)

    def _delayed_ack_fire(self) -> None:
        self._delayed_ack_timer = None
        if self._pending_ack_segments > 0:
            self._send_ack()

    def _send_ack(self, immediate: bool = False) -> None:
        self._ack_is_piggybacked()
        self._emit(TcpFlags.ACK)

    def _ack_is_piggybacked(self) -> None:
        self._pending_ack_segments = 0
        if self._delayed_ack_timer is not None:
            self._delayed_ack_timer.cancel()
            self._delayed_ack_timer = None

    # -- timers ------------------------------------------------------------

    def _restart_idle_timer(self) -> None:
        if self.options.idle_timeout is None:
            return
        if self.state not in (TcpState.ESTABLISHED, TcpState.SYN_RECEIVED,
                              TcpState.CLOSE_WAIT):
            return
        self._cancel_idle_timer()
        self._idle_timer = self.loop.call_later(
            self.options.idle_timeout, self._idle_fire)

    def _cancel_idle_timer(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None

    def _idle_fire(self) -> None:
        self._idle_timer = None
        idle_for = self.loop.now - self.last_activity
        if idle_for + 1e-9 >= self.options.idle_timeout:
            self.stack.idle_closes += 1
            self.close()
        else:
            self._idle_timer = self.loop.call_later(
                self.options.idle_timeout - idle_for, self._idle_fire)

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self.stack._note_state_change(self)
        self._cancel_idle_timer()
        self._time_wait_timer = self.loop.call_later(
            self.options.time_wait_duration, self._enter_closed)

    def _enter_closed(self) -> None:
        if self.state == TcpState.CLOSED:
            return
        self.state = TcpState.CLOSED
        self._uncount_half_open()
        self._cancel_idle_timer()
        self._cancel_rto_timer()
        self._unacked.clear()
        if self._time_wait_timer is not None:
            self._time_wait_timer.cancel()
            self._time_wait_timer = None
        self.stack._remove(self)

    # -- wire output ---------------------------------------------------------

    def _emit(self, flags: TcpFlags, data: bytes = b"") -> None:
        segment = TcpSegment(self.local_port, self.remote_port,
                             self.snd_nxt, self.rcv_nxt, flags, data)
        packet = IpPacket(self.local_addr, self.remote_addr,
                          segment).with_checksum()
        self.segments_sent += 1
        self.stack.host.send_packet(packet)
        # Anything occupying sequence space is retransmittable.
        seq_space = len(data)
        if flags & (TcpFlags.SYN | TcpFlags.FIN):
            seq_space += 1
        if seq_space and not flags & TcpFlags.RST:
            self._unacked.append((self.snd_nxt, flags, data, seq_space))
            self._arm_rto_timer()

    # -- retransmission -----------------------------------------------------

    def _arm_rto_timer(self) -> None:
        if self._rto_timer is None:
            self._rto_timer = self.loop.call_later(self._rto,
                                                   self._rto_fire)

    def _cancel_rto_timer(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _ack_advances(self, ack: int) -> None:
        """Drop fully-acknowledged segments; reset the backoff."""
        before = len(self._unacked)
        self._unacked = [entry for entry in self._unacked
                         if entry[0] + entry[3] > ack]
        if len(self._unacked) != before:
            self._retransmit_count = 0
            self._rto = INITIAL_RTO
        self._cancel_rto_timer()
        if self._unacked:
            self._arm_rto_timer()

    def _rto_fire(self) -> None:
        self._rto_timer = None
        if not self._unacked or self.state == TcpState.CLOSED:
            return
        self._retransmit_count += 1
        if self._retransmit_count > MAX_RETRANSMITS:
            # The peer is gone: give up, as the kernel's ETIMEDOUT.
            self._enter_closed()
            if self.on_reset is not None:
                self.on_reset(self)
            return
        seq, flags, data, _space = self._unacked[0]
        self.retransmissions += 1
        self.stack.retransmitted_segments += 1
        segment = TcpSegment(self.local_port, self.remote_port, seq,
                             self.rcv_nxt, flags, data)
        self.stack.host.send_packet(
            IpPacket(self.local_addr, self.remote_addr,
                     segment).with_checksum())
        self._rto = min(self._rto * 2, MAX_RTO)
        self._arm_rto_timer()

    def __repr__(self) -> str:
        return (f"TcpConnection({self.local_addr}:{self.local_port} -> "
                f"{self.remote_addr}:{self.remote_port} {self.state.name})")


class TcpListener:
    """A passive socket producing server-side connections."""

    def __init__(self, stack: "TcpStack", address: Address, port: int,
                 on_accept: Optional[Callable[[TcpConnection], None]],
                 options: TcpOptions):
        self.stack = stack
        self.address = address
        self.port = port
        self.on_accept = on_accept
        self.options = options
        self.accepted = 0
        self.half_open = 0          # connections parked in SYN_RECEIVED
        self.backlog_refusals = 0   # SYNs refused over accept_backlog

    def close(self) -> None:
        self.stack._listeners.pop((self.address, self.port), None)


class TcpStack:
    """Per-host TCP: demultiplexes segments, tracks connection state."""

    def __init__(self, host: Host, max_connections: Optional[int] = None,
                 refuse_when_full: bool = False):
        self.host = host
        self.loop: EventLoop = host.network.loop
        host.tcp_stack = self
        # Connection-table capacity (conntrack / backlog analogue); SYNs
        # beyond it are silently dropped — which is what lets SYN floods
        # starve legitimate clients in the DoS experiments — unless
        # ``refuse_when_full`` pushes back with RST so clients fail fast.
        self.max_connections = max_connections
        self.refuse_when_full = refuse_when_full
        # Optional MetricsRegistry; HostedDnsServer shares its own.
        self.perf = None
        self._listeners: Dict[Tuple[Address, int], TcpListener] = {}
        self._connections: Dict[FlowKey, TcpConnection] = {}
        self._local_ports: Dict[int, int] = {}  # port -> live-flow count
        # Counters the experiments sample (netstat analogues).
        self.total_accepted = 0
        self.total_connected = 0
        self.resets_sent = 0
        self.idle_closes = 0
        self.history_established = 0
        self.syn_drops = 0
        self.syn_refused = 0
        self.backlog_refusals = 0
        self.half_open_reaped = 0
        self.retransmitted_segments = 0

    # -- app API -----------------------------------------------------------

    def listen(self, address: Address, port: int,
               on_accept: Optional[Callable[[TcpConnection], None]] = None,
               options: Optional[TcpOptions] = None) -> TcpListener:
        if not (self.host.owns(address) or address == "0.0.0.0"):
            raise NetworkError(f"{self.host.name} does not own {address}")
        key = (address, port)
        if key in self._listeners:
            raise NetworkError(f"TCP {address}:{port} already listening")
        listener = TcpListener(self, address, port, on_accept,
                               options if options is not None else TcpOptions())
        self._listeners[key] = listener
        return listener

    def connect(self, local_addr: Address, remote_addr: Address,
                remote_port: int, options: Optional[TcpOptions] = None,
                local_port: int = 0) -> TcpConnection:
        if not self.host.owns(local_addr):
            raise NetworkError(f"{self.host.name} does not own {local_addr}")
        if local_port == 0:
            local_port = self.host.allocate_port()
        conn = TcpConnection(self, (local_addr, local_port),
                             (remote_addr, remote_port),
                             options if options is not None else TcpOptions())
        key = conn.key
        if key in self._connections:
            raise NetworkError(f"flow {key} already exists")
        self._connections[key] = conn
        self._note_port_bound(local_port)
        self.total_connected += 1
        conn._start_connect()
        return conn

    def port_in_use(self, port: int) -> bool:
        """True if any live flow or listener binds this local port."""
        if port in self._local_ports:
            return True
        return any(bound == port for _addr, bound in self._listeners)

    def _note_port_bound(self, port: int) -> None:
        self._local_ports[port] = self._local_ports.get(port, 0) + 1

    def _note_port_released(self, port: int) -> None:
        count = self._local_ports.get(port, 0) - 1
        if count <= 0:
            self._local_ports.pop(port, None)
        else:
            self._local_ports[port] = count

    # -- segment input -----------------------------------------------------

    def receive(self, packet: IpPacket) -> None:
        segment = packet.segment
        assert isinstance(segment, TcpSegment)
        key = (packet.dst, segment.dport, packet.src, segment.sport)
        conn = self._connections.get(key)
        if conn is not None and conn.state != TcpState.CLOSED:
            conn.handle_segment(packet)
            return
        if segment.flags & TcpFlags.SYN and not segment.flags & TcpFlags.ACK:
            listener = (self._listeners.get((packet.dst, segment.dport))
                        or self._listeners.get(("0.0.0.0", segment.dport)))
            if listener is not None:
                backlog = listener.options.accept_backlog
                if backlog is not None and listener.half_open >= backlog:
                    # Accept backlog full: refuse loudly with RST rather
                    # than parking a SYN that will never be served.
                    listener.backlog_refusals += 1
                    self.backlog_refusals += 1
                    self._count("tcp.backlog_refusals")
                    self._refuse_syn(packet, segment)
                    return
                if (self.max_connections is not None
                        and len(self._connections) >= self.max_connections):
                    if self.refuse_when_full:
                        self.syn_refused += 1
                        self._count("tcp.syn_refused")
                        self._refuse_syn(packet, segment)
                        return
                    self.syn_drops += 1
                    self._count("tcp.syn_drops")
                    return  # backlog full: silent drop, client retries
                conn = TcpConnection(
                    self, (packet.dst, segment.dport),
                    (packet.src, segment.sport),
                    TcpOptions(**vars(listener.options)))
                conn._listener = listener
                self._connections[key] = conn
                self._note_port_bound(segment.dport)
                self.total_accepted += 1
                listener.accepted += 1
                conn._start_accept(segment)
                return
        # No matching state: refuse with RST (unless this *is* an RST).
        if not segment.flags & TcpFlags.RST:
            self.resets_sent += 1
            reset = TcpSegment(segment.dport, segment.sport,
                               segment.ack, segment.seq + 1,
                               TcpFlags.RST | TcpFlags.ACK)
            self.host.send_packet(
                IpPacket(packet.dst, packet.src, reset).with_checksum())

    def _refuse_syn(self, packet: IpPacket, segment: TcpSegment) -> None:
        """Answer a refused SYN with RST so the client fails fast."""
        self.resets_sent += 1
        reset = TcpSegment(segment.dport, segment.sport, 0, segment.seq + 1,
                           TcpFlags.RST | TcpFlags.ACK)
        self.host.send_packet(
            IpPacket(packet.dst, packet.src, reset).with_checksum())

    def _count(self, name: str) -> None:
        if self.perf is not None:
            self.perf.incr(name)

    # -- crash/restart -----------------------------------------------------

    def crash(self) -> None:
        """Drop every connection silently, as a killed server process.

        No FIN or RST leaves the host (it is down); peers discover the
        loss through retransmission timeouts, or through the RST this
        stack sends when a stale segment arrives after restart.
        Listeners survive — a restarting server rebinds its ports.
        """
        for conn in list(self._connections.values()):
            conn._enter_closed()
        self._connections.clear()

    # -- bookkeeping ------------------------------------------------------

    def _note_established(self, conn: TcpConnection) -> None:
        self.history_established += 1

    def _note_state_change(self, conn: TcpConnection) -> None:
        pass  # counts are derived on demand; hook kept for monitors

    def _remove(self, conn: TcpConnection) -> None:
        if self._connections.pop(conn.key, None) is not None:
            self._note_port_released(conn.local_port)

    def connections(self) -> List[TcpConnection]:
        return list(self._connections.values())

    def count_by_state(self) -> Dict[TcpState, int]:
        counts: Dict[TcpState, int] = {}
        for conn in self._connections.values():
            counts[conn.state] = counts.get(conn.state, 0) + 1
        return counts

    def established_count(self) -> int:
        return sum(1 for c in self._connections.values()
                   if c.state == TcpState.ESTABLISHED)

    def time_wait_count(self) -> int:
        return sum(1 for c in self._connections.values()
                   if c.state == TcpState.TIME_WAIT)

    def half_open_count(self) -> int:
        return sum(1 for c in self._connections.values()
                   if c.state == TcpState.SYN_RECEIVED)

    def buffer_memory_bytes(self) -> int:
        return sum(c.buffer_footprint() for c in self._connections.values())
