"""The inter-node replay protocol (§2.6/§3, Figure 4).

The paper's query system is distributed: a controller (Reader + Postman)
feeds distributor processes over TCP, which feed querier processes, "for
reliable communication, we decide to choose TCP for message exchange
among distributors".  This module is that wire protocol — real sockets,
length-prefixed internal messages reusing the binary trace record layout
(§2.5), plus the control messages the timing discipline and the
multi-process deployment need:

    frame  := u32 length, u8 kind, payload
    kinds  := TIME_SYNC   (f64 trace-start time)
            | RECORD      (u32 global trace index + binary record body)
            | END         (no payload; stream complete)
            | HELLO       (u8 role, u16 worker id, u16 listen port,
                           u16 incarnation)
            | RESULT      (JSON ReplayResult shard)
            | METRICS     (JSON MetricsRegistry state)
            | SHUTDOWN    (no payload; stop now, shed queued work)
            | CHECKPOINT  (JSON delta of a result shard, seq-numbered)
            | TELEMETRY   (JSON streamed metrics/health/span window)
    shard  := {name, start_clock, trace_start, counters,
               sent: table | aggregate: folds}
    table  := {column: [value, ...], ...}   (one column per SentQuery
              field, all of one length; an optional column all at its
              default may be left out)

Kind 9 is retired and refused as unknown.  A worker's final report too
big for one frame goes as CHECKPOINT frames of a fixed number of entries
and then a RESULT carrying the header and the last chunk; no ``send_*``
writes a frame over :data:`MAX_FRAME` (:class:`FrameTooLarge`).

:class:`MessageSocket` wraps a connected TCP socket with framed send /
receive; :mod:`repro.replay.multiproc` builds the controller →
distributor → querier tree of worker processes on top of it.  A record
crosses it as bytes: a RECORD frame is received as its index and its
validated record body (:func:`repro.trace.binfmt.record_head`), which a
distributor forwards and a querier sends without decoding.

The receive path trusts nothing: a frame whose length field is zero,
negative-after-kind, or larger than :data:`MAX_FRAME` raises
:class:`ProtocolError` instead of hanging on a bogus read or buffering
unbounded memory, and a connection that dies mid-frame raises rather
than silently returning garbage.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from itertools import repeat
from typing import Iterator, List, Optional, Tuple, Union

from ..trace import QueryRecord
from ..trace.binfmt import TraceFormatError, pack_record_body, record_head

MSG_TIME_SYNC = 1
MSG_RECORD = 2
MSG_END = 3
MSG_HELLO = 4
MSG_RESULT = 5
MSG_METRICS = 6
MSG_SHUTDOWN = 7
MSG_CHECKPOINT = 8   # delta of a list-mode RESULT shard
MSG_TELEMETRY = 10   # streamed metrics/health/span window (live observability)

KIND_NAMES = {
    MSG_TIME_SYNC: "TIME_SYNC", MSG_RECORD: "RECORD", MSG_END: "END",
    MSG_HELLO: "HELLO", MSG_RESULT: "RESULT", MSG_METRICS: "METRICS",
    MSG_SHUTDOWN: "SHUTDOWN", MSG_CHECKPOINT: "CHECKPOINT",
    MSG_TELEMETRY: "TELEMETRY",
}

# Worker roles carried in HELLO frames (multi-process topology).
ROLE_DISTRIBUTOR = 1
ROLE_QUERIER = 2
ROLE_SHARD = 3      # self-sourcing simulation shard (ShardTopology)

# Upper bound on one frame's length field.  Record frames are tiny;
# RESULT frames carry a whole per-worker ReplayResult shard as JSON, so
# the bound is generous — but it is a bound: a corrupt length can no
# longer make the receiver buffer arbitrary memory.
MAX_FRAME = 64 * 1024 * 1024

# Buffered RECORD frames (``write_record``) go out in one ``sendall``
# once this many bytes have collected: a few hundred records per system
# call instead of one.
BLOCK_BYTES = 32 * 1024

_FRAME_HEADER = struct.Struct("!IB")
# role, worker id, listen port, incarnation (respawn count)
_HELLO_V2 = struct.Struct("!BHHH")
_RECORD_INDEX = struct.Struct("!I")
_RECORD_HEADER = struct.Struct("!IBI")      # frame header + index

Message = Tuple[int, Union[float, bytes, dict, tuple, None]]


class ProtocolError(RuntimeError):
    pass


class SendError(ProtocolError, ConnectionError):
    """A frame could not be written to the peer (EPIPE/ECONNRESET/...).

    Subclasses both :class:`ProtocolError` (so protocol-aware callers
    catch one exception family for both directions) and
    :class:`ConnectionError` (so the pre-existing ``except OSError``
    failover paths in the distributor/querier keep working unchanged).
    """


class FrameTooLarge(SendError):
    """A payload the peer would refuse (over :data:`MAX_FRAME`): raised
    before a byte of it is written, so the link stays usable."""


# -- control-payload schemas ------------------------------------------------
#
# RESULT and METRICS frames carry JSON produced by a *peer process*; a
# malformed field must fail here, at the protocol boundary, as a
# ProtocolError — not as a KeyError/TypeError deep inside the controller
# merge loop after the worker has already been torn down.  Each schema
# entry maps a field to the types it may carry (bool is deliberately a
# valid int, matching Python's own subtyping).

_NUMBER = (int, float)
_OPTIONAL_NUMBER = (int, float, type(None))

# The columns of a RESULT ``sent`` table (repro.replay.result): the
# required ones must be present; an optional one may be left out; any
# other name is refused, as ReplayResult.from_dict would not know it.
_SENT_REQUIRED = {
    "index": int, "source": str, "trace_time": _NUMBER,
    "scheduled_at": _NUMBER, "sent_at": _NUMBER, "protocol": str,
    "qname": str,
}
_SENT_OPTIONAL = {
    "answered_at": _OPTIONAL_NUMBER, "fresh_connection": bool,
    "querier_id": int, "retries": int, "timeouts": int,
    "tcp_fallback": bool, "gave_up": bool,
}
_SENT_COLUMNS = {**_SENT_REQUIRED, **_SENT_OPTIONAL}

_HISTOGRAM_FIELDS = {
    "count": int, "total": _NUMBER, "sumsq": _NUMBER,
    "min": _OPTIONAL_NUMBER, "max": _OPTIONAL_NUMBER, "buckets": dict,
}

# Aggregate-mode RESULT frames (constant-memory streaming replay) carry
# the four folds of repro.replay.result instead of per-query entries:
# sends per protocol, sends per clock second (str(int) keys, as JSON
# requires) and the latency and send-error histogram states.
_AGGREGATE_FIELDS = {"protocol_counts": dict, "rate_buckets": dict,
                     "latency": dict, "send_error": dict}


def _require(condition: bool, what: str) -> None:
    if not condition:
        raise ProtocolError(what)


def _check_fields(entry: dict, required: dict, optional: dict,
                  label: str) -> None:
    if not isinstance(entry, dict):
        raise ProtocolError(f"{label} must be an object")
    for name in required:
        if name not in entry:
            raise ProtocolError(f"{label} missing field {name!r}")
    for name, value in entry.items():
        types = required.get(name) or optional.get(name)
        if types is None:
            raise ProtocolError(f"{label} has unknown field {name!r}")
        if not isinstance(value, types):
            raise ProtocolError(f"{label} field {name!r} has type "
                                f"{type(value).__name__}")


def _check_sent_table(table: dict, label: str) -> None:
    """The ``sent`` table, column by column: every required column,
    no unknown one, each a list of values of its field's type, all of
    one length.  A refusal names the first bad row and its field."""
    length = None
    for name, column in table.items():
        types = _SENT_COLUMNS.get(name)
        if types is None:
            raise ProtocolError(f"{label} sent has unknown field {name!r}")
        if not isinstance(column, list):
            raise ProtocolError(f"{label} sent field {name!r} must be a "
                                f"list, not {type(column).__name__}")
        if length is None:
            length = len(column)
        elif len(column) != length:
            raise ProtocolError(f"{label} sent columns of unequal length: "
                                f"{name!r} has {len(column)}, not {length}")
        if not all(map(isinstance, column, repeat(types))):
            row, value = next((row, value)
                              for row, value in enumerate(column)
                              if not isinstance(value, types))
            raise ProtocolError(f"{label} sent[{row}] field {name!r} has "
                                f"type {type(value).__name__}")
    for name in _SENT_REQUIRED:
        if name not in table:
            raise ProtocolError(f"{label} sent missing field {name!r}")


def validate_result_payload(payload: object) -> dict:
    """Check a RESULT frame's JSON against the ReplayResult shard shape.

    A shard is either list-mode (``sent`` is the per-query table of
    :mod:`repro.replay.result`) or aggregate-mode (``aggregate`` holds
    its four O(1) folds); exactly one of the two keys must be present.
    """
    _require(isinstance(payload, dict), "RESULT payload must be an object")
    _require(("sent" in payload) != ("aggregate" in payload),
             "RESULT must carry exactly one of 'sent' or 'aggregate'")
    _check_fields(payload, {},
                  {"sent": dict, "aggregate": dict, "name": str,
                   "start_clock": _OPTIONAL_NUMBER,
                   "trace_start": _OPTIONAL_NUMBER, "counters": dict},
                  "RESULT")
    for name, value in payload.get("counters", {}).items():
        _require(isinstance(name, str) and isinstance(value, int),
                 f"RESULT counter {name!r} must map str -> int")
    if "sent" in payload:
        _check_sent_table(payload["sent"], "RESULT")
    aggregate = payload.get("aggregate")
    if aggregate is not None:
        _check_fields(aggregate, _AGGREGATE_FIELDS, {}, "RESULT aggregate")
        for key, count in aggregate["rate_buckets"].items():
            _require(isinstance(key, str) and _is_int_key(key)
                     and isinstance(count, int),
                     f"RESULT aggregate rate_buckets entry {key!r} "
                     f"must map int-keyed str -> int")
        for protocol, count in aggregate["protocol_counts"].items():
            _require(isinstance(protocol, str) and isinstance(count, int),
                     f"RESULT aggregate protocol_counts entry "
                     f"{protocol!r} must map str -> int")
        for name in ("latency", "send_error"):
            _check_histogram(aggregate[name], f"RESULT aggregate {name}")
    return payload


def validate_metrics_payload(payload: object) -> dict:
    """Check a METRICS frame's JSON against MetricsRegistry.to_state()."""
    _require(isinstance(payload, dict), "METRICS payload must be an object")
    _check_fields(payload, {},
                  {"counts": dict, "timings": dict, "gauges": dict,
                   "histograms": dict},
                  "METRICS")
    for section, types in (("counts", int), ("timings", _NUMBER),
                           ("gauges", _NUMBER)):
        for name, value in payload.get(section, {}).items():
            _require(isinstance(name, str) and isinstance(value, types),
                     f"METRICS {section} entry {name!r} has bad type")
    for name, state in payload.get("histograms", {}).items():
        _check_histogram(state, f"METRICS histogram {name!r}")
    return payload


def _check_worker_identity(payload: dict, label: str) -> None:
    """worker/incarnation must be genuine u16 ints, seq a counting int.

    ``isinstance(x, int)`` alone lets ``True`` through (bool subtypes
    int) and lets values overflow the u16 HELLO identity space the
    controller keys respawn bookkeeping on.
    """
    for name, bound in (("worker", 0xFFFF), ("incarnation", 0xFFFF),
                        ("seq", None)):
        value = payload[name]
        _require(not isinstance(value, bool) and value >= 0,
                 f"{label} {name} must be a non-negative int")
        if bound is not None:
            _require(value <= bound, f"{label} {name} {value} exceeds u16")


def validate_checkpoint_payload(payload: object) -> dict:
    """Check a CHECKPOINT frame: a seq-numbered delta of a result shard.

    ``result`` has the RESULT shape — the cumulative header (counters,
    clocks) over only the entries with news since the worker's previous
    frame — so every entry of every frame is checked as in a RESULT.
    """
    _require(isinstance(payload, dict),
             "CHECKPOINT payload must be an object")
    _check_fields(payload,
                  {"worker": int, "incarnation": int, "seq": int,
                   "result": dict},
                  {"final": bool}, "CHECKPOINT")
    _check_worker_identity(payload, "CHECKPOINT")
    validate_result_payload(payload["result"])
    return payload


# Streamed TELEMETRY frames: periodic worker self-reports.  ``metrics``
# is a full cumulative MetricsRegistry state (not a delta) so a dropped
# or reordered frame never corrupts the aggregate — latest seq wins.
_TELEMETRY_REQUIRED = {
    "role": int, "worker": int, "incarnation": int, "seq": int,
    "mono": _NUMBER,
}
_TELEMETRY_OPTIONAL = {
    "sync_mono": _OPTIONAL_NUMBER, "metrics": dict, "health": dict,
    "spans": list, "ring": dict, "final": bool,
}
_SPAN_PHASES = ("b", "e", "i")


def _check_span_events(events: object, label: str) -> None:
    _require(isinstance(events, list), f"{label} must be a list")
    for index, event in enumerate(events):
        what = f"{label}[{index}]"
        _require(isinstance(event, (list, tuple)) and len(event) == 6,
                 f"{what} must be a 6-element span event")
        ts, phase, qid, name, track, args = event
        _require(isinstance(ts, _NUMBER) and not isinstance(ts, bool),
                 f"{what} timestamp must be a number")
        _require(phase in _SPAN_PHASES, f"{what} has bad phase {phase!r}")
        _require(qid is None or (isinstance(qid, int)
                                 and not isinstance(qid, bool)),
                 f"{what} qid must be an int or null")
        _require(isinstance(name, str) and isinstance(track, str),
                 f"{what} name/track must be strings")
        _require(args is None or isinstance(args, dict),
                 f"{what} args must be an object or null")


def validate_telemetry_payload(payload: object) -> dict:
    """Check a TELEMETRY frame: one worker's streamed self-report."""
    _require(isinstance(payload, dict),
             "TELEMETRY payload must be an object")
    _check_fields(payload, _TELEMETRY_REQUIRED, _TELEMETRY_OPTIONAL,
                  "TELEMETRY")
    _require(payload["role"] in (ROLE_DISTRIBUTOR, ROLE_QUERIER,
                                 ROLE_SHARD),
             f"TELEMETRY has bad role {payload['role']}")
    _check_worker_identity(payload, "TELEMETRY")
    if "metrics" in payload:
        validate_metrics_payload(payload["metrics"])
    for name, value in payload.get("health", {}).items():
        _require(isinstance(name, str) and isinstance(value, _NUMBER)
                 and not isinstance(value, bool),
                 f"TELEMETRY health entry {name!r} must map str -> number")
    if "spans" in payload:
        _check_span_events(payload["spans"], "TELEMETRY spans")
    ring = payload.get("ring")
    if ring is not None:
        _check_fields(ring, {}, {"spans": list, "log": list},
                      "TELEMETRY ring")
        _check_span_events(ring.get("spans", []), "TELEMETRY ring spans")
        for index, entry in enumerate(ring.get("log", [])):
            _require(isinstance(entry, (list, tuple)) and len(entry) == 2
                     and isinstance(entry[0], _NUMBER)
                     and isinstance(entry[1], str),
                     f"TELEMETRY ring log[{index}] must be [ts, text]")
    return payload


def _is_int_key(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _check_histogram(state: object, label: str) -> None:
    """A :meth:`Histogram.to_state` document, as METRICS and aggregate
    RESULT frames carry it."""
    _check_fields(state, _HISTOGRAM_FIELDS, {}, label)
    for index, count in state["buckets"].items():
        _require(isinstance(index, str) and _is_int_key(index)
                 and isinstance(count, int),
                 f"{label} bucket {index!r} must map int-keyed str -> int")


class MessageSocket:
    """Framed messages over one connected TCP socket.

    Every ``send_*`` is write-through.  The record stream, the one
    high-rate direction, is written buffered: ``write_record`` appends
    a RECORD frame and puts a block on the wire per :data:`BLOCK_BYTES`,
    on :meth:`flush`, or ahead of any ``send_*`` (so frame order is the
    call order).  The peer reads one byte stream either way.  Whoever
    writes buffered flushes before it blocks.
    """

    def __init__(self, sock: socket.socket):
        self._socket = sock
        self._buffer = bytearray()
        self._out = bytearray()     # frames appended, not yet written
        self._send_lock = threading.Lock()
        self._pending_header: Optional[Tuple[int, int]] = None
        self.messages_sent = 0
        self.messages_received = 0
        self.blocks_sent = 0        # buffered record blocks written
        # Optional fault injector (recovery.ChaosEngine): maps one
        # outgoing frame to zero or more frames actually written.
        self.chaos = None

    # -- sending -----------------------------------------------------------

    def send_time_sync(self, trace_start: float) -> None:
        self._send(MSG_TIME_SYNC, struct.pack("!d", trace_start))

    def send_end(self) -> None:
        self._send(MSG_END, b"")

    def send_hello(self, role: int, worker_id: int,
                   listen_port: int = 0, incarnation: int = 0) -> None:
        self._send(MSG_HELLO,
                   _HELLO_V2.pack(role, worker_id, listen_port, incarnation))

    def send_result(self, shard: dict) -> None:
        self._send(MSG_RESULT, json.dumps(shard).encode("utf-8"))

    def send_metrics(self, state: dict) -> None:
        self._send(MSG_METRICS, json.dumps(state).encode("utf-8"))

    def send_shutdown(self) -> None:
        self._send(MSG_SHUTDOWN, b"")

    def send_checkpoint(self, worker_id: int, incarnation: int, seq: int,
                        result: dict, final: bool = False) -> None:
        payload = {"worker": worker_id, "incarnation": incarnation,
                   "seq": seq, "result": result, "final": final}
        self._send(MSG_CHECKPOINT, json.dumps(payload).encode("utf-8"))

    def send_telemetry(self, report: dict) -> None:
        self._send(MSG_TELEMETRY, json.dumps(report).encode("utf-8"))

    def write_record(self, index: int, body: bytes) -> None:
        """Buffer the RECORD frame of trace record ``index`` whose body
        :func:`pack_record_body` made."""
        self._append(MSG_RECORD,
                     _RECORD_HEADER.pack(1 + _RECORD_INDEX.size + len(body),
                                         MSG_RECORD, index),
                     body)

    # Write-through forms of the RECORD frame, for callers holding a
    # QueryRecord.
    def send_record(self, record: QueryRecord) -> None:
        self.send_record_seq(0, record)

    def send_record_seq(self, index: int, record: QueryRecord) -> None:
        self._send(MSG_RECORD,
                   _RECORD_INDEX.pack(index) + pack_record_body(record))

    def flush(self) -> None:
        """Put the buffered record frames on the wire (no-op when none)."""
        with self._send_lock:
            if self._out:
                self.blocks_sent += 1
                self._write_out(MSG_RECORD)

    def _append(self, kind: int, header: bytes, body: bytes) -> None:
        """One buffered frame, ``header`` then ``body``; a block goes on
        the wire once BLOCK_BYTES have collected."""
        if self.chaos is not None:
            # ChaosEngine.process drops, delays and reorders single
            # frames: a link under chaos stays write-through.
            self._send(kind, header[_FRAME_HEADER.size:] + body)
            return
        with self._send_lock:
            out = self._out
            out += header
            out += body
            self.messages_sent += 1
            if len(out) >= BLOCK_BYTES:
                self.blocks_sent += 1
                self._write_out(kind)

    def _send(self, kind: int, payload: bytes) -> None:
        if len(payload) >= MAX_FRAME:
            raise FrameTooLarge(
                f"{KIND_NAMES.get(kind, str(kind))} payload of "
                f"{len(payload)} bytes exceeds the {MAX_FRAME}-byte frame")
        chaos = self.chaos
        frames = ([(kind, payload)] if chaos is None
                  else chaos.process(kind, payload))
        # Serialized: the control channel is written by both the
        # streaming loop and the deadline timer (SHUTDOWN), and
        # interleaved frames would corrupt it.
        with self._send_lock:
            for each_kind, each_payload in frames:
                self._out += _FRAME_HEADER.pack(1 + len(each_payload),
                                                each_kind)
                self._out += each_payload
                self.messages_sent += 1
            if self._out:
                self._write_out(kind)

    def _write_out(self, kind: int) -> None:
        """One ``sendall`` of everything appended; send lock held."""
        try:
            self._socket.sendall(self._out)
        except OSError as exc:
            name = KIND_NAMES.get(kind, str(kind))
            raise SendError(f"send of {name} frame failed: {exc}") from exc
        finally:
            # Also after a failure: the stream is broken mid-frame, and
            # the caller's failover must find nothing left to re-send.
            self._out.clear()

    # -- receiving ----------------------------------------------------------

    def receive(self) -> Optional[Message]:
        """Blocking read of one message; None on orderly EOF.

        Raises :class:`ProtocolError` for anything else: a connection
        dying mid-frame, a length field outside ``[1, MAX_FRAME]``, an
        undecodable payload, or an unknown message kind.

        A :class:`TimeoutError` from a bounded receive (``settimeout``)
        is resumable: the parsed header and any buffered payload bytes
        are kept, and the next call picks up mid-frame instead of
        misreading payload bytes as a new header.
        """
        if self._pending_header is None:
            header = self._read_exactly(_FRAME_HEADER.size)
            if header is None:
                return None
            length, kind = _FRAME_HEADER.unpack(header)
            if not 1 <= length <= MAX_FRAME:
                raise ProtocolError(f"bad frame length {length} "
                                    f"(must be 1..{MAX_FRAME})")
            self._pending_header = (length, kind)
        length, kind = self._pending_header
        payload = self._read_exactly(length - 1)
        if payload is None:
            raise ProtocolError("connection closed mid-frame")
        self._pending_header = None
        self.messages_received += 1
        return self._decode(kind, payload)

    def receive_block(self, limit: int) -> List[Message]:
        """Up to ``limit`` messages at once; ``[]`` on orderly EOF.

        Every whole frame already buffered is taken in one pass with one
        ``del``; with none whole, one blocking :meth:`receive` of a
        single frame comes first.  The messages, and the error and the
        frame it is raised at, are those repeated ``receive()`` calls
        give: a frame the pass cannot take (a bad length, a payload that
        does not decode) ends the block before it, and the next call
        leaves it to ``receive()``.
        """
        messages = self._take_buffered(limit)
        if messages:
            return messages
        message = self.receive()
        if message is None:
            return []
        return [message] + self._take_buffered(limit - 1)

    def _take_buffered(self, limit: int) -> List[Message]:
        """The pass of :meth:`receive_block`: whole frames off the front
        of the buffer, up to ``limit``."""
        messages: List[Message] = []
        if self._pending_header is not None:
            return messages         # receive() owns the frame in flight
        buffer, decode = self._buffer, self._decode
        size, offset = len(buffer), 0
        while len(messages) < limit and size - offset >= _FRAME_HEADER.size:
            length, kind = _FRAME_HEADER.unpack_from(buffer, offset)
            start, end = offset + _FRAME_HEADER.size, offset + 4 + length
            if not 1 <= length <= MAX_FRAME or end > size:
                break
            try:
                messages.append(decode(kind, bytes(buffer[start:end])))
            except ProtocolError:
                break
            offset = end
        if offset:
            del buffer[:offset]
            self.messages_received += len(messages)
        return messages

    def _decode(self, kind: int, payload: bytes) -> Message:
        """The one per-kind decode of a whole frame's payload."""
        if kind == MSG_RECORD:
            # Validated, not decoded: the body is forwarded or sent as
            # it is.  A payload too short for the index leaves too short
            # a body.
            body = payload[_RECORD_INDEX.size:]
            try:
                record_head(body)
            except TraceFormatError as exc:
                raise ProtocolError(f"bad RECORD payload: {exc}")
            return (MSG_RECORD, (_RECORD_INDEX.unpack_from(payload)[0], body))
        if kind == MSG_TIME_SYNC:
            try:
                (trace_start,) = struct.unpack("!d", payload)
            except struct.error as exc:
                raise ProtocolError(f"bad TIME_SYNC payload: {exc}")
            return (MSG_TIME_SYNC, trace_start)
        if kind == MSG_END:
            _require(not payload, "END frame must carry no payload")
            return (MSG_END, None)
        if kind == MSG_HELLO:
            try:
                fields = _HELLO_V2.unpack(payload)
            except struct.error as exc:
                raise ProtocolError(f"bad HELLO payload: {exc}")
            _require(fields[0] in (ROLE_DISTRIBUTOR, ROLE_QUERIER,
                                   ROLE_SHARD),
                     f"bad HELLO role {fields[0]}")
            return (MSG_HELLO, fields)
        if kind in (MSG_RESULT, MSG_METRICS, MSG_CHECKPOINT,
                    MSG_TELEMETRY):
            try:
                decoded = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(f"bad JSON payload: {exc}")
            if kind == MSG_RESULT:
                return (kind, validate_result_payload(decoded))
            if kind == MSG_CHECKPOINT:
                return (kind, validate_checkpoint_payload(decoded))
            if kind == MSG_TELEMETRY:
                return (kind, validate_telemetry_payload(decoded))
            return (kind, validate_metrics_payload(decoded))
        if kind == MSG_SHUTDOWN:
            _require(not payload, "SHUTDOWN frame must carry no payload")
            return (MSG_SHUTDOWN, None)
        raise ProtocolError(f"unknown message kind {kind}")

    def has_frame(self) -> bool:
        """True when :meth:`receive` would return (or raise) without
        reading the socket: a whole frame, or a header whose length it
        refuses, is already buffered."""
        buffered = len(self._buffer)
        if self._pending_header is not None:
            return buffered >= self._pending_header[0] - 1
        if buffered < _FRAME_HEADER.size:
            return False
        length = int.from_bytes(self._buffer[:4], "big")
        return not 1 <= length <= MAX_FRAME or buffered >= 4 + length

    def fileno(self) -> int:
        """The socket's descriptor, so ``select`` takes the link itself."""
        return self._socket.fileno()

    def messages(self) -> Iterator[Message]:
        """Iterate until END or EOF."""
        while True:
            message = self.receive()
            if message is None:
                return
            yield message
            if message[0] == MSG_END:
                return

    def _read_exactly(self, count: int) -> Optional[bytes]:
        """``count`` bytes, or None on EOF at a frame boundary.

        EOF (or a socket error) with a partial frame already buffered is
        a protocol violation, not an orderly close.
        """
        while len(self._buffer) < count:
            try:
                chunk = self._socket.recv(65536)
            except TimeoutError:
                raise  # bounded receive: let the deadline surface
            except OSError:
                chunk = b""
            if not chunk:
                if self._buffer:
                    raise ProtocolError("connection closed mid-frame")
                return None
            self._buffer += chunk
        data = bytes(self._buffer[:count])
        del self._buffer[:count]
        return data

    def settimeout(self, timeout: Optional[float]) -> None:
        """Bound blocking receives (collection phases use deadlines)."""
        self._socket.settimeout(timeout)

    def close(self) -> None:
        try:
            self._socket.close()
        except OSError:
            pass


def connect(address: Tuple[str, int],
            timeout: Optional[float] = 10.0) -> MessageSocket:
    """Connect to a listening peer; used by worker processes."""
    sock = socket.create_connection(address, timeout=timeout)
    sock.settimeout(None)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MessageSocket(sock)


def connected_pair() -> Tuple[MessageSocket, MessageSocket]:
    """A loopback-connected MessageSocket pair (for tests and local
    multi-thread deployments)."""
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    client.connect(server.getsockname())
    accepted, _peer = server.accept()
    server.close()
    client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    accepted.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return MessageSocket(client), MessageSocket(accepted)
