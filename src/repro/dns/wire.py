"""Low-level wire readers and writers shared by the message codec, and
the one reader of a query's question straight off its bytes."""

from __future__ import annotations

import struct
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .constants import UDP_PAYLOAD_LIMIT, RRClass, RRType
from .name import CompressionContext, Name, NameError_, parse_wire_name


class WireError(ValueError):
    """Raised when a DNS message cannot be decoded."""


class WireWriter:
    """Accumulates bytes for a DNS message, tracking compression state."""

    def __init__(self, compress: bool = True):
        self._buffer = bytearray()
        self._compress: Optional[CompressionContext] = (
            CompressionContext() if compress else None
        )

    def write_u8(self, value: int) -> None:
        self._buffer.append(value & 0xFF)

    def write_u16(self, value: int) -> None:
        self._buffer += struct.pack("!H", value & 0xFFFF)

    def write_u32(self, value: int) -> None:
        self._buffer += struct.pack("!I", value & 0xFFFFFFFF)

    def write_bytes(self, data: bytes) -> None:
        self._buffer += data

    def write_name(self, name: Name, compressible: bool = True) -> None:
        context = self._compress if compressible else None
        self._buffer += name.to_wire(context, offset=len(self._buffer))

    def patch_u16(self, offset: int, value: int) -> None:
        """Overwrite a previously-written 16-bit field (e.g. RDLENGTH)."""
        struct.pack_into("!H", self._buffer, offset, value & 0xFFFF)

    def tell(self) -> int:
        return len(self._buffer)

    def getvalue(self) -> bytes:
        return bytes(self._buffer)


class WireReader:
    """Cursor over a DNS message, with bounds-checked reads."""

    def __init__(self, wire: bytes, offset: int = 0):
        self._wire = wire
        self._offset = offset

    def read_u8(self) -> int:
        self._need(1)
        value = self._wire[self._offset]
        self._offset += 1
        return value

    def read_u16(self) -> int:
        self._need(2)
        (value,) = struct.unpack_from("!H", self._wire, self._offset)
        self._offset += 2
        return value

    def read_u32(self) -> int:
        self._need(4)
        (value,) = struct.unpack_from("!I", self._wire, self._offset)
        self._offset += 4
        return value

    def read_bytes(self, count: int) -> bytes:
        if count < 0:
            # A lying length field (e.g. an RDLENGTH smaller than a
            # record's fixed fields) produces a negative tail read; a
            # plain slice would silently *rewind* the cursor, masking
            # the overrun from the consumed-length check downstream.
            raise WireError(f"negative read of {count} bytes")
        self._need(count)
        data = self._wire[self._offset : self._offset + count]
        self._offset += count
        return data

    def read_name(self) -> Name:
        name, self._offset = parse_wire_name(self._wire, self._offset)
        return name

    def remaining(self) -> int:
        return len(self._wire) - self._offset

    def tell(self) -> int:
        return self._offset

    def seek(self, offset: int) -> None:
        if offset < 0 or offset > len(self._wire):
            raise WireError("seek out of bounds")
        self._offset = offset

    @property
    def wire(self) -> bytes:
        return self._wire

    def _need(self, count: int) -> None:
        if self._offset + count > len(self._wire):
            raise WireError(
                f"truncated message: need {count} bytes at {self._offset}, "
                f"have {len(self._wire) - self._offset}"
            )


# (message id, question name, qtype): the key queriers match answers on
# and telemetry correlates one query's events by.
QueryKey = Tuple[int, bytes, int]


def _name_end(wire: bytes, labels: Optional[List[bytes]] = None) -> int:
    """The one walk over a question's label lengths: the offset just
    past the first question's name when a whole question follows it,
    else 0 (no question, a compression pointer, a message cut short).
    ``labels``, when given, receives each label as the wire spells it.
    """
    if len(wire) < 12 or not (wire[4] or wire[5]):
        return 0
    end = 12
    try:
        length = wire[12]
        while length:
            if length > 63:  # compression pointer: not a plain question
                return 0
            if labels is not None:
                labels.append(wire[end + 1:end + 1 + length])
            end += length + 1
            length = wire[end]
    except IndexError:
        return 0
    return end + 1 if end + 5 <= len(wire) else 0


def scan_question(wire: bytes, labels: Optional[List[bytes]] = None
                  ) -> Optional[Tuple[int, int, bytes, int, int, int]]:
    """The first question of a DNS message, read off its wire without a
    Message: ``(message id, flags, name, qtype, qclass, end)``, or None
    where :func:`_name_end` finds no plain question.

    ``name`` is the question name as lowercased wire bytes (length
    octets are below ``A`` and survive ``lower()``), one slice after the
    walk; ``end`` is the offset past the qclass.  :func:`parse_question`
    reads the compressed names this declines.
    """
    end = _name_end(wire, labels)
    if not end:
        return None
    return ((wire[0] << 8) | wire[1], (wire[2] << 8) | wire[3],
            wire[12:end].lower(), (wire[end] << 8) | wire[end + 1],
            (wire[end + 2] << 8) | wire[end + 3], end + 4)


def question_key(wire: bytes) -> Optional[QueryKey]:
    """:data:`QueryKey` of a message's wire, its query's or its
    response's alike, as :func:`scan_question` reads it, or None."""
    end = _name_end(wire)
    return ((wire[0] << 8) | wire[1], wire[12:end].lower(),
            (wire[end] << 8) | wire[end + 1]) if end else None


def parse_question(wire: bytes) -> Optional[Tuple[Name, RRType, RRClass]]:
    """The first question of a DNS message's wire as ``(name, type,
    class)``, or None when it has none; WireError when it is not
    readable."""
    if len(wire) < 12:
        raise WireError("truncated DNS header")
    if not (wire[4] or wire[5]):  # QDCOUNT == 0
        return None
    try:
        name, end = parse_wire_name(wire, 12)
    except NameError_ as exc:
        raise WireError(str(exc)) from exc
    if end + 4 > len(wire):
        raise WireError("truncated question section")
    try:
        rrtype = RRType.make(int.from_bytes(wire[end:end + 2], "big"))
        rrclass = RRClass(int.from_bytes(wire[end + 2:end + 4], "big"))
    except ValueError as exc:
        raise WireError(str(exc)) from exc
    return (name, rrtype, rrclass)


class QuestionEntry:
    """What a query's bytes past its message ID say about its question:
    one :func:`scan_question` walk, each half rendered on its first read.

    ``qname``, the name every querier files a send under, is the first
    question's name in lowercased presentation format, or ``-``;
    ``qtype`` is None where :func:`scan_question` declines.
    ``udp_key`` and ``stream_key`` are the tails of the server's
    wire-cache key, ``(labels, qtype, qclass, rd, edns_present, do,
    limit)`` as ``AuthoritativeServer.serve_wire`` builds it from a
    decoded Message, or None for a shape the fast path does not serve.
    A live querier reads only the name and a live server only the keys,
    so neither renders the other's half.
    """

    __slots__ = ("wire", "labels", "scan", "qtype", "_qname", "_keys")

    def __init__(self, wire: bytes) -> None:
        self.wire, self.labels = wire, []
        self.scan = scan_question(wire, self.labels)
        self.qtype = None if self.scan is None else self.scan[3]
        self._qname = self._keys = None

    @property
    def qname(self) -> str:
        qname = self._qname
        if qname is None:
            qname = self._qname = _render_qname(self.wire, self.scan,
                                                self.labels)
        return qname

    @property
    def udp_key(self) -> Optional[tuple]:
        return (self._keys or self._render_keys())[0]

    @property
    def stream_key(self) -> Optional[tuple]:
        return (self._keys or self._render_keys())[1]

    def _render_keys(self) -> Tuple[Optional[tuple], Optional[tuple]]:
        key = self.scan and _udp_cache_key(self.wire, self.scan,
                                           self.labels)
        self._keys = (key, key and key[:-1] + (None,))
        return self._keys

    def __eq__(self, other) -> bool:
        fields = attrgetter("qname", "qtype", "udp_key", "stream_key")
        return isinstance(other, QuestionEntry) \
            and fields(self) == fields(other)

    __hash__ = None


# QuestionEntry memoized on the query past its message ID for every
# querier and server in the process: a sim querier's send fills the
# entry the server then keys its cache with.  Cleared when full: a hot
# trace's questions fit, a miss-heavy trace's single-use ones do not
# pile up (a 2**16 cap raised sim-broot's peak RSS).
_QUESTIONS: Dict[bytes, QuestionEntry] = {}
_QUESTIONS_LIMIT = 4096

# A plain question name, 2 to 255 octets of labels holding only these
# octets once lowercased (a dot only between labels) and of a known
# qclass, reads as its lowercased labels dotted, with no parse.
_PLAIN_OCTETS = b"abcdefghijklmnopqrstuvwxyz0123456789_-."
_CLASSES = frozenset(map(int, RRClass))


def read_question(wire: bytes) -> QuestionEntry:
    """The :class:`QuestionEntry` of a query's wire, memoized."""
    tail = wire[2:]
    entry = _QUESTIONS.get(tail)
    if entry is None:
        if len(_QUESTIONS) >= _QUESTIONS_LIMIT:
            _QUESTIONS.clear()
        entry = _QUESTIONS[tail] = QuestionEntry(wire)
    return entry


def _render_qname(wire: bytes, scan: Optional[tuple],
                  labels: List[bytes]) -> str:
    """:class:`QuestionEntry`'s ``qname``, from its scan."""
    dotted = b".".join(labels).lower()
    if scan is not None and 2 <= len(scan[2]) <= 255 \
            and scan[4] in _CLASSES \
            and not dotted.translate(None, _PLAIN_OCTETS) \
            and dotted.count(b".") == len(labels) - 1:
        return dotted.decode("ascii") + "."
    try:
        question = parse_question(wire)
    except WireError:
        question = None
    return question[0].to_text().lower() if question else "-"


def _udp_cache_key(wire: bytes, scan: tuple, labels: List[bytes]
                   ) -> Optional[tuple]:
    """:class:`QuestionEntry`'s ``udp_key``: None for responses,
    non-QUERY opcodes, anything but exactly one question,
    answer/authority records in a query, oversized names, more than a
    lone well-formed OPT in additional, non-IN classes, an undefined
    RCODE, ragged EDNS options or trailing bytes.  The decoder rejects
    the last three, so the fast path must not accept them either: a
    template hit, unlike an exact-qname hit, needs no earlier decoded
    query to have vouched for the name.
    """
    _ident, flags, name, qtype, qclass, pos = scan
    n = len(wire)
    if flags & 0xF800 or flags & 0x000F > 5 \
            or wire[4:10] != b"\x00\x01\x00\x00\x00\x00" \
            or wire[10] or wire[11] > 1 or len(name) > 255 or qclass != 1:
        # QR, opcode != QUERY, an undefined RCODE (it fails the
        # decoder's enum), QDCOUNT != 1, ANCOUNT/NSCOUNT != 0,
        # ARCOUNT > 1; IN only, matching serve_wire's cacheable check.
        return None
    edns_present = False
    dnssec_ok = False
    payload_size = 0
    if wire[11]:  # the lone additional record must be a root-owned OPT
        if pos + 11 > n or wire[pos] != 0:
            return None
        if wire[pos + 1] or wire[pos + 2] != 41:  # TYPE != OPT
            return None
        edns_present = True
        payload_size = (wire[pos + 3] << 8) | wire[pos + 4]
        dnssec_ok = bool(wire[pos + 7] & 0x80)
        if pos + 11 + ((wire[pos + 9] << 8) | wire[pos + 10]) != n:
            return None
        pos += 11
        while pos + 4 <= n:  # options: the decoder rejects a ragged tail
            pos += 4 + ((wire[pos + 2] << 8) | wire[pos + 3])
    if pos != n:  # trailing bytes: the decode path rejects these
        return None
    limit = max(payload_size, UDP_PAYLOAD_LIMIT) if edns_present \
        else UDP_PAYLOAD_LIMIT
    return (tuple(labels), qtype, qclass, bool(flags & 0x0100),
            edns_present, dnssec_ok, limit)
