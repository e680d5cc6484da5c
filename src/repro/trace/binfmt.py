"""The customized binary internal-message format (§2.5, Figure 3).

The replay hot path must not pay text- or pcap-parsing costs, so
LDplayer pre-converts its input to a stream of length-prefixed internal
messages.  Version 2 is *chunked* so that B-Root-scale
traces (10⁸ queries and up) stream through bounded memory and
truncation is always detectable:

    file header:  magic ``LDPB`` + u16 version + u16 reserved
    data chunk:   u32 chunk_length (payload bytes, > 0),
                  u32 record_count, then exactly ``record_count``
                  length-prefixed records
    per record:   u32 total_length, f64 timestamp, u32 src, u16 sport,
                  u32 dst, u16 dport, u8 protocol, u8 reserved,
                  u16 wire_length, wire bytes
    trailer:      u32 0 (end-of-chunks marker) + u64 total record count

``total_length`` is everything after the length field itself, letting a
reader skip unknown trailing extensions ("pre-pend the length of each
message at the beginning of each binary message").  The trailer closes
the version-1 blind spot where a file truncated *exactly* at a record
boundary was indistinguishable from clean EOF: a v2 stream that ends
without its trailer — or whose trailer count disagrees with the records
read — raises :class:`TraceFormatError` instead of silently yielding a
shortened trace.  Version-1 files (a bare record stream, no chunks or
trailer) are rejected like any other unknown version.

Readers and writers are streaming end to end: the writer accepts any
record iterable (never a whole :class:`Trace`) and buffers at most one
chunk; the reader holds at most one chunk.  Peak memory is
``O(chunk_records)`` regardless of trace length.

A record need not be decoded to be replayed: :func:`iter_record_bodies`
walks a file to its record bodies, :func:`record_head` validates one and
gives what routing and pacing read (timestamp, packed source), and the
live tiers forward the body as it is (the paper's distributors forward
the same record layout, §2.6).
"""

from __future__ import annotations

import ipaddress
import struct
from typing import BinaryIO, Iterable, Iterator, Tuple

from .record import PROTOCOLS, QueryRecord, Trace

MAGIC = b"LDPB"
VERSION = 2
_HEADER = struct.Struct("!4sHH")
_RECORD_FIXED = struct.Struct("!dIHIHBBH")
# What record_head checks and returns (timestamp, src, protocol, wire
# length), and the rest of the fixed header (sport, dst, dport,
# protocol, wire length).
_RECORD_CHECK = struct.Struct("!dI8xBxH")
_RECORD_REST = struct.Struct("!HIHBxH")
_U32 = struct.Struct("!I")
_CHUNK_HEADER = struct.Struct("!II")
_TRAILER = struct.Struct("!Q")

# Where a record body's wire bytes start, and its timestamp and wire
# length in one unpack: all a live querier reads of a body that
# record_head has accepted.
WIRE_OFFSET = _RECORD_FIXED.size
RECORD_TIME_AND_WIRE_LENGTH = struct.Struct("!d14xH")
# The packed source of an accepted body, for a tier that routes it.
RECORD_SOURCE = struct.Struct("!8xI")
# Where an accepted body's protocol index (into PROTOCOLS) sits.
RECORD_PROTOCOL_OFFSET = struct.calcsize("!dIHIH")

# Records the writer buffers before flushing one chunk.  4096 records
# at ~60 bytes each keeps chunks around 256 KB: big enough that the
# per-chunk syscall cost vanishes, small enough that a reader's
# resident buffer stays trivially bounded.
DEFAULT_CHUNK_RECORDS = 4096

# Hostile-length guards: a record body is the fixed header plus a wire
# payload whose length field is u16, and a chunk may not claim more
# than this many bytes — lying prefixes fail fast instead of forcing a
# multi-gigabyte allocation.
MAX_RECORD = _RECORD_FIXED.size + 0xFFFF
MAX_CHUNK = 1 << 28


class TraceFormatError(ValueError):
    """A malformed, truncated, or lying binary trace stream."""


# -- address interning -------------------------------------------------------
#
# ``ipaddress.IPv4Address`` round-trips dominate per-record pack/unpack
# cost (~4 µs of a ~5 µs record), yet trace client populations are
# small (10³–10⁶ sources) relative to trace length (10⁸).  Interning
# the conversions makes the streaming path ~4× faster; the caches stop
# growing at a bound that still covers a million-client population.

_MAX_INTERNED = 1 << 20
_addr_to_int: dict = {}
_int_to_addr: dict = {}


def _pack_addr(address: str) -> int:
    value = _addr_to_int.get(address)
    if value is None:
        value = int(ipaddress.IPv4Address(address))
        if len(_addr_to_int) < _MAX_INTERNED:
            _addr_to_int[address] = value
    return value


def _unpack_addr(value: int) -> str:
    address = _int_to_addr.get(value)
    if address is None:
        address = str(ipaddress.IPv4Address(value))
        if len(_int_to_addr) < _MAX_INTERNED:
            _int_to_addr[value] = address
    return address


def pack_record_body(record: QueryRecord) -> bytes:
    """The fixed header + wire bytes of one record (no length prefix).

    Shared by the file format and the inter-node replay protocol
    (:mod:`repro.replay.protocol`), which frame it differently.
    """
    fixed = _RECORD_FIXED.pack(
        record.timestamp,
        _pack_addr(record.src),
        record.sport,
        _pack_addr(record.dst),
        record.dport,
        PROTOCOLS.index(record.protocol),
        0,
        len(record.wire))
    return fixed + record.wire


def record_head(body: bytes) -> Tuple[float, int]:
    """Validate one record body; return its timestamp and packed source.

    The one record validator.  A body is refused when it is shorter
    than the fixed header, when its wire is shorter than its length
    field, or when its protocol index names no protocol.  Bytes past
    the wire are an extension a reader skips (``total_length`` allows
    them); a body this accepts can be forwarded without decoding.
    """
    if len(body) < _RECORD_FIXED.size:
        # Guard before unpack_from: a truncated control frame must fail
        # as a format error, not leak struct.error to protocol peers.
        raise TraceFormatError(
            f"record body too short: {len(body)} < {_RECORD_FIXED.size}")
    timestamp, src, protocol_index, wire_length = \
        _RECORD_CHECK.unpack_from(body)
    if len(body) < _RECORD_FIXED.size + wire_length:
        raise TraceFormatError("truncated message wire data")
    if protocol_index >= len(PROTOCOLS):
        raise TraceFormatError(f"bad protocol index {protocol_index}")
    return timestamp, src


def record_source(body: bytes) -> str:
    """The source address of an accepted body, as (interned) text."""
    return _unpack_addr(RECORD_SOURCE.unpack_from(body)[0])


def unpack_record_body(body: bytes) -> QueryRecord:
    """Inverse of :func:`pack_record_body`."""
    timestamp, src = record_head(body)
    sport, dst, dport, protocol_index, wire_length = \
        _RECORD_REST.unpack_from(body, 12)
    return QueryRecord(
        timestamp,
        _unpack_addr(src), sport,
        _unpack_addr(dst), dport,
        PROTOCOLS[protocol_index],
        body[WIRE_OFFSET:WIRE_OFFSET + wire_length])


def _pack_record(record: QueryRecord) -> bytes:
    body = pack_record_body(record)
    return _U32.pack(len(body)) + body


# ---------------------------------------------------------------------------
# Streaming writer
# ---------------------------------------------------------------------------

class ChunkedTraceWriter:
    """Streaming v2 writer: feed records one at a time, bounded memory.

    Usable as a context manager; :meth:`close` (or the ``with`` exit)
    flushes the final partial chunk and writes the trailer.  A stream
    abandoned without :meth:`close` is *deliberately* detectable as
    truncated by the reader.
    """

    def __init__(self, stream: BinaryIO,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self._stream = stream
        self._chunk_records = chunk_records
        self._buffer: list = []
        self._buffer_bytes = 0
        self._closed = False
        self.records_written = 0
        stream.write(_HEADER.pack(MAGIC, VERSION, 0))

    def write(self, record: QueryRecord) -> None:
        if self._closed:
            raise ValueError("writer already closed")
        packed = _pack_record(record)
        self._buffer.append(packed)
        self._buffer_bytes += len(packed)
        self.records_written += 1
        if len(self._buffer) >= self._chunk_records:
            self._flush_chunk()

    def write_all(self, records: Iterable[QueryRecord]) -> int:
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count

    def _flush_chunk(self) -> None:
        if not self._buffer:
            return
        self._stream.write(_CHUNK_HEADER.pack(self._buffer_bytes,
                                              len(self._buffer)))
        self._stream.write(b"".join(self._buffer))
        self._buffer.clear()
        self._buffer_bytes = 0

    def close(self) -> None:
        if self._closed:
            return
        self._flush_chunk()
        self._stream.write(_U32.pack(0))
        self._stream.write(_TRAILER.pack(self.records_written))
        self._closed = True

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # Propagating an exception mid-write must leave the stream
        # *truncated* (no trailer), so a later reader refuses it.
        if exc_type is None:
            self.close()


def write_binary_stream(records: Iterable[QueryRecord], stream: BinaryIO,
                        chunk_records: int = DEFAULT_CHUNK_RECORDS) -> int:
    """Serialize any record iterable; returns the record count.

    The streaming entry point: a 10⁸-record generator passes through
    one chunk buffer at a time and never exists in memory at once.
    """
    with ChunkedTraceWriter(stream, chunk_records) as writer:
        return writer.write_all(records)


def write_binary(trace: Trace, stream: BinaryIO) -> int:
    """Serialize a trace; returns the number of records written."""
    return write_binary_stream(iter(trace), stream)


# ---------------------------------------------------------------------------
# Streaming reader
# ---------------------------------------------------------------------------

def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    """Read exactly ``size`` bytes or raise :class:`TraceFormatError`.

    Loops on short reads: a raw pipe or socket file may legally return
    fewer bytes than asked mid-stream, which is not truncation.
    """
    data = stream.read(size)
    if data is None:
        data = b""
    while len(data) < size:
        more = stream.read(size - len(data))
        if not more:
            raise TraceFormatError(
                f"truncated {what}: got {len(data)} of {size} bytes")
        data += more
    return data


def _iter_chunk_records(payload: bytes, declared: int) -> Iterator[bytes]:
    """Split one chunk payload into its record bodies, verifying shape."""
    offset = 0
    seen = 0
    size = len(payload)
    while offset < size:
        if offset + 4 > size:
            raise TraceFormatError("chunk payload ends mid record length")
        (length,) = _U32.unpack_from(payload, offset)
        offset += 4
        if length > MAX_RECORD:
            raise TraceFormatError(
                f"record length {length} exceeds maximum {MAX_RECORD}")
        if offset + length > size:
            raise TraceFormatError("chunk payload ends mid record body")
        yield payload[offset:offset + length]
        offset += length
        seen += 1
    if seen != declared:
        raise TraceFormatError(
            f"chunk declared {declared} records but held {seen}")


def _iter_v2(stream: BinaryIO) -> Iterator[bytes]:
    total = 0
    while True:
        header = stream.read(_CHUNK_HEADER.size)
        if header is None:
            header = b""
        if len(header) < _CHUNK_HEADER.size:
            if len(header) >= 4 and _U32.unpack_from(header)[0] == 0:
                raise TraceFormatError("truncated end-of-trace trailer")
            raise TraceFormatError(
                "truncated trace: stream ended without its trailer"
                if not header else "truncated chunk header")
        chunk_length, record_count = _CHUNK_HEADER.unpack(header)
        if chunk_length == 0:
            # record_count here is the upper half of the u64 trailer;
            # re-read the full 8-byte count from the remaining bytes.
            rest = _read_exact(stream, _TRAILER.size - 4,
                               "end-of-trace trailer")
            (declared_total,) = _TRAILER.unpack(header[4:] + rest)
            if declared_total != total:
                raise TraceFormatError(
                    f"trailer declares {declared_total} records "
                    f"but stream held {total}")
            trailing = stream.read(1)
            if trailing:
                raise TraceFormatError("bytes after end-of-trace trailer")
            return
        if chunk_length > MAX_CHUNK:
            raise TraceFormatError(
                f"chunk length {chunk_length} exceeds maximum {MAX_CHUNK}")
        payload = _read_exact(stream, chunk_length, "chunk payload")
        # The walk raises unless the chunk held exactly record_count.
        yield from _iter_chunk_records(payload, record_count)
        total += record_count


def iter_binary(stream: BinaryIO) -> Iterator[QueryRecord]:
    """Stream records from a binary trace (the replay input engine).

    Constant memory: at most one chunk is resident.  Every truncation —
    mid-header, mid-chunk, mid-record, or a missing/lying trailer —
    raises :class:`TraceFormatError`; a generator that stops iteration
    cleanly has read a complete, self-consistent trace.
    """
    yield from map(unpack_record_body, iter_record_bodies(stream))


def iter_record_bodies(stream: BinaryIO) -> Iterator[bytes]:
    """Stream the record bodies of a binary trace, undecoded.

    The one walker over the format: file header, then chunks and
    trailer, with every truncation check
    :func:`iter_binary` documents.  Bodies are not validated here: a
    reader that forwards them checks each with :func:`record_head`.
    """
    header = stream.read(_HEADER.size)
    if header is None or len(header) != _HEADER.size:
        raise TraceFormatError("truncated file header")
    magic, version, _reserved = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported version {version}")
    yield from _iter_v2(stream)


def read_binary(stream: BinaryIO, name: str = "binary-trace") -> Trace:
    """Materialize a binary stream as a :class:`Trace`.

    One pass, one buffer: records land directly in the trace's list
    (the pre-chunking version built the full record list and then
    copied it into the trace — double the peak footprint of a large
    read).  Callers that can avoid materializing at all should iterate
    :func:`iter_binary` instead.
    """
    trace = Trace(name=name)
    append = trace.records.append
    for record in iter_binary(stream):
        append(record)
    return trace
