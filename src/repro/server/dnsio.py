"""DNS message transport framing.

UDP carries one message per datagram.  TCP and TLS carry a stream of
messages, each prefixed with a two-byte network-order length (RFC 1035
§4.2.2 / RFC 7766).  :class:`StreamFramer` turns stream bytes back into
messages; the paper's latency tails come from large replies spanning
several TCP segments, which this reassembly makes visible.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional


class FramingError(ValueError):
    pass


def frame_message(wire: bytes) -> bytes:
    """Prefix a DNS message with its 2-byte length for TCP/TLS."""
    if len(wire) > 0xFFFF:
        raise FramingError(f"message too large to frame: {len(wire)}")
    return struct.pack("!H", len(wire)) + wire


class StreamFramer:
    """Incremental decoder of length-prefixed DNS messages."""

    def __init__(self, on_message: Optional[Callable[[bytes], None]] = None,
                 max_buffered: Optional[int] = None):
        self._buffer = bytearray()
        self.on_message = on_message
        self.messages_decoded = 0
        # Reassembly-buffer bound: a peer that advertises a length and
        # then trickles bytes (or floods partial frames) may not pin
        # unbounded memory.  None keeps the pre-overload behavior.
        self.max_buffered = max_buffered

    def feed(self, data: bytes) -> List[bytes]:
        """Feed stream bytes; return (and deliver) completed messages."""
        self._buffer += data
        if self.max_buffered is not None \
                and len(self._buffer) > self.max_buffered:
            raise FramingError(
                f"stream buffer exceeded {self.max_buffered} bytes")
        completed = []
        while True:
            if len(self._buffer) < 2:
                break
            (length,) = struct.unpack_from("!H", self._buffer)
            if len(self._buffer) < 2 + length:
                break
            wire = bytes(self._buffer[2 : 2 + length])
            del self._buffer[: 2 + length]
            self.messages_decoded += 1
            completed.append(wire)
            if self.on_message is not None:
                self.on_message(wire)
        return completed

    def pending_bytes(self) -> int:
        return len(self._buffer)
