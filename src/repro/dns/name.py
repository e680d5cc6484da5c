"""Domain names: parsing, canonicalization, and wire encoding.

A :class:`Name` is an immutable sequence of labels, stored without the
terminating empty root label (the root name has zero labels).  Names
compare and hash case-insensitively, as required by RFC 1035 section 2.3.3,
but preserve the case they were created with for presentation.

Wire encoding supports RFC 1035 message compression via an optional
:class:`CompressionContext` shared across one message.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Tuple

MAX_LABEL_LENGTH = 63
MAX_NAME_LENGTH = 255  # wire length, including length octets and root
POINTER_MASK = 0xC0
MAX_POINTER_TARGET = 0x3FFF


class NameError_(ValueError):
    """Raised for malformed domain names (distinct from builtin NameError)."""


class Name:
    """An immutable, case-insensitively-comparable domain name."""

    __slots__ = ("_labels", "_key", "_hash", "_wire", "_text")

    def __init__(self, labels: Iterable[bytes] = ()):
        labels = tuple(labels)
        for label in labels:
            if not label:
                raise NameError_("empty interior label")
            if len(label) > MAX_LABEL_LENGTH:
                raise NameError_(f"label too long: {len(label)} > {MAX_LABEL_LENGTH}")
        if sum(len(l) + 1 for l in labels) + 1 > MAX_NAME_LENGTH:
            raise NameError_("name exceeds 255 octets on the wire")
        self._labels = labels
        self._key = tuple(l.lower() for l in labels)
        self._hash = hash(self._key)
        self._wire = None
        self._text = None

    @classmethod
    def _trusted(cls, labels: Tuple[bytes, ...],
                 key: Optional[Tuple[bytes, ...]] = None) -> "Name":
        """Construct from labels already validated by an existing Name.

        Skips the per-label validation and, when ``key`` (the lowercased
        label tuple) is supplied, the lowercasing pass — derivation
        methods like :meth:`ancestors` slice both tuples of a validated
        name, which is the event loop's hottest allocation site.
        """
        self = object.__new__(cls)
        self._labels = labels
        self._key = (key if key is not None
                     else tuple(l.lower() for l in labels))
        self._hash = hash(self._key)
        self._wire = None
        self._text = None
        return self

    @classmethod
    def from_text(cls, text: str) -> "Name":
        """Parse a presentation-format name like ``www.example.com.``.

        Both absolute (trailing dot) and relative spellings are accepted and
        treated as absolute; LDplayer traces always carry absolute names.
        Supports ``\\.`` escapes and ``\\DDD`` decimal escapes.
        """
        if text in (".", ""):
            return cls(())
        if text.endswith(".") and not text.endswith("\\."):
            text = text[:-1]
        labels = []
        current = bytearray()
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\\":
                if i + 3 < len(text) + 1 and text[i + 1 : i + 4].isdigit():
                    code = int(text[i + 1 : i + 4])
                    if code > 255:
                        raise NameError_(f"bad escape in {text!r}")
                    current.append(code)
                    i += 4
                elif i + 1 < len(text):
                    current.append(ord(text[i + 1]))
                    i += 2
                else:
                    raise NameError_(f"dangling escape in {text!r}")
            elif ch == ".":
                labels.append(bytes(current))
                current = bytearray()
                i += 1
            else:
                current.append(ord(ch))
                i += 1
        labels.append(bytes(current))
        return cls(labels)

    @property
    def labels(self) -> Tuple[bytes, ...]:
        return self._labels

    @property
    def key(self) -> Tuple[bytes, ...]:
        """The lowercased labels: what names compare and hash by."""
        return self._key

    def is_root(self) -> bool:
        return not self._labels

    def is_wild(self) -> bool:
        """True if the leftmost label is ``*`` (a wildcard owner name)."""
        return bool(self._labels) and self._labels[0] == b"*"

    def to_text(self) -> str:
        text = self._text
        if text is not None:
            return text
        if not self._labels:
            self._text = "."
            return "."
        parts = []
        for label in self._labels:
            out = []
            for byte in label:
                ch = chr(byte)
                if ch in ".\\":
                    out.append("\\" + ch)
                elif 0x21 <= byte <= 0x7E:
                    out.append(ch)
                else:
                    out.append("\\%03d" % byte)
            parts.append("".join(out))
        text = ".".join(parts) + "."
        self._text = text
        return text

    def to_wire(self, compress: Optional["CompressionContext"] = None,
                offset: int = 0) -> bytes:
        """Encode for the wire, optionally using message compression.

        ``offset`` is the position in the message where this name begins;
        it is needed to record compression targets.
        """
        if compress is None:
            wire = self._wire
            if wire is None:
                out = bytearray()
                for label in self._labels:
                    out.append(len(label))
                    out += label
                out.append(0)
                wire = bytes(out)
                self._wire = wire
            return wire
        out = bytearray()
        labels = self._labels
        key = self._key
        index = 0
        n = len(labels)
        while index < n:
            target = compress.lookup_key(key[index:])
            if target is not None:
                out += bytes(((POINTER_MASK | (target >> 8)), target & 0xFF))
                return bytes(out)
            position = offset + len(out)
            if position <= MAX_POINTER_TARGET:
                compress.add_key(key[index:], position)
            label = labels[index]
            out.append(len(label))
            out += label
            index += 1
        out.append(0)
        return bytes(out)

    def parent(self) -> "Name":
        if not self._labels:
            raise NameError_("the root name has no parent")
        return Name._trusted(self._labels[1:], self._key[1:])

    def is_subdomain_of(self, other: "Name") -> bool:
        """True if self is equal to or below ``other``."""
        n = len(other._key)
        if n == 0:
            return True
        return len(self._key) >= n and self._key[-n:] == other._key

    def derelativize(self, origin: "Name") -> "Name":
        """Append ``origin``; used by the zone-file parser."""
        return Name(self._labels + origin._labels)

    def split(self, depth: int) -> Tuple["Name", "Name"]:
        """Split into (prefix of ``depth`` labels, remaining suffix)."""
        return (Name._trusted(self._labels[:depth], self._key[:depth]),
                Name._trusted(self._labels[depth:], self._key[depth:]))

    def ancestors(self) -> Iterator["Name"]:
        """Yield self, then each ancestor up to and including the root."""
        labels, key = self._labels, self._key
        for i in range(len(labels) + 1):
            yield Name._trusted(labels[i:], key[i:])

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._key == other._key

    def __lt__(self, other: "Name") -> bool:
        # Canonical DNS ordering (RFC 4034 6.1): compare reversed label
        # sequences, case-insensitively.
        return tuple(reversed(self._key)) < tuple(reversed(other._key))

    def __le__(self, other: "Name") -> bool:
        return self == other or self < other

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Name({self.to_text()!r})"

    def __str__(self) -> str:
        return self.to_text()


ROOT = Name(())


class CompressionContext:
    """Tracks name suffixes already emitted in a message being encoded.

    Keyed on lowercased label tuples rather than :class:`Name` objects so
    the encoder can probe suffixes without materialising a Name per label
    (the old per-suffix allocation dominated message encoding).
    """

    def __init__(self) -> None:
        self._table: dict[Tuple[bytes, ...], int] = {}

    def lookup_key(self, key: Tuple[bytes, ...]) -> Optional[int]:
        if not key:
            return None  # the root is 1 byte; a pointer is 2
        return self._table.get(key)

    def add_key(self, key: Tuple[bytes, ...], position: int) -> None:
        if key and key not in self._table:
            self._table[key] = position

    def lookup(self, name: Name) -> Optional[int]:
        return self.lookup_key(name._key)

    def add(self, name: Name, position: int) -> None:
        self.add_key(name._key, position)


def parse_wire_name(wire: bytes, offset: int) -> Tuple[Name, int]:
    """Decode a (possibly compressed) name from ``wire`` at ``offset``.

    Returns the name and the offset just past its encoding at the original
    location (pointers are followed but do not advance the cursor).
    """
    labels = []
    cursor = offset
    end = None  # set when we follow the first pointer
    seen = set()
    while True:
        if cursor >= len(wire):
            raise NameError_("truncated name")
        length = wire[cursor]
        if length & POINTER_MASK == POINTER_MASK:
            if cursor + 1 >= len(wire):
                raise NameError_("truncated compression pointer")
            target = ((length & ~POINTER_MASK) << 8) | wire[cursor + 1]
            if target in seen or target >= cursor:
                raise NameError_("compression pointer loop")
            seen.add(target)
            if end is None:
                end = cursor + 2
            cursor = target
        elif length & POINTER_MASK:
            raise NameError_(f"reserved label type {length >> 6:#x}")
        elif length == 0:
            if end is None:
                end = cursor + 1
            return Name(labels), end
        else:
            if cursor + 1 + length > len(wire):
                raise NameError_("truncated label")
            labels.append(wire[cursor + 1 : cursor + 1 + length])
            cursor += 1 + length
