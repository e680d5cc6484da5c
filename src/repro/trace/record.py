"""The trace record model shared by every trace format and the replayer."""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Iterable, List, Optional, Tuple

from ..dns import (DNS_PORT, Edns, Message, Name, NameError_, RRClass, RRType,
                   WireError)
from ..dns.name import parse_wire_name

PROTOCOLS = ("udp", "tcp", "tls")

_object_setattr = object.__setattr__


@dataclass(frozen=True)
class QueryRecord:
    """One captured DNS message: timing, addressing, transport, payload.

    ``wire`` is the DNS message in wire format — payload only, no
    IP/transport headers (those are regenerated on replay).
    """

    timestamp: float
    src: str
    sport: int
    dst: str
    dport: int
    protocol: str
    wire: bytes

    # The generated ``__init__``, less its per-field lookup of
    # ``object.__setattr__``: a record is built per trace line and mutation.
    def __init__(self, timestamp: float, src: str, sport: int, dst: str,
                 dport: int, protocol: str, wire: bytes) -> None:
        _object_setattr(self, "timestamp", timestamp)
        _object_setattr(self, "src", src)
        _object_setattr(self, "sport", sport)
        _object_setattr(self, "dst", dst)
        _object_setattr(self, "dport", dport)
        _object_setattr(self, "protocol", protocol)
        _object_setattr(self, "wire", wire)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")

    def message(self) -> Message:
        return Message.from_wire(self.wire)

    def is_response(self) -> bool:
        # Flag word is bytes 2-3; QR is the top bit.
        return len(self.wire) > 2 and bool(self.wire[2] & 0x80)

    def question(self) -> Optional[Tuple[Name, RRType, RRClass]]:
        """The first question as ``(name, type, class)``, or None.

        Parses just the question section directly from the wire (and
        caches the result on the record): the replayer keys every send
        and response-match on the question, and a full
        ``Message.from_wire`` per access dominated replay setup.
        """
        try:
            return self._question_cache  # type: ignore[attr-defined]
        except AttributeError:
            pass
        value = parse_question(self.wire)
        # The dataclass is frozen; the cache is invisible derived state.
        object.__setattr__(self, "_question_cache", value)
        return value

    def with_(self, **changes) -> "QueryRecord":
        """``dataclasses.replace(self, **changes)``, built by position
        (``replace`` still refuses a name that is not a field)."""
        if changes.keys() - _FIELDS:
            return replace(self, **changes)
        return type(self)(*map(changes.get, _FIELDS, _field_values(self)))


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


_FIELDS = tuple(field.name for field in fields(QueryRecord))
_field_values = attrgetter(*_FIELDS)


class Trace:
    """An ordered sequence of records plus provenance metadata."""

    def __init__(self, records: Iterable[QueryRecord] = (),
                 name: str = "trace"):
        self.records: List[QueryRecord] = list(records)
        self.name = name

    def append(self, record: QueryRecord) -> None:
        self.records.append(record)

    def sort(self) -> None:
        self.records.sort(key=lambda r: r.timestamp)

    def queries(self) -> "Trace":
        return Trace([r for r in self.records if not r.is_response()],
                     name=f"{self.name}:queries")

    def responses(self) -> "Trace":
        return Trace([r for r in self.records if r.is_response()],
                     name=f"{self.name}:responses")

    def duration(self) -> float:
        if len(self.records) < 2:
            return 0.0
        return self.records[-1].timestamp - self.records[0].timestamp

    def clients(self) -> List[str]:
        seen = {}
        for record in self.records:
            seen.setdefault(record.src, None)
        return list(seen)

    def merge(self, *others: "Trace") -> "Trace":
        """Merge traces into one, sorted by timestamp (§2.3's optional
        multi-trace merge, at the trace level)."""
        merged = Trace(self.records, name=f"{self.name}:merged")
        for other in others:
            merged.records.extend(other.records)
        merged.sort()
        return merged

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.records[index], name=self.name)
        return self.records[index]

    def __repr__(self) -> str:
        return (f"Trace({self.name!r}, {len(self.records)} records, "
                f"{self.duration():.1f}s)")


def make_query_record(timestamp: float, src: str, qname: str,
                      qtype: RRType = RRType.A, dst: str = "10.0.0.2",
                      protocol: str = "udp", sport: int = 40000,
                      dport: int = DNS_PORT, msg_id: int = 1,
                      dnssec_ok: bool = False,
                      edns: bool = True) -> QueryRecord:
    """Convenience constructor used by generators and tests."""
    message = Message.make_query(
        Name.from_text(qname), qtype, msg_id=msg_id,
        edns=Edns(dnssec_ok=dnssec_ok) if (edns or dnssec_ok) else None)
    return QueryRecord(timestamp, src, sport, dst, dport, protocol,
                       message.to_wire())
