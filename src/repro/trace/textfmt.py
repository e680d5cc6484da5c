"""The plain-text trace format (§2.5, Figure 3).

LDplayer converts binary network traces to a column-oriented text file so
queries can be edited "with a program or text editor".  One line per DNS
message:

    time src sport dst dport proto msgid qname qclass qtype flags \
        edns_payload do

``flags`` is either ``-`` or a comma-separated list (``rd,cd``).  Lines
beginning with ``#`` are comments.  The format captures everything needed
to regenerate a *query*; responses are summarized the same way but
round-trip only their header/question (replay never needs full response
bodies from text).
"""

from __future__ import annotations

import io
from typing import TextIO, Union

from ..dns import Edns, Flag, Message, Name, Question, RRClass, RRType
from .record import QueryRecord, Trace

_FLAG_NAMES = [
    ("qr", Flag.QR), ("aa", Flag.AA), ("tc", Flag.TC), ("rd", Flag.RD),
    ("ra", Flag.RA), ("ad", Flag.AD), ("cd", Flag.CD),
]

COLUMNS = ("time src sport dst dport proto msgid qname qclass qtype "
           "flags edns_payload do")


class TextFormatError(ValueError):
    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def record_to_line(record: QueryRecord) -> str:
    message = record.message()
    question = message.question[0] if message.question else None
    qname = question.name.to_text() if question else "-"
    qclass = question.rrclass.name if question else "-"
    qtype = question.rrtype.name if question else "-"
    flags = ",".join(name for name, bit in _FLAG_NAMES
                     if message.flags & bit) or "-"
    edns_payload = message.edns.payload_size if message.edns else 0
    do = 1 if message.dnssec_ok else 0
    return (f"{record.timestamp:.6f} {record.src} {record.sport} "
            f"{record.dst} {record.dport} {record.protocol} "
            f"{message.msg_id} {qname} {qclass} {qtype} {flags} "
            f"{edns_payload} {do}")


def line_to_record(line: str, line_number: int = 0) -> QueryRecord:
    fields = line.split()
    if len(fields) != 13:
        raise TextFormatError(
            f"expected 13 columns, got {len(fields)}", line_number)
    (time_s, src, sport, dst, dport, proto, msgid, qname, qclass, qtype,
     flags_s, edns_payload, do) = fields
    flags = Flag(0)
    if flags_s != "-":
        lookup = dict(_FLAG_NAMES)
        for token in flags_s.split(","):
            if token not in lookup:
                raise TextFormatError(f"unknown flag {token!r}", line_number)
            flags |= lookup[token]
    message = Message(msg_id=int(msgid), flags=flags)
    if qname != "-":
        message.question.append(
            Question(Name.from_text(qname), RRType.from_text(qtype),
                     RRClass.from_text(qclass)))
    payload = int(edns_payload)
    if payload > 0 or do == "1":
        message.edns = Edns(payload_size=payload or 4096,
                            dnssec_ok=do == "1")
    return QueryRecord(float(time_s), src, int(sport), dst, int(dport),
                       proto, message.to_wire())


def write_text(trace: Trace, stream: TextIO) -> int:
    """Write a trace; returns the number of lines written."""
    stream.write(f"# ldplayer text trace: {trace.name}\n")
    stream.write(f"# columns: {COLUMNS}\n")
    count = 0
    for record in trace:
        stream.write(record_to_line(record) + "\n")
        count += 1
    return count


def read_text(source: Union[str, TextIO], name: str = "text-trace") -> Trace:
    stream = io.StringIO(source) if isinstance(source, str) else source
    trace = Trace(name=name)
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        trace.append(line_to_record(line, line_number))
    return trace
