"""EDNS(0) support (RFC 6891): the OPT pseudo-record and the DO bit."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .constants import DEFAULT_EDNS_PAYLOAD, EDNS_DO_BIT, RRType
from .name import ROOT
from .wire import WireError, WireReader, WireWriter


@dataclass
class EdnsOption:
    """A raw EDNS option (code, data)."""

    code: int
    data: bytes


@dataclass
class Edns:
    """EDNS parameters carried in a message's OPT record.

    The OPT record abuses the RR fields: CLASS carries the sender's UDP
    payload size and the TTL packs extended-rcode/version/flags.
    """

    payload_size: int = DEFAULT_EDNS_PAYLOAD
    dnssec_ok: bool = False
    version: int = 0
    extended_rcode: int = 0
    options: List[EdnsOption] = field(default_factory=list)

    def to_wire(self, writer: WireWriter) -> None:
        writer.write_name(ROOT, compressible=False)
        writer.write_u16(int(RRType.OPT))
        writer.write_u16(self.payload_size)
        ttl = (self.extended_rcode << 24) | (self.version << 16)
        if self.dnssec_ok:
            ttl |= EDNS_DO_BIT
        writer.write_u32(ttl)
        length_offset = writer.tell()
        writer.write_u16(0)
        start = writer.tell()
        for option in self.options:
            writer.write_u16(option.code)
            writer.write_u16(len(option.data))
            writer.write_bytes(option.data)
        writer.patch_u16(length_offset, writer.tell() - start)

    @classmethod
    def from_opt_fields(cls, rrclass: int, ttl: int,
                        rdata: bytes) -> "Edns":
        options = []
        reader = WireReader(rdata)
        while reader.remaining() >= 4:
            code = reader.read_u16()
            length = reader.read_u16()
            options.append(EdnsOption(code, reader.read_bytes(length)))
        if reader.remaining():
            # 1-3 leftover bytes are a malformed option header, not
            # padding; swallowing them would mask attacker truncation.
            raise WireError(
                f"{reader.remaining()} trailing bytes in OPT rdata")
        return cls(
            payload_size=rrclass,
            dnssec_ok=bool(ttl & EDNS_DO_BIT),
            version=(ttl >> 16) & 0xFF,
            extended_rcode=(ttl >> 24) & 0xFF,
            options=options,
        )

    def wire_size(self) -> int:
        writer = WireWriter(compress=False)
        self.to_wire(writer)
        return writer.tell()


def parse_opt_record(reader: WireReader) -> Tuple[Optional[Edns], bool]:
    """Try to parse an OPT record at the cursor.

    Returns ``(edns, True)`` when an OPT record was consumed, or
    ``(None, False)`` after rewinding when the record is not OPT.
    """
    start = reader.tell()
    reader.read_name()
    rrtype = reader.read_u16()
    if rrtype != int(RRType.OPT):
        reader.seek(start)
        return None, False
    rrclass = reader.read_u16()
    ttl = reader.read_u32()
    rdlength = reader.read_u16()
    rdata = reader.read_bytes(rdlength)
    return Edns.from_opt_fields(rrclass, ttl, rdata), True
