"""Regression tests for decoder escapes found by the fuzz seed corpus.

Each test is a minimized hostile input that previously either decoded
silently (reading bytes outside its declared rdata thanks to the
negative-read cursor rewind in ``WireReader.read_bytes``) or leaked a
non-``WireError`` exception.  The harness contract is simple: *any*
attacker-controlled byte string handed to ``Message.from_wire`` either
decodes or raises ``WireError`` — nothing else.
"""

import struct

import pytest

from repro.dns import Message, WireError
from repro.dns.edns import Edns
from repro.trace.binfmt import TraceFormatError, unpack_record_body


def header(qd=0, an=0, ns=0, ar=0, flags=0x8000, msg_id=0x1234):
    return struct.pack("!6H", msg_id, flags, qd, an, ns, ar)


def record(name, rrtype, rdata, rrclass=1, ttl=300, rdlength=None):
    if rdlength is None:
        rdlength = len(rdata)
    return name + struct.pack("!HHIH", rrtype, rrclass, ttl, rdlength) + rdata


ROOT = b"\x00"


def assert_rejected(wire):
    with pytest.raises(WireError):
        Message.from_wire(wire)


class TestLyingRdlength:
    """RDLENGTH fields smaller than the record's fixed fields.

    Before hardening, the fixed-field reads ran past the declared rdata
    into the next record, then the negative tail read *rewound* the
    cursor to exactly the declared end — defeating the consumed-length
    check and silently mis-parsing the rest of the message.
    """

    def test_ds_rdlength_zero(self):
        # DS needs key_tag+algorithm+digest_type = 4 fixed bytes.
        body = record(ROOT, 43, b"", rdlength=0)
        assert_rejected(header(an=2) + body + record(ROOT, 43, b"\x00" * 8))

    def test_ds_rdlength_two(self):
        body = record(ROOT, 43, b"\x00\x01", rdlength=2)
        assert_rejected(header(an=2) + body + record(ROOT, 43, b"\x00" * 8))

    def test_dnskey_rdlength_one(self):
        body = record(ROOT, 48, b"\x01", rdlength=1)
        assert_rejected(header(an=2) + body + record(ROOT, 48, b"\x00" * 8))

    def test_tlsa_rdlength_one(self):
        body = record(ROOT, 52, b"\x03", rdlength=1)
        assert_rejected(header(an=2) + body + record(ROOT, 52, b"\x00" * 8))

    def test_rrsig_rdlength_inside_fixed_fields(self):
        # 18 fixed bytes before the signer name; declare only 5.
        body = record(ROOT, 46, b"\x00" * 5, rdlength=5)
        filler = record(ROOT, 46, b"\x00" * 32)
        assert_rejected(header(an=2) + body + filler)

    def test_nsec_rdlength_inside_next_name(self):
        # One byte of rdata, but the next-domain name (a compression
        # pointer to offset 0) is two bytes: the bitmap read goes
        # negative.
        body = record(ROOT, 47, b"\xc0", rdlength=1)
        filler = record(ROOT, 47, b"\x00\x00\x01\x40")
        assert_rejected(header(an=2) + body + filler)


class TestOptRecordHardening:
    def test_trailing_bytes_in_opt_rdata(self):
        # 1-3 leftover bytes cannot form an option header; they used to
        # be silently discarded.
        opt = record(ROOT, 41, b"\x00\x0a\x00\x00" + b"\xff", rrclass=1232,
                     ttl=0)
        assert_rejected(header(ar=1) + opt)

    def test_opt_option_length_past_rdata(self):
        opt = record(ROOT, 41, b"\x00\x0a\x00\xff" + b"\x00" * 4,
                     rrclass=1232, ttl=0)
        assert_rejected(header(ar=1) + opt)

    def test_from_opt_fields_direct(self):
        with pytest.raises(WireError):
            Edns.from_opt_fields(1232, 0, b"\x00\x0a\x00\x00\xff")


class TestNegativeReadGuard:
    def test_read_bytes_negative_raises(self):
        from repro.dns.wire import WireReader

        reader = WireReader(b"\x00\x01\x02\x03", offset=4)
        with pytest.raises(WireError):
            reader.read_bytes(-4)
        # The cursor must not have rewound.
        assert reader.tell() == 4


class TestBinaryRecordHardening:
    def test_short_record_body_is_format_error(self):
        # Previously struct.error escaped through MessageSocket.receive.
        with pytest.raises(TraceFormatError):
            unpack_record_body(b"\x00" * 4)

    def test_empty_record_body_is_format_error(self):
        with pytest.raises(TraceFormatError):
            unpack_record_body(b"")
