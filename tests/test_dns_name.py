"""Tests for repro.dns.name: parsing, ordering, wire format, compression."""

import pytest
from hypothesis import given, strategies as st

from repro.dns.name import (CompressionContext, MAX_LABEL_LENGTH, Name,
                            NameError_, ROOT, parse_wire_name)

LABEL = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
                min_size=1, max_size=15)
NAMES = st.lists(LABEL, min_size=0, max_size=6).map(
    lambda labels: Name([l.encode() for l in labels]))


class TestParsing:
    def test_root_forms(self):
        assert Name.from_text(".") == ROOT
        assert Name.from_text("") == ROOT
        assert ROOT.is_root()

    def test_simple(self):
        name = Name.from_text("www.example.com.")
        assert name.labels == (b"www", b"example", b"com")

    def test_relative_treated_absolute(self):
        assert Name.from_text("example.com") == Name.from_text("example.com.")

    def test_case_preserved_in_text(self):
        assert Name.from_text("WwW.Example.COM.").to_text() == \
            "WwW.Example.COM."

    def test_decimal_escape(self):
        name = Name.from_text("a\\032b.example.")
        assert name.labels[0] == b"a b"

    def test_character_escape(self):
        name = Name.from_text("a\\.b.example.")
        assert name.labels == (b"a.b", b"example")

    def test_escape_roundtrip(self):
        original = Name((b"a.b", b"ex\x01mple"))
        assert Name.from_text(original.to_text()) == original

    def test_label_too_long(self):
        with pytest.raises(NameError_):
            Name((b"x" * (MAX_LABEL_LENGTH + 1),))

    def test_name_too_long(self):
        with pytest.raises(NameError_):
            Name(tuple(b"abcdefgh" for _ in range(32)))

    def test_empty_interior_label_rejected(self):
        with pytest.raises(NameError_):
            Name((b"a", b"", b"b"))


class TestComparison:
    def test_case_insensitive_equality(self):
        assert Name.from_text("EXAMPLE.com.") == Name.from_text("example.COM.")

    def test_hash_consistency(self):
        a, b = Name.from_text("A.B."), Name.from_text("a.b.")
        assert hash(a) == hash(b)

    def test_canonical_order_by_reversed_labels(self):
        # RFC 4034 §6.1 example ordering
        order = [Name.from_text(t) for t in
                 (".", "example.", "a.example.", "yljkjljk.a.example.",
                  "z.a.example.", "zabc.a.example.", "z.example.")]
        assert sorted(order) == order

    def test_subdomain(self):
        child = Name.from_text("a.b.example.com.")
        assert child.is_subdomain_of(Name.from_text("example.com."))
        assert child.is_subdomain_of(ROOT)
        assert not Name.from_text("example.org.").is_subdomain_of(
            Name.from_text("example.com."))

    def test_subdomain_not_substring(self):
        # "xexample.com" must not match "example.com"
        assert not Name.from_text("xexample.com.").is_subdomain_of(
            Name.from_text("example.com."))


class TestStructure:
    def test_parent(self):
        assert Name.from_text("a.b.c.").parent() == Name.from_text("b.c.")
        with pytest.raises(NameError_):
            ROOT.parent()

    def test_ancestors_order(self):
        ancestors = list(Name.from_text("a.b.c.").ancestors())
        assert ancestors[0] == Name.from_text("a.b.c.")
        assert ancestors[-1] == ROOT
        assert len(ancestors) == 4

    def test_wildcard(self):
        wild = Name.from_text("*.example.com.")
        assert wild.is_wild()

    def test_split_and_derelativize(self):
        name = Name.from_text("www.example.com.")
        prefix, suffix = name.split(1)
        assert prefix.labels == (b"www",)
        assert prefix.derelativize(suffix) == name


class TestWire:
    def test_uncompressed_roundtrip(self):
        name = Name.from_text("www.example.com.")
        wire = name.to_wire()
        decoded, end = parse_wire_name(wire, 0)
        assert decoded == name
        assert end == len(wire)

    def test_root_wire(self):
        assert ROOT.to_wire() == b"\x00"

    def test_compression_pointer_emitted(self):
        context = CompressionContext()
        first = Name.from_text("www.example.com.").to_wire(context, offset=0)
        second = Name.from_text("ftp.example.com.").to_wire(
            context, offset=len(first))
        # second should be: 3:ftp + 2-byte pointer
        assert len(second) == 4 + 2
        assert second[4] & 0xC0 == 0xC0

    def test_compressed_decode(self):
        context = CompressionContext()
        buffer = bytearray()
        buffer += Name.from_text("example.com.").to_wire(context, 0)
        offset = len(buffer)
        buffer += Name.from_text("www.example.com.").to_wire(context, offset)
        decoded, _ = parse_wire_name(bytes(buffer), offset)
        assert decoded == Name.from_text("www.example.com.")

    def test_pointer_loop_rejected(self):
        # pointer to itself
        with pytest.raises(NameError_):
            parse_wire_name(b"\xc0\x00", 0)

    def test_truncated_rejected(self):
        with pytest.raises(NameError_):
            parse_wire_name(b"\x05abc", 0)

    def test_forward_pointer_rejected(self):
        with pytest.raises(NameError_):
            parse_wire_name(b"\xc0\x05\x00\x00\x00\x00", 0)


@given(NAMES)
def test_property_text_roundtrip(name):
    assert Name.from_text(name.to_text()) == name


@given(NAMES)
def test_property_wire_roundtrip(name):
    decoded, end = parse_wire_name(name.to_wire(), 0)
    assert decoded == name


@given(NAMES, NAMES)
def test_property_order_total(a, b):
    assert (a < b) or (b < a) or (a == b)


@given(NAMES, NAMES)
def test_property_subdomain_via_concat(a, b):
    try:
        joined = a.derelativize(b)
    except NameError_:
        return  # too long
    assert joined.is_subdomain_of(b)
