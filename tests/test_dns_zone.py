"""Tests for zone lookup semantics (RFC 1034 §4.3.2 behaviours)."""

import pytest

from repro.dns import (AnswerKind, Name, RRClass, RRType, Zone, ZoneError,
                       make_soa, read_zone)
from repro.dns import rdata as rd
from repro.dns.rrset import RR

ZONE_TEXT = """
$ORIGIN example.com.
$TTL 3600
@       IN SOA ns1 hostmaster 1 7200 900 1209600 86400
@       IN NS ns1
@       IN NS ns2
@       IN MX 10 mail
ns1     IN A 192.0.2.1
ns2     IN A 192.0.2.2
mail    IN A 192.0.2.25
www     IN A 192.0.2.80
www     IN A 192.0.2.81
alias   IN CNAME www
*.wild  IN TXT "wildcard data"
sub     IN NS ns1.sub
ns1.sub IN A 192.0.2.53
a.b.deep IN A 192.0.2.99
"""


@pytest.fixture
def zone():
    return read_zone(ZONE_TEXT)


def q(zone, name, rrtype):
    return zone.lookup(Name.from_text(name), rrtype)


class TestLookupKinds:
    def test_positive_answer(self, zone):
        result = q(zone, "www.example.com.", RRType.A)
        assert result.kind == AnswerKind.ANSWER
        assert len(result.rrsets[0]) == 2

    def test_apex_answer(self, zone):
        result = q(zone, "example.com.", RRType.MX)
        assert result.kind == AnswerKind.ANSWER

    def test_nodata(self, zone):
        result = q(zone, "www.example.com.", RRType.AAAA)
        assert result.kind == AnswerKind.NODATA

    def test_nxdomain(self, zone):
        assert q(zone, "missing.example.com.", RRType.A).kind == \
            AnswerKind.NXDOMAIN

    def test_out_of_zone(self, zone):
        assert q(zone, "example.org.", RRType.A).kind == \
            AnswerKind.OUT_OF_ZONE

    def test_cname(self, zone):
        result = q(zone, "alias.example.com.", RRType.A)
        assert result.kind == AnswerKind.CNAME

    def test_cname_direct_query(self, zone):
        result = q(zone, "alias.example.com.", RRType.CNAME)
        assert result.kind == AnswerKind.ANSWER

    def test_any_query(self, zone):
        result = q(zone, "example.com.", RRType.ANY)
        assert result.kind == AnswerKind.ANSWER
        assert len(result.rrsets) >= 3


class TestDelegation:
    def test_referral_below_cut(self, zone):
        result = q(zone, "host.sub.example.com.", RRType.A)
        assert result.kind == AnswerKind.REFERRAL
        assert result.node == Name.from_text("sub.example.com.")
        assert result.rrsets[0].rrtype == RRType.NS

    def test_referral_at_cut(self, zone):
        result = q(zone, "sub.example.com.", RRType.A)
        assert result.kind == AnswerKind.REFERRAL

    def test_ds_at_cut_answered_by_parent(self, zone):
        zone.add_rr(RR(Name.from_text("sub.example.com."), 3600, RRClass.IN,
                       rd.DS(1, 8, 2, b"\x00" * 32)))
        result = q(zone, "sub.example.com.", RRType.DS)
        assert result.kind == AnswerKind.ANSWER

    def test_glue_for(self, zone):
        result = q(zone, "x.sub.example.com.", RRType.A)
        glue = zone.glue_for(result.rrsets[0])
        assert any(g.name == Name.from_text("ns1.sub.example.com.")
                   for g in glue)

    def test_is_delegation(self, zone):
        assert zone.is_delegation(Name.from_text("sub.example.com."))
        assert not zone.is_delegation(zone.origin)


class TestWildcard:
    def test_wildcard_synthesis(self, zone):
        result = q(zone, "anything.wild.example.com.", RRType.TXT)
        assert result.kind == AnswerKind.ANSWER
        assert result.wildcard
        assert result.rrsets[0].name == \
            Name.from_text("anything.wild.example.com.")

    def test_wildcard_multilabel(self, zone):
        result = q(zone, "a.b.c.wild.example.com.", RRType.TXT)
        assert result.kind == AnswerKind.ANSWER and result.wildcard

    def test_wildcard_nodata_for_other_type(self, zone):
        result = q(zone, "x.wild.example.com.", RRType.A)
        assert result.kind == AnswerKind.NODATA

    def test_existing_name_blocks_wildcard(self, zone):
        # RFC 4592: an existing name is never wildcard-synthesized.
        zone.add_rr(RR(Name.from_text("real.wild.example.com."), 300,
                       RRClass.IN, rd.A("192.0.2.7")))
        result = q(zone, "real.wild.example.com.", RRType.TXT)
        assert result.kind == AnswerKind.NODATA
        assert not result.wildcard


class TestEmptyNonTerminal:
    def test_ent_is_nodata_not_nxdomain(self, zone):
        # b.deep exists only as an interior node of a.b.deep.
        result = q(zone, "b.deep.example.com.", RRType.A)
        assert result.kind == AnswerKind.NODATA


class TestValidation:
    def test_valid_zone_passes(self, zone):
        zone.validate()

    def test_missing_soa(self):
        z = Zone(Name.from_text("x."))
        z.add_rr(RR(Name.from_text("x."), 60, RRClass.IN,
                    rd.NS(Name.from_text("ns.x."))))
        with pytest.raises(ZoneError):
            z.validate()

    def test_cname_conflict(self, zone):
        zone.add_rr(RR(Name.from_text("alias.example.com."), 300,
                       RRClass.IN, rd.A("192.0.2.5")))
        with pytest.raises(ZoneError):
            zone.validate()

    def test_out_of_zone_record_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_rr(RR(Name.from_text("other.org."), 60, RRClass.IN,
                           rd.A("192.0.2.9")))


class TestCanonicalOrder:
    def test_covering_name(self, zone):
        covering = zone.covering_name(Name.from_text("zzz.example.com."))
        assert covering is not None
        assert covering <= Name.from_text("zzz.example.com.")

    def test_covering_existing_name_is_itself(self, zone):
        assert zone.covering_name(Name.from_text("www.example.com.")) == \
            Name.from_text("www.example.com.")

    def test_cache_invalidation_on_add(self, zone):
        zone.canonical_names()
        zone.add_rr(RR(Name.from_text("zz.example.com."), 60, RRClass.IN,
                       rd.A("192.0.2.50")))
        assert Name.from_text("zz.example.com.") in zone.canonical_names()


class TestAccessors:
    def test_record_count(self, zone):
        assert zone.record_count() == 14

    def test_iter_rrs_sorted_and_complete(self, zone):
        rrs = list(zone.iter_rrs())
        assert len(rrs) == zone.record_count()

    def test_remove(self, zone):
        zone.remove(Name.from_text("www.example.com."), RRType.A)
        assert q(zone, "www.example.com.", RRType.A).kind == \
            AnswerKind.NXDOMAIN

    def test_make_soa_is_valid(self):
        rr = make_soa(Name.from_text("test."))
        assert rr.rrtype == RRType.SOA
        assert rr.rdata.serial == 1


class TestNameIndex:
    """Lookups cost O(qname depth), not O(|zone|)."""

    def test_nxdomain_in_a_big_zone_compares_few_names(self, monkeypatch):
        zone = Zone(Name.from_text("example."))
        zone.add_rr(make_soa(zone.origin))
        for index in range(5000):
            zone.add_rr(RR(Name.from_text(f"host{index}.d{index % 50}.example."),
                           300, RRClass.IN, rd.A("192.0.2.1")))
        qname = Name.from_text("a.b.c.nope.example.")
        zone.lookup(qname, RRType.A)             # builds the index once
        calls = [0]
        for method in ("__eq__", "__hash__", "is_subdomain_of", "__lt__"):
            original = getattr(Name, method)

            def counted(self, *args, _original=original):
                calls[0] += 1
                return _original(self, *args)
            monkeypatch.setattr(Name, method, counted)
        for name in ("a.b.c.nope.example.", "x.y.d7.example."):
            calls[0] = 0
            result = zone.lookup(Name.from_text(name), RRType.A)
            assert result.kind == AnswerKind.NXDOMAIN
            assert calls[0] <= 4 * len(qname)
        assert zone.delegation_for(qname) is None

    def test_empty_non_terminal_follows_the_nodes_below_it(self):
        zone = read_zone(ZONE_TEXT)
        below = RR(Name.from_text("x.y.ent.example.com."), 300, RRClass.IN,
                   rd.A("192.0.2.9"))
        for name in ("ent.example.com.", "y.ent.example.com."):
            assert q(zone, name, RRType.A).kind == AnswerKind.NXDOMAIN
        zone.add_rr(below)
        for name in ("ent.example.com.", "y.ent.example.com."):
            assert q(zone, name, RRType.A).kind == AnswerKind.NODATA
        assert q(zone, "z.ent.example.com.", RRType.A).kind \
            == AnswerKind.NXDOMAIN
        zone.remove(below.name)
        for name in ("ent.example.com.", "y.ent.example.com."):
            assert q(zone, name, RRType.A).kind == AnswerKind.NXDOMAIN

    def test_index_is_not_built_at_load(self):
        zone = read_zone(ZONE_TEXT)
        assert zone._index == (set(), set(), False)
        assert zone.is_delegation(Name.from_text("sub.example.com."))
        existing, cuts, signed = zone.name_index()
        assert Name.from_text("b.deep.example.com.").key in existing   # ENT
        assert cuts == {Name.from_text("sub.example.com.").key}
        assert not signed

    def test_cut_or_encloser(self):
        zone = read_zone(ZONE_TEXT)

        def locate(name, ds=False):
            found = zone.cut_or_encloser(Name.from_text(name).key, ds)
            return found and (found[0], Name(found[1]).to_text())
        assert locate("x.y.sub.example.com.") == (AnswerKind.REFERRAL,
                                                  "sub.example.com.")
        assert locate("sub.example.com.") == (AnswerKind.REFERRAL,
                                              "sub.example.com.")
        assert locate("sub.example.com.", ds=True) is None
        assert locate("nope.example.com.") == (AnswerKind.NXDOMAIN,
                                               "example.com.")
        assert locate("x.deep.example.com.") == (AnswerKind.NXDOMAIN,
                                                 "deep.example.com.")
        assert locate("www.example.com.") is None         # exists
        assert locate("deep.example.com.") is None        # empty non-terminal
        assert locate("x.wild.example.com.") is None      # wildcard
