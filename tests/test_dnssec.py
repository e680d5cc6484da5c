"""Tests for synthetic DNSSEC: sizes, determinism, signing, NSEC."""

import pytest

from repro.dns import Name, RRType, read_zone
from repro.dns import dnssec
from repro.dns.dnssec import Key, SigningConfig, make_rrsig, \
    nsec_chain, sign_zone, verify_rrsig

ZONE = """
$ORIGIN example.
@ 3600 IN SOA ns1 admin 1 7200 900 1209600 86400
@ 3600 IN NS ns1
ns1 3600 IN A 192.0.2.1
www 300 IN A 192.0.2.80
sub 3600 IN NS ns1.sub
ns1.sub 3600 IN A 192.0.2.53
"""


@pytest.fixture
def zone():
    return read_zone(ZONE)


class TestKeys:
    def test_signature_size_tracks_modulus(self):
        assert Key(Name.from_text("."), 1024).signature_size == 128
        assert Key(Name.from_text("."), 2048).signature_size == 256

    def test_dnskey_material_size(self):
        key = Key(Name.from_text("."), 2048)
        # 1-byte exponent length + 3-byte exponent + modulus
        assert len(key.dnskey().key) == 4 + 256

    def test_deterministic(self):
        a = Key(Name.from_text("example."), 1024)
        b = Key(Name.from_text("example."), 1024)
        assert a.dnskey() == b.dnskey()

    def test_salt_differentiates(self):
        a = Key(Name.from_text("example."), 1024)
        b = Key(Name.from_text("example."), 1024, salt=b"incoming")
        assert a.dnskey() != b.dnskey()

    def test_ksk_flag(self):
        ksk = Key(Name.from_text("."), 2048, flags=257)
        assert ksk.is_ksk()
        assert ksk.dnskey().flags == 257


class TestSigning:
    def test_rrsig_sizes(self, zone):
        rrset = zone.get(Name.from_text("www.example."), RRType.A)
        for bits in (1024, 2048, 4096):
            sig = make_rrsig(rrset, Key(zone.origin, bits))
            assert len(sig.signature) == bits // 8

    def test_verify_accepts_valid(self, zone):
        key = Key(zone.origin, 1024)
        rrset = zone.get(Name.from_text("www.example."), RRType.A)
        assert verify_rrsig(rrset, make_rrsig(rrset, key), key)

    def test_verify_rejects_wrong_key(self, zone):
        key = Key(zone.origin, 1024)
        other = Key(zone.origin, 2048)
        rrset = zone.get(Name.from_text("www.example."), RRType.A)
        assert not verify_rrsig(rrset, make_rrsig(rrset, key), other)

    def test_verify_rejects_tampered_rrset(self, zone):
        key = Key(zone.origin, 1024)
        rrset = zone.get(Name.from_text("www.example."), RRType.A)
        sig = make_rrsig(rrset, key)
        tampered = zone.get(Name.from_text("ns1.example."), RRType.A)
        assert not verify_rrsig(tampered, sig, key)


class TestSignZone:
    def test_every_rrset_signed_except_delegations(self, zone):
        signed = sign_zone(zone, SigningConfig(zsk_bits=1024))
        for rrset in signed.iter_rrsets():
            if rrset.rrtype in (RRType.RRSIG,):
                continue
            if rrset.rrtype == RRType.NS and rrset.name != signed.origin:
                # Delegation NS must stay unsigned.
                sigs = signed.get(rrset.name, RRType.RRSIG)
                covered = [s.type_covered for s in sigs] if sigs else []
                assert RRType.NS not in covered
                continue
            sigs = signed.get(rrset.name, RRType.RRSIG)
            assert sigs is not None
            assert rrset.rrtype in [s.type_covered for s in sigs]

    def test_dnskey_signed_by_ksk(self, zone):
        config = SigningConfig(zsk_bits=1024)
        signed = sign_zone(zone, config)
        ksk = Key(zone.origin, 2048, flags=257)
        sigs = signed.get(zone.origin, RRType.RRSIG)
        dnskey_sigs = [s for s in sigs if s.type_covered == RRType.DNSKEY]
        assert dnskey_sigs[0].key_tag == ksk.key_tag()

    def test_rollover_publishes_extra_zsk(self, zone):
        normal = sign_zone(zone, SigningConfig(zsk_bits=2048))
        rollover = sign_zone(zone, SigningConfig(
            zsk_bits=2048, rollover_extra_zsk_bits=1024))
        assert len(rollover.get(zone.origin, RRType.DNSKEY)) == \
            len(normal.get(zone.origin, RRType.DNSKEY)) + 1

    def test_original_zone_unmodified(self, zone):
        before = zone.record_count()
        sign_zone(zone)
        assert zone.record_count() == before

    def test_signing_deterministic(self, zone):
        a = sign_zone(zone, SigningConfig(zsk_bits=1024))
        b = sign_zone(zone, SigningConfig(zsk_bits=1024))
        assert [rr.to_text() for rr in a.iter_rrs()] == \
            [rr.to_text() for rr in b.iter_rrs()]


class TestNsec:
    def test_chain_is_cyclic(self, zone):
        chain = nsec_chain(zone)
        owners = {rr.name for rr in chain}
        next_names = {rr.rdata.next_name for rr in chain}
        assert owners == next_names  # a cycle covers every name once

    def test_chain_covers_all_names(self, zone):
        chain = nsec_chain(zone)
        assert {rr.name for rr in chain} == set(zone.names())

    def test_bitmap_includes_node_types(self, zone):
        chain = nsec_chain(zone)
        apex = [rr for rr in chain if rr.name == zone.origin][0]
        assert RRType.SOA in apex.rdata.types
        assert RRType.NSEC in apex.rdata.types
