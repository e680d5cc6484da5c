"""Synthetic DNSSEC: size-faithful DNSKEY/RRSIG/NSEC generation.

The paper's Fig 10 experiment varies the root ZSK size (1024 vs 2048 bit,
plus a rollover state with both keys published) and the fraction of
queries setting the DO bit, then measures response *bandwidth*.  Real RSA
is unnecessary for that — only the wire sizes matter — so this module
produces structurally correct DNSSEC records whose key and signature
fields are deterministic pseudo-random bytes of exactly the size real
RSASHA256 would produce.  ``verify_rrsig`` recomputes the deterministic
signature, giving tests a checkable integrity invariant.

Substitution documented in DESIGN.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import rdata as rd
from .constants import RRType
from .name import Name
from .rrset import RR, RRset
from .wire import WireWriter
from .zone import Zone

ALGORITHM_RSASHA256 = 8
KSK_BITS = 2048     # key-signing key size of every signed zone

# Signature inception/expiration: fixed values keep zones reproducible
# across runs (requirement "repeatability of experiments", §2.1).
SIG_INCEPTION = 1460000000
SIG_EXPIRATION = 1470000000


def _stream(seed: bytes, length: int) -> bytes:
    """Deterministic byte stream of ``length`` bytes derived from seed."""
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:length])


@dataclass(frozen=True)
class Key:
    """One zone-signing or key-signing key of a given RSA modulus size."""

    zone: Name
    bits: int
    flags: int = rd.DNSKEY.ZSK_FLAGS
    algorithm: int = ALGORITHM_RSASHA256
    salt: bytes = b""  # distinguishes multiple keys of the same size

    def dnskey(self) -> rd.DNSKEY:
        # RSA public key RDATA: 1-byte exponent length, 3-byte exponent
        # (65537), then the modulus (bits/8 bytes).
        seed = b"key|" + self.zone.to_text().encode() + b"|%d|%d|" % (
            self.bits, self.flags) + self.salt
        modulus = _stream(seed, self.bits // 8)
        key_material = bytes([3]) + b"\x01\x00\x01" + modulus
        return rd.DNSKEY(self.flags, 3, self.algorithm, key_material)

    def key_tag(self) -> int:
        return self.dnskey().key_tag()

    @property
    def signature_size(self) -> int:
        """An RSA signature is exactly the modulus size."""
        return self.bits // 8

    def is_ksk(self) -> bool:
        return self.flags == rd.DNSKEY.KSK_FLAGS


@dataclass
class SigningConfig:
    """Which keys sign a zone; models normal operation and ZSK rollover.

    In the pre-publish rollover state (Fig 10's "rollover" bars) the
    DNSKEY RRset carries both the outgoing and incoming ZSK, inflating
    DNSKEY responses, while RRsets are signed by the active ZSK only.
    """

    zsk_bits: int = 2048
    rollover_extra_zsk_bits: Optional[int] = None

    def keys_for(self, zone: Name) -> Tuple[Key, List[Key]]:
        """Return (active ZSK, all published keys)."""
        zsk = Key(zone, self.zsk_bits)
        published = [zsk, Key(zone, KSK_BITS, rd.DNSKEY.KSK_FLAGS)]
        if self.rollover_extra_zsk_bits is not None:
            published.append(
                Key(zone, self.rollover_extra_zsk_bits, salt=b"incoming"))
        return zsk, published


def canonical_rrset_wire(rrset: RRset) -> bytes:
    """Canonical form of an RRset for signing (RFC 4034 §3.1.8.1)."""
    writer = WireWriter(compress=False)
    writer.write_name(rrset.name, compressible=False)
    writer.write_u16(int(rrset.rrtype))
    writer.write_u16(int(rrset.rrclass))
    writer.write_u32(rrset.ttl)
    for wire in sorted(r.wire_bytes() for r in rrset.rdatas):
        writer.write_bytes(wire)
    return writer.getvalue()


def make_rrsig(rrset: RRset, key: Key) -> rd.RRSIG:
    """Deterministic pseudo-signature of the right wire size."""
    seed = (b"sig|" + key.zone.to_text().encode()
            + b"|%d|" % key.key_tag() + canonical_rrset_wire(rrset))
    signature = _stream(seed, key.signature_size)
    return rd.RRSIG(
        type_covered=rrset.rrtype,
        algorithm=key.algorithm,
        labels=len(rrset.name) - (1 if rrset.name.is_wild() else 0),
        original_ttl=rrset.ttl,
        expiration=SIG_EXPIRATION,
        inception=SIG_INCEPTION,
        key_tag=key.key_tag(),
        signer=key.zone,
        signature=signature,
    )


def verify_rrsig(rrset: RRset, rrsig: rd.RRSIG, key: Key) -> bool:
    """Recompute the deterministic signature and compare."""
    if rrsig.key_tag != key.key_tag() or rrsig.signer != key.zone:
        return False
    return make_rrsig(rrset, key).signature == rrsig.signature


def nsec_chain(zone: Zone) -> List[RR]:
    """Build the NSEC chain over a zone's existing names."""
    names = sorted(zone.names())
    if not names:
        return []
    ttl = zone.soa.ttl if zone.soa is not None else 3600
    chain = []
    for index, name in enumerate(names):
        next_name = names[(index + 1) % len(names)]
        types = tuple(zone.node_types(name)) + (RRType.RRSIG, RRType.NSEC)
        chain.append(RR(name, ttl, zone.rrclass,
                        rd.NSEC(next_name, tuple(sorted(set(types), key=int)))))
    return chain


def sign_zone(zone: Zone, config: Optional[SigningConfig] = None) -> Zone:
    """Return a signed copy of ``zone``.

    Adds the DNSKEY RRset at the apex, an NSEC chain, and an
    RRSIG per RRset.  RRSIGs over delegation NS RRsets are *not* created,
    matching real authoritative behaviour (the child signs its own apex).
    """
    if config is None:
        config = SigningConfig()
    zsk, published = config.keys_for(zone.origin)

    signed = Zone(zone.origin, zone.rrclass)
    for rr in zone.iter_rrs():
        signed.add_rr(rr)

    apex_ttl = zone.soa.ttl if zone.soa is not None else 3600
    for key in published:
        signed.add_rr(RR(zone.origin, apex_ttl, zone.rrclass, key.dnskey()))

    for rr in nsec_chain(signed):
        signed.add_rr(rr)

    ksk = next(k for k in published if k.is_ksk())
    for rrset in list(signed.iter_rrsets()):
        if rrset.rrtype == RRType.RRSIG:
            continue
        if (rrset.rrtype == RRType.NS and rrset.name != zone.origin):
            continue  # delegation NS sets are unsigned
        signer = ksk if rrset.rrtype == RRType.DNSKEY else zsk
        signed.add_rr(RR(rrset.name, rrset.ttl, rrset.rrclass,
                         make_rrsig(rrset, signer)))
    return signed
