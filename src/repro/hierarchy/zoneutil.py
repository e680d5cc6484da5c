"""Helpers for reasoning about a set of zones as a hierarchy."""

from __future__ import annotations

from typing import Dict, Iterable, List

from ..dns import Name, RRType, Zone


def apex_nameservers(zone: Zone) -> List[Name]:
    """The zone's apex NS target names."""
    ns = zone.get(zone.origin, RRType.NS)
    if ns is None:
        return []
    return [rdata.target for rdata in ns.rdatas]


def nameserver_addresses(zones: Iterable[Zone]) -> Dict[Name, List[str]]:
    """Map each zone origin to its nameservers' IPv4 addresses.

    Addresses come from any zone in the set (in-zone data or parent
    glue), which is how a resolver would learn them.
    """
    zones = list(zones)
    host_addresses: Dict[Name, List[str]] = {}
    for zone in zones:
        for rrset in zone.iter_rrsets():
            if rrset.rrtype == RRType.A:
                bucket = host_addresses.setdefault(rrset.name, [])
                for rdata in rrset.rdatas:
                    if rdata.address not in bucket:
                        bucket.append(rdata.address)
    result: Dict[Name, List[str]] = {}
    for zone in zones:
        addresses: List[str] = []
        for target in apex_nameservers(zone):
            for address in host_addresses.get(target, []):
                if address not in addresses:
                    addresses.append(address)
        result[zone.origin] = addresses
    return result


def root_hints_for(zones: Iterable[Zone]) -> Dict[Name, List[str]]:
    """Root hints (NS host name -> addresses) from the root zone."""
    zones = list(zones)
    root = next((z for z in zones if z.origin.is_root()), None)
    if root is None:
        raise ValueError("no root zone in the set")
    hints: Dict[Name, List[str]] = {}
    for target in apex_nameservers(root):
        addresses = []
        for zone in zones:
            rrset = zone.get(target, RRType.A)
            if rrset is not None:
                addresses.extend(r.address for r in rrset.rdatas)
        if addresses:
            hints[target] = addresses
    if not hints:
        raise ValueError("root zone has no resolvable nameservers")
    return hints


def address_to_zones(zones: Iterable[Zone]) -> Dict[str, List[Zone]]:
    """Group zones by the nameserver addresses that serve them.

    One public address may serve many zones (shared nameservers); the
    meta-server builds one split-horizon view per address from this map.
    """
    zones = list(zones)
    origin_addresses = nameserver_addresses(zones)
    grouped: Dict[str, List[Zone]] = {}
    for zone in zones:
        for address in origin_addresses[zone.origin]:
            grouped.setdefault(address, []).append(zone)
    return grouped
