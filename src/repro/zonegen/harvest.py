"""Reconstruct zones from captured query/response traffic (§2.3).

Input: responses captured at the recursive server's upstream interface,
each tagged with the address it came from.  The pipeline follows the
paper:

1. scan every response for NS records (who serves which domain) and
   A/AAAA records (where those nameservers live);
2. group nameservers by the domain they serve, and map each source
   address to the domains its nameserver group is responsible for;
3. aggregate each response's records into the *intermediate zone data*
   of its source's group ("the intermediate zone file we generate may
   contain data of different domains");
4. split the intermediate data by zone cut into per-domain zone files,
   keeping delegation NS + glue on the parent side and apex data on the
   child side;
5. recover missing records (fake-but-valid SOA, apex NS) and resolve
   inconsistent replies by keeping the first answer seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..dns import Message, Name, RRClass, RRType, Zone, make_soa
from ..dns.rrset import RR


@dataclass
class CapturedResponse:
    """One upstream response: who sent it and the full message."""

    source: str
    message: Message


@dataclass
class HarvestReport:
    """What the constructor did — surfaced for tests and EXPERIMENTS.md."""

    responses: int = 0
    records_seen: int = 0
    conflicts_dropped: int = 0
    soa_recovered: List[str] = field(default_factory=list)
    apex_ns_recovered: List[str] = field(default_factory=list)
    unattributed_responses: int = 0
    zones_built: int = 0


class ZoneConstructor:
    """Accumulates captured responses, then builds zone files."""

    def __init__(self) -> None:
        self._responses: List[CapturedResponse] = []
        self.report = HarvestReport()

    def add_response(self, source: str, message: Message) -> None:
        if not message.is_response:
            return
        self._responses.append(CapturedResponse(source, message))
        self.report.responses += 1

    def merge(self, other: "ZoneConstructor") -> None:
        """Merge intermediate data of multiple traces (§2.3, optional)."""
        self._responses.extend(other._responses)
        self.report.responses += other.report.responses

    # -- pass 1+2: discover the nameserver topology ------------------------

    def _scan_topology(self) -> Tuple[Dict[Name, Set[Name]],
                                      Dict[Name, Set[str]]]:
        """Returns (domain -> NS host names, NS host name -> addresses)."""
        domain_ns: Dict[Name, Set[Name]] = {}
        host_addresses: Dict[Name, Set[str]] = {}
        for captured in self._responses:
            for rr in _all_records(captured.message):
                if rr.rrtype == RRType.NS:
                    domain_ns.setdefault(rr.name, set()).add(
                        rr.rdata.target)  # type: ignore[attr-defined]
                elif rr.rrtype in (RRType.A, RRType.AAAA):
                    host_addresses.setdefault(rr.name, set()).add(
                        rr.rdata.address)  # type: ignore[attr-defined]
        return domain_ns, host_addresses

    @staticmethod
    def _address_domains(domain_ns: Dict[Name, Set[Name]],
                         host_addresses: Dict[Name, Set[str]]
                         ) -> Dict[str, Set[Name]]:
        """Map each nameserver address to the domains it serves."""
        result: Dict[str, Set[Name]] = {}
        for domain, hosts in domain_ns.items():
            for host in hosts:
                for address in host_addresses.get(host, ()):
                    result.setdefault(address, set()).add(domain)
        return result

    # -- passes 3-5: build the zones ---------------------------------------

    def build(self, root_addresses: Iterable[str] = ()) -> "ZoneLibrary":
        """Construct per-domain zones from everything captured.

        ``root_addresses`` identifies responses from root servers, whose
        addresses come from hints rather than from NS data in the trace.
        """
        domain_ns, host_addresses = self._scan_topology()
        address_domains = self._address_domains(domain_ns, host_addresses)
        for address in root_addresses:
            address_domains.setdefault(address, set()).add(Name(()))
        cuts = set(domain_ns) | {Name(())}

        # First-answer-wins at RRset granularity (§2.3 "we choose the
        # first answer when there are multiple differing responses"):
        # records within ONE response legitimately form multi-record
        # sets; a later response with a *different* set for the same
        # (zone, owner, type) is dropped.  NS sets are the exception —
        # parent delegation and child apex copies legitimately merge.
        chosen: Dict[Tuple[Name, Name, RRType], List[RR]] = {}
        seen_rdatas: Dict[Tuple[Name, Name, RRType], Set[bytes]] = {}

        for captured in self._responses:
            domains = address_domains.get(captured.source)
            if not domains:
                self.report.unattributed_responses += 1
                continue
            # Group this response's records into per-zone rrsets.
            groups: Dict[Tuple[Name, Name, RRType], List[RR]] = {}
            for rr in _all_records(captured.message):
                if rr.rrtype in (RRType.OPT,):
                    continue
                self.report.records_seen += 1
                zone_origin = _owning_zone(rr, domains, cuts)
                if zone_origin is None:
                    continue
                groups.setdefault((zone_origin, rr.name, rr.rrtype),
                                  []).append(rr)
            for key, rrs in groups.items():
                rdata_ids = {rr.rdata.wire_bytes() for rr in rrs}
                prior = seen_rdatas.get(key)
                if prior is None:
                    seen_rdatas[key] = set(rdata_ids)
                    chosen[key] = list(rrs)
                elif rdata_ids <= prior:
                    continue  # consistent repeat
                elif key[2] == RRType.NS:
                    fresh = rdata_ids - prior
                    seen_rdatas[key] |= fresh
                    chosen[key].extend(
                        rr for rr in rrs
                        if rr.rdata.wire_bytes() in fresh)
                else:
                    # A differing later answer: CDN churn or a mid-
                    # rebuild zone change.  Keep the first snapshot.
                    self.report.conflicts_dropped += 1

        return self._assemble(chosen, domain_ns, host_addresses, cuts)

    def _assemble(self, chosen, domain_ns, host_addresses,
                  cuts: Set[Name]) -> "ZoneLibrary":
        zones: Dict[Name, Zone] = {}
        for (zone_origin, _name, _rrtype), rrs in sorted(
                chosen.items(), key=lambda item: (str(item[0][0]),
                                                  str(item[0][1]),
                                                  int(item[0][2]))):
            zone = zones.setdefault(zone_origin, Zone(zone_origin))
            for rr in rrs:
                try:
                    zone.add_rr(rr)
                except ValueError:
                    self.report.conflicts_dropped += 1

        # Each delegation is also a zone apex: give every cut with NS
        # data its own zone, even if no authoritative answer was seen.
        for domain, hosts in domain_ns.items():
            zone = zones.setdefault(domain, Zone(domain))
            ns_rrset = zone.get(domain, RRType.NS)
            if ns_rrset is None:
                for host in sorted(hosts):
                    from ..dns import rdata as rd
                    zone.add_rr(RR(domain, 172800, RRClass.IN, rd.NS(host)))
                self.report.apex_ns_recovered.append(domain.to_text())
            # In-zone nameserver addresses must exist for resolution.
            for host in sorted(hosts):
                if host.is_subdomain_of(domain) \
                        and zone.get(host, RRType.A) is None:
                    from ..dns import rdata as rd
                    for address in sorted(host_addresses.get(host, ())):
                        zone.add_rr(RR(host, 172800, RRClass.IN,
                                       rd.A(address)))

        # Recover missing SOAs (§2.3 "Recover Missing Data").
        for origin, zone in zones.items():
            if zone.soa is None:
                zone.add_rr(make_soa(origin))
                self.report.soa_recovered.append(origin.to_text())

        self.report.zones_built = len(zones)
        nameservers = {
            domain: sorted(
                {address
                 for host in hosts
                 for address in host_addresses.get(host, ())})
            for domain, hosts in domain_ns.items()
        }
        return ZoneLibrary(zones, nameservers, self.report)


def _all_records(message: Message):
    yield from message.answer
    yield from message.authority
    yield from message.additional


def _owning_zone(rr: RR, source_domains: Set[Name],
                 cuts: Set[Name]) -> Optional[Name]:
    """Which of the source's domains should hold this record?

    Delegation NS records (owner is a cut inside a larger served domain)
    stay on the parent side; everything else goes to the deepest served
    domain enclosing the owner.
    """
    candidates = [d for d in source_domains if rr.name.is_subdomain_of(d)]
    if not candidates:
        return None
    deepest = max(candidates, key=len)
    if rr.rrtype == RRType.NS and rr.name != deepest and rr.name in cuts:
        return deepest  # a delegation recorded in the parent
    return deepest


class ZoneLibrary:
    """The constructor's output: zones plus who serves them."""

    def __init__(self, zones: Dict[Name, Zone],
                 nameservers: Dict[Name, List[str]],
                 report: HarvestReport):
        self.zones = zones
        self.nameservers = nameservers
        self.report = report

    def zone_list(self) -> List[Zone]:
        return [self.zones[origin] for origin in sorted(self.zones,
                                                        key=str)]

    def __len__(self) -> int:
        return len(self.zones)

    def __contains__(self, origin: Name) -> bool:
        return origin in self.zones
