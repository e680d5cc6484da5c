"""A simulated "real Internet" DNS deployment.

Every nameserver address gets its own host running a real authoritative
engine — the naive one-server-per-zone topology the paper argues does
not scale (§2.4), but which is exactly right for two jobs here:

* it is the ground truth the meta-DNS-server emulation must match
  (a response from the emulation must equal the response the real
  distributed hierarchy would give), and
* it stands in for the real Internet during zone construction's
  one-time fetch (§2.3), since this reproduction has no network access
  (substitution documented in DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..dns import Name, Zone
from ..netsim import Network
from ..server import AuthoritativeServer, HostedDnsServer, TransportConfig
from .zoneutil import address_to_zones, root_hints_for


class SimulatedInternet:
    """One authoritative host per nameserver address, real engines."""

    def __init__(self, network: Network, zones: Iterable[Zone],
                 transport: Optional[TransportConfig] = None):
        self.network = network
        self.zones: List[Zone] = list(zones)
        self.servers: Dict[str, HostedDnsServer] = {}
        self._deploy(transport)

    def _deploy(self, transport: Optional[TransportConfig]) -> None:
        for address, zones in address_to_zones(self.zones).items():
            host = self.network.add_host(f"auth-{address}", address)
            engine = AuthoritativeServer.single_view(zones)
            self.servers[address] = HostedDnsServer(
                host, engine,
                config=transport if transport is not None
                else TransportConfig())

    def root_hints(self) -> Dict[Name, List[str]]:
        return root_hints_for(self.zones)

    def server_count(self) -> int:
        return len(self.servers)

    def total_queries(self) -> int:
        return sum(s.engine.stats.queries for s in self.servers.values())
