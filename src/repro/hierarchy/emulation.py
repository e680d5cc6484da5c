"""Meta-DNS-server hierarchy emulation (§2.4).

Deploys the paper's efficient topology: one authoritative server
instance with a single network interface hosts *all* zones of the
hierarchy behind split-horizon views, a recursive resolver believes it
is walking the real hierarchy, and the two proxies translate addresses
in between.  Compare with :class:`repro.hierarchy.internet.
SimulatedInternet`, which needs one host per nameserver address.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..dns import Name, Zone
from ..netsim import Network
from ..proxy import (AuthoritativeProxy, RecursiveProxy,
                     install_authoritative_proxy, install_recursive_proxy)
from ..server import (AuthoritativeServer, HostedDnsServer, RecursiveResolver,
                      TransportConfig, View, ZoneSet)
from .zoneutil import address_to_zones, root_hints_for

DEFAULT_META_ADDRESS = "172.16.1.2"
DEFAULT_RECURSIVE_ADDRESS = "172.16.1.1"


class HierarchyEmulation:
    """The full recursive-replay deployment of Figure 1 / Figure 2."""

    def __init__(self, network: Network, zones: Iterable[Zone],
                 meta_address: str = DEFAULT_META_ADDRESS,
                 recursive_address: str = DEFAULT_RECURSIVE_ADDRESS,
                 transport: Optional[TransportConfig] = None,
                 root_hints: Optional[Dict[Name, List[str]]] = None,
                 proxy_delay: float = 30e-6):
        self.network = network
        self.zones = list(zones)
        self.meta_address = meta_address
        self.recursive_address = recursive_address

        # The meta-DNS-server: one view per nameserver address, so the
        # proxied source address (the OQDA) selects the zone set that
        # public address would have served.
        self.meta_host = network.add_host("meta-dns", meta_address)
        views = [
            View(name=f"addr-{address}", zones=ZoneSet(zone_list),
                 match_clients=(address,))
            for address, zone_list in address_to_zones(self.zones).items()
        ]
        self.meta_engine = AuthoritativeServer(views)
        self.meta_server = HostedDnsServer(
            self.meta_host, self.meta_engine,
            config=transport if transport is not None else TransportConfig())

        # The recursive server, with real-world root hints: it addresses
        # queries to public IPs that exist nowhere in this network.
        self.recursive_host = network.add_host("recursive",
                                               recursive_address)
        hints = root_hints if root_hints is not None \
            else root_hints_for(self.zones)
        self.resolver = RecursiveResolver(self.recursive_host, hints)
        self.recursive_server = HostedDnsServer(self.recursive_host,
                                                self.resolver)

        # The proxy pair and their TUN/netfilter plumbing.
        self.recursive_proxy: RecursiveProxy = install_recursive_proxy(
            self.recursive_host, meta_address, processing_delay=proxy_delay)
        self.authoritative_proxy: AuthoritativeProxy = \
            install_authoritative_proxy(self.meta_host, recursive_address,
                                        processing_delay=proxy_delay)

    def view_count(self) -> int:
        return len(self.meta_engine.views)

    def zone_count(self) -> int:
        return len(self.zones)
