"""Sharded hierarchy emulation: multiple meta-DNS-server instances.

Implements the paper's stated extension (§2.2/§3): "We could run
multiple instances of the server to support large query rate and
massive zones, with routing configuration that redirects queries to the
correct servers" — the single-proxy prototype limitation the paper calls
future work.

Zones are partitioned across N meta hosts by their serving nameserver
address (so one emulated nameserver never straddles shards), the
recursive side runs a :class:`~repro.proxy.PartitioningRecursiveProxy`
whose forwarding table routes each query to the shard hosting its OQDA,
and each shard runs its own authoritative proxy pointing back at the
recursive server.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..dns import Zone
from ..netsim import Network
from ..proxy import (AuthoritativeProxy, PartitioningRecursiveProxy,
                     install_authoritative_proxy,
                     install_partitioning_proxy)
from ..server import (AuthoritativeServer, HostedDnsServer,
                      RecursiveResolver, TransportConfig, View, ZoneSet)
from .zoneutil import address_to_zones, root_hints_for

DEFAULT_RECURSIVE_ADDRESS = "172.17.0.1"
SHARD_ADDRESS_BASE = "172.17.1."


class ShardedHierarchyEmulation:
    """Figure 1's deployment with the meta-server split into shards."""

    def __init__(self, network: Network, zones: Iterable[Zone],
                 shards: int = 2,
                 recursive_address: str = DEFAULT_RECURSIVE_ADDRESS,
                 transport: Optional[TransportConfig] = None,
                 proxy_delay: float = 30e-6):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.network = network
        self.zones = list(zones)
        self.recursive_address = recursive_address
        self.shard_addresses: List[str] = [
            f"{SHARD_ADDRESS_BASE}{index + 2}" for index in range(shards)
        ]

        # Partition serving addresses across shards; all zones served by
        # one address stay together so a view never straddles shards.
        grouped = address_to_zones(self.zones)
        self.forwarding: Dict[str, str] = {}
        shard_views: List[List[View]] = [[] for _ in range(shards)]
        for index, (address, zone_list) in enumerate(
                sorted(grouped.items())):
            shard = index % shards
            self.forwarding[address] = self.shard_addresses[shard]
            shard_views[shard].append(
                View(name=f"addr-{address}", zones=ZoneSet(zone_list),
                     match_clients=(address,)))

        # Deploy one meta host + engine + authoritative proxy per shard.
        self.meta_hosts = []
        self.meta_engines: List[AuthoritativeServer] = []
        self.authoritative_proxies: List[AuthoritativeProxy] = []
        for index, address in enumerate(self.shard_addresses):
            host = network.add_host(f"meta-shard-{index + 1}", address)
            engine = AuthoritativeServer(shard_views[index])
            HostedDnsServer(host, engine,
                            config=transport if transport is not None
                            else TransportConfig())
            self.meta_hosts.append(host)
            self.meta_engines.append(engine)
            self.authoritative_proxies.append(
                install_authoritative_proxy(host, recursive_address,
                                            processing_delay=proxy_delay))

        # The recursive server plus the partitioning proxy.
        self.recursive_host = network.add_host("recursive-sharded",
                                               recursive_address)
        self.resolver = RecursiveResolver(self.recursive_host,
                                          root_hints_for(self.zones))
        self.recursive_server = HostedDnsServer(self.recursive_host,
                                                self.resolver)
        self.recursive_proxy: PartitioningRecursiveProxy = \
            install_partitioning_proxy(self.recursive_host,
                                       self.forwarding,
                                       processing_delay=proxy_delay)

    @property
    def shards(self) -> int:
        return len(self.shard_addresses)

    def queries_per_shard(self) -> List[int]:
        return [engine.stats.queries for engine in self.meta_engines]

    def flush_caches(self) -> None:
        self.resolver.cache.flush()
