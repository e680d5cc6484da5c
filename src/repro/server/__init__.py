"""DNS servers: authoritative engine, split-horizon views, recursion.

Implements the server side of LDplayer's replay architecture: the
meta-DNS-server logic (an authoritative engine with BIND-style views
selected by query source address, §2.4), an iterative recursive resolver
with a TTL cache, and the hosting layer that binds an engine to a
simulated host's UDP/TCP/TLS transports (or to a real UDP socket).
"""

from .axfr import AXFR, AxfrError, axfr_fetch, axfr_response_stream
from .authoritative import (AuthoritativeServer, ConfigError, ServerStats,
                            View, ZoneSet)
from .cache import CacheEntry, CacheOutcome, DnsCache
from .dnsio import FramingError, StreamFramer, frame_message
from .dynamic import CdnPolicy, DynamicOverlay
from .hosting import HostedDnsServer, TransportConfig
from .live import LiveDnsServer
from .overload import (AdmissionQueue, OverloadConfig, OverloadControl,
                       ResponseRateLimiter, RrlConfig, TokenBucket,
                       minimal_wire, subnet_of)
from .recursive import RecursiveResolver, ResolverStats
from .wirecache import ResponseWireCache, WireCacheEntry

__all__ = [
    "AXFR", "AdmissionQueue", "AuthoritativeServer", "AxfrError",
    "axfr_fetch", "axfr_response_stream", "CacheEntry", "CacheOutcome",
    "CdnPolicy", "ConfigError", "DnsCache", "DynamicOverlay",
    "FramingError", "HostedDnsServer", "LiveDnsServer", "OverloadConfig",
    "OverloadControl", "RecursiveResolver", "ResolverStats",
    "ResponseRateLimiter", "ResponseWireCache", "RrlConfig", "ServerStats",
    "StreamFramer", "TokenBucket", "TransportConfig", "View",
    "WireCacheEntry", "ZoneSet", "frame_message", "minimal_wire", "subnet_of",
]
