"""Discrete-event network simulator substrate.

Stands in for the paper's DETER testbed: an event loop, hosts and
latency-configurable links, a TCP/TLS implementation with the behaviours
the experiments measure (handshakes, Nagle, delayed ACK, TIME_WAIT, idle
timeouts), TUN devices with netfilter-style diversion for the proxies,
and calibrated server resource models.
"""

from .core import EventLoop, SimulationError, Timer
from .faults import (FaultInjector, FaultPlan, FaultSpec, RetryPolicy)
from .network import (FilterRule, Host, LatencyModel, Netfilter, Network,
                      NetworkError, TrafficMeter, TunDevice, UdpSocket)
from .packet import (Address, IpPacket, TcpFlags, TcpSegment, UdpSegment,
                     WireView, make_tcp_packet, make_udp_packet,
                     packet_checksum)
from .shard import shard_of
from .resources import (CostModel, CpuMeter, ResourceMonitor, ResourceSample,
                        ServerResourceModel)
from .tcp import (TcpConnection, TcpListener, TcpOptions, TcpStack, TcpState,
                  DELAYED_ACK_TIMEOUT, MSS, TIME_WAIT_DURATION)
from .tls import SessionCache, TlsEndpoint, TlsState

__all__ = [
    "Address", "CostModel", "CpuMeter",
    "DELAYED_ACK_TIMEOUT", "EventLoop",
    "FaultInjector", "FaultPlan", "FaultSpec", "FilterRule", "Host",
    "IpPacket", "LatencyModel", "MSS", "Netfilter",
    "Network", "NetworkError", "ResourceMonitor", "ResourceSample",
    "RetryPolicy", "ServerResourceModel", "SessionCache", "SimulationError",
    "TcpConnection",
    "TcpFlags", "TcpListener", "TcpOptions", "TcpSegment", "TcpStack",
    "TcpState", "TIME_WAIT_DURATION", "Timer", "TlsEndpoint", "TlsState",
    "TrafficMeter", "TunDevice", "UdpSegment", "UdpSocket", "WireView",
    "make_tcp_packet", "make_udp_packet", "packet_checksum", "shard_of",
]
