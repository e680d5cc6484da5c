"""The evaluation topologies (Figure 5 and Figure 12).

Figure 5: controller (T), client instances (C1..Cn) behind an IXP LAN,
and the server (S); 1 Gb/s links, <1 ms latency.  Figure 12 adds a
second IXP so control and experiment traffic are separated, and lets the
client↔server RTT be varied (0-160 ms for the §5.2 latency study).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import EventLoop
from .network import LatencyModel, Network

LAN_RTT = 0.0008  # <1 ms testbed LAN
SERVER_ADDRESS = "10.0.0.2"
CONTROLLER_ADDRESS = "10.0.0.100"


@dataclass
class Testbed:
    """A constructed topology, ready for servers and replay clients."""

    loop: EventLoop
    network: Network
    server_address: str = SERVER_ADDRESS

    @property
    def server_host(self):
        return self.network.host("server")


def build_evaluation_topology(client_rtt: float = LAN_RTT,
                              seed: int = 0,
                              jitter_fraction: float = 0.0) -> Testbed:
    """Figure 5 (and 12 when ``client_rtt`` > LAN): S, T, C1..Cn fabric.

    Client hosts are added later by the replay engine; the latency model
    gives every client↔server pair ``client_rtt`` via the default RTT,
    while named pairs can still be overridden.
    """
    loop = EventLoop()
    latency = LatencyModel(default_rtt=max(client_rtt, LAN_RTT),
                           jitter_fraction=jitter_fraction, seed=seed)
    network = Network(loop, latency)
    network.add_host("server", SERVER_ADDRESS)
    network.add_host("controller", CONTROLLER_ADDRESS)
    return Testbed(loop=loop, network=network)
