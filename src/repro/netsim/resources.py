"""Server resource accounting: memory, CPU, and connection monitoring.

The paper measures a real server with ``top``/``ps`` (memory), ``dstat``
(CPU) and ``netstat`` (connections).  This module is the simulated
analogue: a calibrated memory model over the TCP stack's connection
table, a CPU cost meter charged by the protocol layers, and a
:class:`ResourceMonitor` that samples both on a fixed period, producing
the time series plotted in Figures 11, 13, and 14.

Calibration targets (B-Root-17a workload, 20 s timeout, §5.2.2):
  * UDP-only server:   ≈ 2 GB total RSS (the paper's blue bottom line),
  * all-TCP:           ≈ 15 GB total with ≈ 60 k ESTABLISHED,
  * all-TLS:           ≈ 18 GB (TLS adds ≈ 30 % over TCP),
  * TIME_WAIT sockets: ≈ 2× the ESTABLISHED count, but near-free.

Each constant notes the real-world quantity it stands in for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .core import EventLoop

GIB = 1024 ** 3

# --- memory model constants -------------------------------------------------

# Kernel socket receive/send buffer allocations under sustained DNS load.
# Linux's effective per-socket allocation (skbuff overhead included) lands
# in the ~200 KB range, which is what makes 60 k connections cost ~13 GB.
TCP_RECV_BUFFER_BYTES = 147456
TCP_SEND_BUFFER_BYTES = 65536
TCP_SOCK_STRUCT_BYTES = 8192
# A TIME_WAIT socket keeps only a tiny timewait struct.
TIME_WAIT_STRUCT_BYTES = 512
# A half-open (SYN_RECEIVED) entry: request-sock struct, no buffers yet.
HALF_OPEN_STRUCT_BYTES = 2048
# User-space state the DNS server keeps per open connection (query
# buffers, event bookkeeping; NSD-like).
SERVER_PER_CONNECTION_BYTES = 16384
# OpenSSL-style per-session state (buffers, cipher context, cert refs).
TLS_SESSION_BYTES = 52428

# Baselines: OS + page cache etc., and the server process with zones
# loaded, serving UDP only.
OS_BASE_BYTES = 1 * GIB
SERVER_BASE_BYTES = 1 * GIB


@dataclass
class CostModel:
    """Per-operation CPU costs, in seconds of one core.

    Values are calibrated so a ~39 k q/s B-Root workload lands at the
    paper's utilizations on a 48-core server (§5.2.3): ~10 % for the
    original UDP-dominated trace, ~5 % for all-TCP (the NIC's TCP offload
    engine makes the per-segment cost small), and ~9-10 % for all-TLS.
    """

    udp_query: float = 135e-6       # unoptimized per-datagram path
    udp_shed: float = 25e-6         # received + parsed, shed at admission
    tcp_segment: float = 10e-6      # with TOE/TSO offload assists
    tcp_query: float = 55e-6        # request parse + answer over TCP
    tcp_handshake: float = 30e-6    # SYN handling, accept, socket setup
    tls_handshake_private_key: float = 0.9e-3  # RSA-2048 private op
    tls_handshake_public_key: float = 90e-6    # client-side verify
    tls_handshake_message: float = 10e-6
    tls_per_byte: float = 10e-9     # AES-GCM bulk crypto


class CpuMeter:
    """Accumulates busy core-seconds per category; reports utilization."""

    def __init__(self, loop: EventLoop, cores: int = 48,
                 cost_model: Optional[CostModel] = None):
        self.loop = loop
        self.cores = cores
        self.cost = cost_model if cost_model is not None else CostModel()
        self.busy_seconds: Dict[str, float] = {}
        self._window_start = loop.now
        self._window_busy = 0.0

    def charge(self, kind: str, units: float = 1.0) -> None:
        cost = getattr(self.cost, kind, None)
        if cost is None:
            raise ValueError(f"unknown CPU cost kind {kind!r}")
        seconds = cost * units
        self.busy_seconds[kind] = self.busy_seconds.get(kind, 0.0) + seconds
        self._window_busy += seconds

    def total_busy(self) -> float:
        return sum(self.busy_seconds.values())

    def utilization_since(self, start_time: float) -> float:
        """Mean utilization (fraction of all cores) since ``start_time``."""
        elapsed = self.loop.now - start_time
        if elapsed <= 0:
            return 0.0
        return self.total_busy() / (elapsed * self.cores)

    def sample_window(self) -> float:
        """Utilization over the window since the last call (dstat-style)."""
        elapsed = self.loop.now - self._window_start
        busy = self._window_busy
        self._window_start = self.loop.now
        self._window_busy = 0.0
        if elapsed <= 0:
            return 0.0
        return busy / (elapsed * self.cores)


@dataclass
class ResourceSample:
    """One monitoring sample (a row of top+netstat+dstat output)."""

    time: float
    memory_total: int        # "All" lines in Fig 13a/14a
    memory_process: int      # "NSD" lines
    established: int
    time_wait: int
    cpu_utilization: float   # over the sampling window
    tls_sessions: int = 0
    half_open: int = 0       # SYN_RECEIVED population (netstat SYN_RECV)


class ServerResourceModel:
    """Memory + CPU + connection model for one simulated DNS server."""

    def __init__(self, loop: EventLoop, tcp_stack=None, cores: int = 48,
                 cost_model: Optional[CostModel] = None):
        self.loop = loop
        self.tcp_stack = tcp_stack
        self.cpu = CpuMeter(loop, cores=cores, cost_model=cost_model)
        self.tls_sessions = 0
        self.os_base = OS_BASE_BYTES
        self.server_base = SERVER_BASE_BYTES
        # Scale factor for client-sampled experiments: when the workload
        # is a 1/N client sample of the full trace, connection-driven
        # memory is multiplied by N to report full-trace figures.
        self.scale_factor = 1.0

    def connection_counts(self) -> Tuple[int, int, int]:
        """(open, established, time_wait) from the stack, scaled."""
        if self.tcp_stack is None:
            return 0, 0, 0
        established = self.tcp_stack.established_count()
        time_wait = self.tcp_stack.time_wait_count()
        open_total = len(self.tcp_stack.connections()) - time_wait
        s = self.scale_factor
        return int(open_total * s), int(established * s), int(time_wait * s)

    def memory_process(self) -> int:
        open_conns, _established, _time_wait = self.connection_counts()
        per_conn = SERVER_PER_CONNECTION_BYTES * open_conns
        tls = TLS_SESSION_BYTES * int(self.tls_sessions * self.scale_factor)
        return self.server_base + per_conn + tls

    def memory_kernel(self) -> int:
        open_conns, _established, time_wait = self.connection_counts()
        half_open = 0
        if self.tcp_stack is not None:
            half_open = int(self.tcp_stack.half_open_count()
                            * self.scale_factor)
        full = max(open_conns - half_open, 0)
        return (TCP_SOCK_STRUCT_BYTES + TCP_RECV_BUFFER_BYTES
                + TCP_SEND_BUFFER_BYTES) * full \
            + HALF_OPEN_STRUCT_BYTES * half_open \
            + TIME_WAIT_STRUCT_BYTES * time_wait

    def memory_total(self) -> int:
        return self.os_base + self.memory_kernel() + self.memory_process()

    def sample(self) -> ResourceSample:
        _open, established, time_wait = self.connection_counts()
        half_open = 0
        if self.tcp_stack is not None:
            half_open = int(self.tcp_stack.half_open_count()
                            * self.scale_factor)
        return ResourceSample(
            time=self.loop.now,
            memory_total=self.memory_total(),
            memory_process=self.memory_process(),
            established=established,
            time_wait=time_wait,
            cpu_utilization=self.cpu.sample_window(),
            tls_sessions=int(self.tls_sessions * self.scale_factor),
            half_open=half_open,
        )


class ResourceMonitor:
    """Periodic sampler producing the Fig 13/14 time series."""

    def __init__(self, loop: EventLoop, model: ServerResourceModel,
                 period: float = 60.0):
        self.loop = loop
        self.model = model
        self.period = period
        self.samples: List[ResourceSample] = []
        self._timer = None
        self._running = False

    def start(self) -> None:
        self._running = True
        self._timer = self.loop.call_later(self.period, self._tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.samples.append(self.model.sample())
        self._timer = self.loop.call_later(self.period, self._tick)

    def steady_state(self, skip: float = 300.0) -> List[ResourceSample]:
        """Samples after startup transients (paper: steady by ~5 min)."""
        if not self.samples:
            return []
        start = self.samples[0].time + skip
        return [s for s in self.samples if s.time >= start]
