"""The shared root-server replay harness behind Figures 10-15.

One run = deploy a root server on the Figure 12 topology, generate a
B-Root-like workload at the requested scale, optionally mutate it
(all-TCP, all-TLS, DNSSEC fractions), replay it with the distributed
query engine, and collect resource samples, traffic meters, and
per-query latencies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional

from ..dns import Zone, dnssec
from ..netsim import LAN_RTT, ServerResourceModel, build_evaluation_topology
from ..replay import (QuerierConfig, ReplayConfig, ReplayResult,
                      SimReplayEngine, TimerJitterModel)
from ..server import AuthoritativeServer, HostedDnsServer, TransportConfig
from ..telemetry import ResourceTimeline, Telemetry, TelemetryConfig
from ..trace import (BRootWorkload, QueryMutator, Trace, all_protocol,
                     make_root_zone, retarget, set_dnssec_fraction)
from .common import Scale, SMOKE

SERVER_CORES = 48  # 24-core/48-thread Xeon (§5.2.1)


@dataclass
class RootRunConfig:
    """Everything one root-server experiment varies."""

    scale: Scale = SMOKE
    protocol: str = "original"      # "original" | "tcp" | "tls"
    tcp_timeout: float = 20.0
    client_rtt: float = LAN_RTT
    do_fraction: Optional[float] = None   # None = trace's own mix
    zsk_bits: int = 2048
    rollover: bool = False
    signed: bool = True
    tld_count: int = 50
    seed: int = 42
    track_timing: bool = True
    jitter: bool = False
    # Optional telemetry config; the run always samples resource time
    # series (the sampler IS the Fig 11/13/14 instrumentation), so a
    # None here still builds a hub with ``timeseries_period`` set from
    # the scale's monitor period.  Pass a config to add tracing or
    # histogram metrics on top.
    telemetry: Optional[TelemetryConfig] = None


@dataclass
class RootRunOutput:
    config: RootRunConfig
    result: ReplayResult
    # A ResourceTimeline riding the telemetry sampler; keeps the old
    # ResourceMonitor surface (``samples``, ``steady_state``) so the
    # figure scripts work unchanged.
    monitor: ResourceTimeline
    resources: ServerResourceModel
    server: HostedDnsServer
    trace: Trace
    start_time: float
    scale_factor: float
    telemetry: Optional[Telemetry] = None

    def steady_samples(self, skip: Optional[float] = None):
        if skip is None:
            # The paper sees steady state at ~5 minutes of a 60-minute
            # run; use the same fraction of our scaled duration.
            skip = self.config.scale.duration / 12.0
        return self.monitor.steady_state(skip=skip)

    def cpu_utilization_scaled(self) -> float:
        """Mean utilization since start, at full-trace rate."""
        raw = self.resources.cpu.utilization_since(self.start_time)
        return raw * self.scale_factor

    def response_mbps_series(self) -> List[float]:
        """Per-second outbound bandwidth, scaled to full trace, Mb/s."""
        series = []
        for _second, size_bytes, _packets in \
                self.server.host.meter_out.series():
            series.append(size_bytes * 8 / 1e6 * self.scale_factor)
        return series


def make_signed_root(config: RootRunConfig) -> Zone:
    zone = make_root_zone(config.tld_count)
    if not config.signed:
        return zone
    signing = dnssec.SigningConfig(
        zsk_bits=config.zsk_bits,
        rollover_extra_zsk_bits=(1024 if config.zsk_bits == 2048 else 2048)
        if config.rollover else None)
    return dnssec.sign_zone(zone, signing)


def build_workload(config: RootRunConfig) -> Trace:
    workload = BRootWorkload(
        duration=config.scale.duration,
        mean_rate=config.scale.rate,
        client_count=config.scale.clients,
        tld_count=config.tld_count,
        seed=config.seed,
    )
    trace = workload.generate()
    mutations = [retarget("10.0.0.2")]
    if config.protocol in ("tcp", "tls"):
        mutations.append(all_protocol(config.protocol))
    if config.do_fraction is not None:
        mutations.append(set_dnssec_fraction(config.do_fraction))
    return QueryMutator(mutations).apply(trace)


def run_root_replay(config: RootRunConfig) -> RootRunOutput:
    testbed = build_evaluation_topology(client_rtt=config.client_rtt)
    zone = make_signed_root(config)
    trace = build_workload(config)

    resources = ServerResourceModel(testbed.loop, cores=SERVER_CORES)
    resources.scale_factor = config.scale.report_factor

    tel_config = config.telemetry or TelemetryConfig()
    if tel_config.timeseries_period is None:
        tel_config = dataclasses.replace(
            tel_config, timeseries_period=config.scale.monitor_period)
    telemetry = Telemetry(tel_config)
    # Attach (and start the sampler) before building the server so the
    # hosting layer's probe registrations land on a live sampler.
    telemetry.attach_loop(testbed.loop)

    server = HostedDnsServer(
        testbed.server_host,
        AuthoritativeServer.single_view([zone]),
        config=TransportConfig(udp=True, tcp=True, tls=True,
                               tcp_idle_timeout=config.tcp_timeout),
        resources=resources,
        telemetry=telemetry)

    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(
            client_instances=4,
            queriers_per_instance=6,
            track_timing=config.track_timing,
            jitter=TimerJitterModel(None, seed=config.seed)
            if config.jitter else None,
            querier=QuerierConfig(nagle=False)),
        telemetry=telemetry)
    monitor = ResourceTimeline(telemetry.sampler, resources)

    start_time = testbed.loop.now
    result = engine.schedule_trace(trace)
    # Run past the trace end so timeouts, TIME_WAITs and the monitor
    # observe the post-load decay the paper's plots show.
    testbed.loop.run_until(start_time + config.scale.duration + 5.0)
    telemetry.stop()

    return RootRunOutput(
        config=config, result=result, monitor=monitor, resources=resources,
        server=server, trace=trace, start_time=start_time,
        scale_factor=config.scale.report_factor, telemetry=telemetry)
