"""Figure 6: query-time error between replayed and original traces.

Replays each synthetic trace (fixed interarrivals from 1 s down to
0.1 ms) and a B-Root-like trace over UDP, then reports quartiles,
min and max of the per-query send-time error.  Paper: quartiles usually
within ±2.5 ms, the 0.1 s interarrival anomaly at ±8 ms, and extremes
within ±17 ms.

The simulated clock is exact, so the error distribution comes from the
calibrated :class:`TimerJitterModel` plus genuine emergent effects
(input-processing lag at the fastest rates).  The live path (a 1×1
:class:`~repro.replay.ProcessTopology`) measures real OS jitter for
cross-checking; ``include_live`` adds a short real-time run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..replay import (DistributedConfig, LiveUdpEchoServer,
                      ProcessTopology, ReplayConfig, SimReplayEngine,
                      TimerJitterModel)
from ..server import AuthoritativeServer, HostedDnsServer
from ..trace import BRootWorkload, Trace, fixed_interval_trace, retarget, \
    QueryMutator
from ..trace import make_root_zone
from ..dns import Name, Zone, make_soa, RRClass
from ..dns import rdata as rd
from ..dns.rrset import RR
from .common import ExperimentOutput, Scale, SMOKE
from .topology import build_evaluation_topology

SKIP_SECONDS = 2.0  # scaled version of the paper's 20 s startup skip

PAPER_QUARTILES_MS = {
    "1 s": 2.0, "0.1 s": 8.0, "0.01 s": 2.5, "0.001 s": 1.2,
    "0.0001 s": 0.8, "B-Root": 1.5,
}


def wildcard_example_zone() -> Zone:
    """example.com with wildcards, so every unique name is answerable."""
    origin = Name.from_text("example.com.")
    zone = Zone(origin)
    zone.add_rr(make_soa(origin))
    ns = Name.from_text("ns1.example.com.")
    zone.add_rr(RR(origin, 3600, RRClass.IN, rd.NS(ns)))
    zone.add_rr(RR(ns, 3600, RRClass.IN, rd.A("10.0.0.2")))
    zone.add_rr(RR(Name.from_text("*.example.com."), 300, RRClass.IN,
                   rd.A("192.0.2.1")))
    return zone


def replay_one(trace: Trace, interval_hint: Optional[float],
               seed: int = 1):
    testbed = build_evaluation_topology()
    HostedDnsServer(testbed.server_host,
                    AuthoritativeServer.single_view(
                        [wildcard_example_zone(), make_root_zone(30)]))
    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(jitter=TimerJitterModel(interval_hint, seed=seed)))
    mutated = QueryMutator([retarget(testbed.server_address)]).apply(trace)
    return engine.replay(mutated, extra_time=3.0)


def run(scale: Scale = SMOKE, max_queries: int = 20000,
        include_live: bool = False) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="fig6",
        title="Query timing error between replayed and original traces",
        headers=["trace", "p25 (ms)", "median (ms)", "p75 (ms)",
                 "min (ms)", "max (ms)", "paper quartile (ms)"],
        paper_claims={
            "typical": "quartiles within ±2.5 ms",
            "0.1 s anomaly": "±8 ms quartiles at fixed 0.1 s interarrival",
            "extremes": "within ±17 ms",
        })

    cases = []
    for interval in (1.0, 0.1, 0.01, 0.001, 0.0001):
        duration = min(scale.duration, max_queries * interval)
        duration = max(duration, interval * 50, 6.0)
        cases.append((f"{interval:g} s".replace("1e-04", "0.0001"),
                      fixed_interval_trace(interval, duration,
                                           name=f"syn-{interval}"),
                      interval))
    cases.append(("B-Root",
                  BRootWorkload(duration=scale.duration,
                                mean_rate=scale.rate,
                                client_count=scale.clients).generate(),
                  None))

    for label, trace, hint in cases:
        result = replay_one(trace, hint)
        summary = result.error_summary(skip_seconds=SKIP_SECONDS)
        if not summary:
            continue
        output.add_row(label, summary["p25"] * 1e3, summary["median"] * 1e3,
                       summary["p75"] * 1e3, summary["min"] * 1e3,
                       summary["max"] * 1e3,
                       PAPER_QUARTILES_MS.get(label, "-"))

    if include_live:
        live_trace = fixed_interval_trace(0.01, 3.0, name="live-syn")
        with LiveUdpEchoServer() as server:
            live = ProcessTopology(
                (server.address, server.port),
                DistributedConfig(distributors=1,
                                  queriers_per_distributor=1))
            result = live.replay(live_trace)
        summary = result.error_summary(skip_seconds=0.5)
        if summary:
            output.add_row("live 0.01 s", summary["p25"] * 1e3,
                           summary["median"] * 1e3, summary["p75"] * 1e3,
                           summary["min"] * 1e3, summary["max"] * 1e3, "-")
            output.notes.append(
                "live row measured over real loopback sockets and OS timers")
    return output
