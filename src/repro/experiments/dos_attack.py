"""Application: a root server under denial-of-service attack.

The paper motivates LDplayer with exactly this question — "How does
[a] current server operate under the stress of a Denial-of-Service
attack?" (§1) and lists DoS study among the applications trace replay
enables (§1, §5).  This experiment runs it: legitimate B-Root-like
traffic replays normally while an attacker floods the server, and we
measure what the flood does to the server *and* to legitimate clients.

Two attack shapes:

* **udp-flood** — spoofed random-source junk queries at a multiple of
  the normal rate.  Burns server CPU (every datagram takes the full
  unoptimized UDP path) and inflates response bandwidth.
* **syn-flood** — spoofed SYNs that never complete the handshake.
  Half-open connections pile up until the SYN-timeout reaper catches
  up; with a bounded connection table (conntrack/backlog), legitimate
  TCP clients start losing their SYNs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dns import DNS_PORT, Edns, Message, Name, RRType
from ..netsim import (IpPacket, TcpFlags, UdpSegment,
                      build_evaluation_topology, make_tcp_packet)
from ..replay import ReplayConfig, SimReplayEngine
from ..server import (AuthoritativeServer, HostedDnsServer, OverloadConfig,
                      TransportConfig)
from ..trace import QueryRecord, Trace, quartile_summary
from .common import ExperimentOutput, Scale, SMOKE
from .rootserver import SERVER_CORES, build_workload, make_signed_root, \
    RootRunConfig
from ..netsim import ServerResourceModel
from ..telemetry import ResourceTimeline, TimeSeriesSampler

ATTACKER_ADDRESS = "10.66.6.6"

# Perf-counter names that represent shed/refused work at the server;
# surfaced per-run in DosRunResult.shed_counts.
SHED_COUNTERS = (
    "overload.dropped_oldest", "overload.dropped_newest",
    "overload.shed_servfail", "rrl.dropped", "rrl.early_drops",
    "rrl.slipped", "rrl.leaked", "tcp.syn_drops", "tcp.syn_refused",
    "tcp.backlog_refusals",
)


def udp_attack_trace(rate: float, duration: float, server: str,
                     seed: int = 666,
                     spoof_subnet: Optional[str] = None,
                     qname_pool: Optional[List[str]] = None) -> Trace:
    """Spoofed-source junk queries.

    The default is a fully randomized flood: every query spoofs a fresh
    source and asks a unique junk qname (NXDOMAIN fodder) — maximally
    hard to filter.  ``spoof_subnet`` (e.g. ``"198.51.100"``) pins all
    spoofed sources into one /24, and ``qname_pool`` cycles a fixed set
    of names: together they model a *reflection* attack amplifying
    toward one victim subnet, the workload RRL was designed to catch.
    """
    rng = random.Random(seed)
    records: List[QueryRecord] = []
    now = 0.0
    index = 0
    while now < duration:
        now += rng.expovariate(rate)
        if now >= duration:
            break
        if spoof_subnet is not None:
            spoofed = f"{spoof_subnet}.{rng.randrange(1, 255)}"
        else:
            spoofed = (f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
                       f"{rng.randrange(256)}.{rng.randrange(1, 255)}")
        if qname_pool:
            qname = qname_pool[index % len(qname_pool)]
        else:
            qname = f"atk{rng.randrange(10 ** 9):09d}.flood."
        message = Message.make_query(
            Name.from_text(qname),
            RRType.A, msg_id=(index % 0xFFFF) + 1,
            edns=Edns(dnssec_ok=True))
        records.append(QueryRecord(now, spoofed, 1024 + index % 60000,
                                   server, DNS_PORT, "udp",
                                   message.to_wire()))
        index += 1
    return Trace(records, name="udp-flood")


@dataclass
class DosRunResult:
    label: str
    cpu_percent: float
    established: int
    half_open: int
    syn_drops: int
    memory_gib: float
    legit_answered: float
    legit_median_latency: Optional[float]
    # Per-class completion and degradation visibility (overload PR).
    attack_answered: Optional[float] = None
    shed_counts: Dict[str, int] = field(default_factory=dict)


def run_attack(scale: Scale, attack: str, attack_multiplier: float,
               legit_protocol: str = "tcp",
               connection_table_limit: Optional[int] = None,
               seed: int = 42,
               overload: Optional[OverloadConfig] = None,
               attack_profile: str = "random",
               refuse_when_full: bool = False) -> DosRunResult:
    """One run: legitimate replay + attacker, measured at the server.

    ``overload`` enables the server's admission-control/RRL defenses;
    ``attack_profile`` selects ``"random"`` (unique spoofed sources and
    qnames) or ``"reflection"`` (one victim /24, small qname pool — the
    shape RRL catches); ``refuse_when_full`` makes a full connection
    table answer SYNs with RST instead of dropping them silently.
    """
    testbed = build_evaluation_topology()
    zone = make_signed_root(RootRunConfig(scale=scale))
    resources = ServerResourceModel(testbed.loop, cores=SERVER_CORES)
    resources.scale_factor = scale.report_factor
    server = HostedDnsServer(
        testbed.server_host,
        AuthoritativeServer.single_view([zone]),
        config=TransportConfig(udp=True, tcp=True, tls=True,
                               tcp_idle_timeout=20.0),
        resources=resources,
        overload=overload)
    if connection_table_limit is not None:
        server.tcp_stack.max_connections = int(
            connection_table_limit / scale.report_factor)
    server.tcp_stack.refuse_when_full = refuse_when_full

    # Legitimate traffic through the normal replay engine.
    config = RootRunConfig(scale=scale, protocol=legit_protocol, seed=seed)
    legit = build_workload(config)
    engine = SimReplayEngine(testbed.network, ReplayConfig())
    start = testbed.loop.now
    result = engine.schedule_trace(legit)

    # The attacker: a host injecting packets outside the replay engine.
    attacker = testbed.network.add_host("attacker", ATTACKER_ADDRESS)
    attack_rate = scale.rate * attack_multiplier
    attack_queries = 0
    if attack == "udp-flood" and attack_multiplier > 0:
        if attack_profile == "reflection":
            zone_name = zone.origin.to_text()
            suffix = "" if zone_name == "." else zone_name
            flood = udp_attack_trace(
                attack_rate, scale.duration, testbed.server_address,
                seed=seed, spoof_subnet="198.51.100",
                qname_pool=[f"amp{i}.{suffix}" for i in range(4)])
        else:
            flood = udp_attack_trace(attack_rate, scale.duration,
                                     testbed.server_address, seed=seed)
        attack_queries = len(flood.records)
        for record in flood:
            packet = IpPacket(
                record.src, record.dst,
                UdpSegment(record.sport, record.dport, record.wire),
            ).with_checksum()
            testbed.loop.call_at(start + 0.5 + record.timestamp,
                                 attacker.send_packet, packet)
    elif attack == "syn-flood" and attack_multiplier > 0:
        rng = random.Random(seed + 1)
        now = 0.0
        sequence = 77
        while now < scale.duration:
            now += rng.expovariate(attack_rate)
            spoofed = (f"{rng.randrange(1, 224)}.{rng.randrange(256)}."
                       f"{rng.randrange(256)}.{rng.randrange(1, 255)}")
            packet = make_tcp_packet(
                spoofed, 1024 + sequence % 60000, testbed.server_address,
                DNS_PORT, seq=sequence, ack=0, flags=TcpFlags.SYN)
            testbed.loop.call_at(start + 0.5 + now,
                                 attacker.send_packet, packet)
            sequence += 1

    sampler = TimeSeriesSampler(testbed.loop, scale.monitor_period)
    monitor = ResourceTimeline(sampler, resources)
    sampler.start()
    testbed.loop.run_until(start + scale.duration + 5.0)
    sampler.stop()

    latencies = result.latencies()
    samples = monitor.steady_state(skip=scale.duration / 6) \
        or monitor.samples
    last = samples[-1]
    # Half-open population peaks mid-attack (before the SYN reaper and
    # the end of the flood); report the peak, like watching netstat.
    peak_half_open = max((s.half_open for s in monitor.samples),
                         default=0)

    # Per-class completion: with legitimate traffic on TCP/TLS, every
    # UDP response the server sent went to the attack class (RRL slips
    # included — they are responses).  With legitimate UDP traffic the
    # classes share the counter, so the split is unavailable.
    snapshot = server.perf.snapshot()
    attack_answered = None
    if attack_queries and legit_protocol != "udp":
        udp_responses = snapshot.get("hosting.responses_sent.udp", 0)
        attack_answered = min(1.0, udp_responses / attack_queries)
    shed_counts = {name: int(snapshot[name]) for name in SHED_COUNTERS
                   if snapshot.get(name)}

    return DosRunResult(
        label=f"{attack} x{attack_multiplier:g}",
        cpu_percent=resources.cpu.utilization_since(start)
        * scale.report_factor * 100,
        established=last.established,
        half_open=peak_half_open,
        syn_drops=int(server.tcp_stack.syn_drops * scale.report_factor),
        memory_gib=last.memory_total / 1024 ** 3,
        legit_answered=result.answered_fraction(),
        legit_median_latency=(quartile_summary(latencies)["median"]
                              if latencies else None),
        attack_answered=attack_answered,
        shed_counts=shed_counts,
    )


def run(scale: Scale = SMOKE,
        connection_table_limit: int = 150_000,
        overload: Optional[OverloadConfig] = None,
        attack_profile: str = "random",
        refuse_when_full: bool = False) -> ExperimentOutput:
    defended = overload is not None and overload.enabled()
    output = ExperimentOutput(
        experiment_id="dos",
        title="Root server under denial-of-service attack "
              "(application, §1)",
        headers=["scenario", "CPU %", "ESTAB", "half-open", "SYN drops",
                 "mem (GiB)", "legit answered", "atk answered",
                 "legit median (ms)"],
        paper_claims={
            "motivation": "\"How does current server operate under the "
                          "stress of a DoS attack?\" — §1; DoS study "
                          "listed as an LDplayer application",
        },
        notes=[f"legitimate traffic all-TCP; connection table capped at "
               f"{connection_table_limit:,} (scaled)"
               + ("; overload defenses ON" if defended else "")])

    scenarios = [
        ("none", 0.0),
        ("udp-flood", 5.0),
        ("udp-flood", 20.0),
        ("syn-flood", 5.0),
        ("syn-flood", 20.0),
    ]
    saturated = False
    total_shed: Dict[str, int] = {}
    for attack, multiplier in scenarios:
        run_result = run_attack(
            scale, attack, multiplier,
            connection_table_limit=connection_table_limit,
            overload=overload, attack_profile=attack_profile,
            refuse_when_full=refuse_when_full)
        cpu = run_result.cpu_percent
        if cpu > 100.0:
            saturated = True
            cpu_cell = "100 (sat.)"
        else:
            cpu_cell = f"{cpu:.1f}"
        for name, count in run_result.shed_counts.items():
            total_shed[name] = total_shed.get(name, 0) + count
        output.add_row(
            run_result.label if multiplier else "baseline",
            cpu_cell, run_result.established,
            run_result.half_open, run_result.syn_drops,
            run_result.memory_gib, run_result.legit_answered,
            f"{run_result.attack_answered:.2f}"
            if run_result.attack_answered is not None else "-",
            run_result.legit_median_latency * 1e3
            if run_result.legit_median_latency else "-")
    if saturated:
        output.notes.append(
            "\"(sat.)\" marks offered CPU load beyond the 48-core budget: "
            "a real server saturates and sheds queries at that point")
    if total_shed:
        shed_text = ", ".join(f"{name}={count}"
                              for name, count in sorted(total_shed.items()))
        output.notes.append(f"shed/refused work across runs: {shed_text}")
    return output
