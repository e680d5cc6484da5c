"""Figure 15: query latency vs client-server RTT, per protocol.

§5.2.4, B-Root-17b workload with a 20 s connection timeout:

* (a) over **all** clients, TCP's median latency stays close to UDP's —
  the busy 1 % of clients reuse hot connections, so even at 160 ms RTT
  TCP's median is only ~15 % above UDP;
* (b) over **non-busy** clients (<250 queries in the 20-minute trace),
  TCP's median is ~2 RTT (fresh connections), TLS rises non-linearly
  from ~2 toward ~4 RTT, and the 75th/95th percentiles blow up with
  RTT (Nagle + delayed-ACK + handshake queueing);
* (c) the per-client load CDF explaining (a) vs (b): ~1 % of clients
  carry ~75 % of the load; ~81 % send fewer than 10 queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..trace import (inactive_client_fraction, per_client_counts,
                     quartile_summary, top_client_share)
from .common import ExperimentOutput, Scale, SMOKE
from .rootserver import RootRunConfig, run_root_replay

DEFAULT_RTTS_MS = (20.0, 80.0, 160.0)
NON_BUSY_PAPER_THRESHOLD = 250       # queries per 20-minute trace
PAPER_TRACE_DURATION = 1200.0


@dataclass
class LatencyPoint:
    protocol: str
    rtt_ms: float
    group: str                       # "all" | "non-busy"
    stats: Dict[str, float]          # seconds

    def median_rtt_multiple(self) -> float:
        if self.rtt_ms <= 0:
            return 0.0
        return self.stats["median"] / (self.rtt_ms / 1000.0)


def non_busy_threshold(duration: float) -> int:
    """Scale the paper's <250-queries cutoff to our trace duration."""
    # Floor at 8: per-client counts do not scale linearly at short
    # durations (a single A+AAAA+chain burst is ~5 queries), and the
    # paper's 250 cutoff is far above any one burst.
    return max(8, int(round(NON_BUSY_PAPER_THRESHOLD
                            * duration / PAPER_TRACE_DURATION)))


def measure(scale: Scale = SMOKE,
            rtts_ms: Sequence[float] = DEFAULT_RTTS_MS,
            protocols: Sequence[str] = ("original", "tcp", "tls")
            ) -> List[LatencyPoint]:
    points: List[LatencyPoint] = []
    for protocol in protocols:
        for rtt_ms in rtts_ms:
            output = run_root_replay(RootRunConfig(
                scale=scale, protocol=protocol, tcp_timeout=20.0,
                client_rtt=rtt_ms / 1000.0))
            counts = per_client_counts(output.trace)
            threshold = non_busy_threshold(output.trace.duration())
            non_busy = {client for client, count in counts.items()
                        if count < threshold}
            all_lat = output.result.latencies()
            nb_lat = output.result.latencies(sources=non_busy)
            if all_lat:
                points.append(LatencyPoint(protocol, rtt_ms, "all",
                                           quartile_summary(all_lat)))
            if nb_lat:
                points.append(LatencyPoint(protocol, rtt_ms, "non-busy",
                                           quartile_summary(nb_lat)))
    return points


def run(scale: Scale = SMOKE,
        rtts_ms: Sequence[float] = DEFAULT_RTTS_MS) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="fig15",
        title="Query latency vs RTT (20 s timeout), all and non-busy "
              "clients",
        headers=["protocol", "RTT (ms)", "group", "p25 (ms)",
                 "median (ms)", "p75 (ms)", "p95 (ms)",
                 "median (RTT multiples)"],
        paper_claims={
            "15a TCP vs UDP": "TCP median ≈ UDP at 20 ms RTT; ~15 % "
                              "slower at 160 ms (reuse-dominated)",
            "15b TCP non-busy": "median ≈ 2 RTT (fresh connections); "
                                "25th percentile 1 RTT",
            "15b TLS non-busy": "median grows non-linearly 2 → 4 RTT",
            "15b tail": "75th+ percentiles reach many RTTs "
                        "(segment reassembly / Nagle)",
            "15c": "1 % of clients ≈ 75 % of load; 81 % inactive",
        })

    for point in measure(scale, rtts_ms):
        output.add_row(point.protocol, point.rtt_ms, point.group,
                       point.stats["p25"] * 1e3,
                       point.stats["median"] * 1e3,
                       point.stats["p75"] * 1e3,
                       point.stats["p95"] * 1e3,
                       point.median_rtt_multiple())

    # Fig 15c companion numbers from the same workload.
    probe = run_root_replay(RootRunConfig(scale=scale, protocol="original"))
    output.notes.append(
        f"fig15c: top-1% client share = "
        f"{top_client_share(probe.trace):.2f} (paper ~0.75); inactive "
        f"fraction = {inactive_client_fraction(probe.trace):.2f} "
        f"(paper ~0.81)")
    return output
