"""Figures 13 and 14: server memory and connection footprint over time.

§5.2.2: with all root traffic over TCP (Fig 13) or TLS (Fig 14), sweep
the server's connection timeout from 5 s to 40 s and record memory
("All" = whole machine, "NSD" = the server process), ESTABLISHED
connections, and TIME_WAIT connections over the run.  Paper landmarks at
the 20 s timeout: ~15 GB RAM for TCP, ~18 GB for TLS, ~60 k ESTABLISHED,
~120 k TIME_WAIT, versus ~2 GB for UDP-dominated traffic; memory is
dominated by the timeout duration and stabilizes after ~5 minutes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..netsim import ResourceSample
from ..trace import mean
from .common import ExperimentOutput, Scale, SMOKE, gib
from .rootserver import RootRunConfig, RootRunOutput, run_root_replay

DEFAULT_TIMEOUTS = (5.0, 10.0, 20.0, 30.0, 40.0)

PAPER_AT_20S = {
    "tcp": {"memory_gb": 15.0, "established": 60000, "time_wait": 120000},
    "tls": {"memory_gb": 18.0, "established": 60000, "time_wait": 120000},
}
PAPER_UDP_BASELINE_GB = 2.0


@dataclass
class FootprintRun:
    timeout: float
    output: RootRunOutput

    def steady(self) -> List[ResourceSample]:
        samples = self.output.steady_samples()
        return samples if samples else self.output.monitor.samples

    def steady_memory_total(self) -> float:
        return mean([s.memory_total for s in self.steady()])

    def steady_memory_process(self) -> float:
        return mean([s.memory_process for s in self.steady()])

    def steady_established(self) -> float:
        return mean([s.established for s in self.steady()])

    def steady_time_wait(self) -> float:
        return mean([s.time_wait for s in self.steady()])


def sweep(protocol: str, scale: Scale = SMOKE,
          timeouts: Sequence[float] = DEFAULT_TIMEOUTS
          ) -> List[FootprintRun]:
    runs = []
    for timeout in timeouts:
        # Each run must comfortably exceed the timeout *and* the 60 s
        # TIME_WAIT lifetime to reach the steady state the paper
        # observes after ~5 minutes.
        run_scale = Scale(scale.name, rate=scale.rate,
                          duration=max(scale.duration, timeout * 4, 150.0),
                          monitor_period=scale.monitor_period)
        runs.append(FootprintRun(
            timeout, run_root_replay(RootRunConfig(
                scale=run_scale, protocol=protocol, tcp_timeout=timeout))))
    return runs


def run_timeseries(protocol: str = "tcp", scale: Scale = SMOKE,
                   timeout: float = 20.0) -> ExperimentOutput:
    """The Fig 13/14 *time series* (the paper plots memory/connections
    per minute over the whole run, not just steady-state means)."""
    figure = "fig13" if protocol == "tcp" else "fig14"
    run_scale = Scale(scale.name, rate=scale.rate,
                      duration=max(scale.duration, timeout * 4, 150.0),
                      monitor_period=scale.monitor_period)
    output = ExperimentOutput(
        experiment_id=f"{figure}-timeseries",
        title=f"{protocol.upper()} footprint over time, "
              f"{timeout:.0f}s timeout",
        headers=["time (s)", "mem All (GiB)", "mem process (GiB)",
                 "ESTABLISHED", "TIME_WAIT", "half-open"],
        paper_claims={
            "shape": "rise during warmup, steady state in ~5 minutes, "
                     "approximately flat thereafter",
        })
    result = run_root_replay(RootRunConfig(
        scale=run_scale, protocol=protocol, tcp_timeout=timeout))
    for sample in result.monitor.samples:
        output.add_row(sample.time, gib(sample.memory_total),
                       gib(sample.memory_process), sample.established,
                       sample.time_wait, sample.half_open)
    return output


def run(protocol: str = "tcp", scale: Scale = SMOKE,
        timeouts: Sequence[float] = DEFAULT_TIMEOUTS,
        include_baseline: bool = True) -> ExperimentOutput:
    figure = "fig13" if protocol == "tcp" else "fig14"
    paper = PAPER_AT_20S[protocol]
    output = ExperimentOutput(
        experiment_id=figure,
        title=f"Server memory/connection footprint, all queries over "
              f"{protocol.upper()}",
        headers=["timeout (s)", "mem All (GiB)", "mem process (GiB)",
                 "ESTABLISHED", "TIME_WAIT", "paper @20s"],
        paper_claims={
            "memory @20s": f"~{paper['memory_gb']:.0f} GB",
            "established @20s": f"~{paper['established']:,}",
            "time_wait @20s": f"~{paper['time_wait']:,} "
                              "(about 2x established)",
            "udp baseline": f"~{PAPER_UDP_BASELINE_GB:.0f} GB",
            "stability": "steady state in ~5 minutes, flat thereafter",
        },
        notes=["counts scaled to the full B-Root rate by the client-sample "
               "factor (DESIGN.md)"])

    for run_ in sweep(protocol, scale, timeouts):
        marker = (f"{paper['memory_gb']:.0f}GB/"
                  f"{paper['established'] // 1000}k est"
                  if run_.timeout == 20.0 else "-")
        output.add_row(run_.timeout, gib(run_.steady_memory_total()),
                       gib(run_.steady_memory_process()),
                       int(run_.steady_established()),
                       int(run_.steady_time_wait()), marker)

    if include_baseline:
        baseline = run_root_replay(RootRunConfig(
            scale=scale, protocol="original", tcp_timeout=20.0))
        samples = baseline.steady_samples() or baseline.monitor.samples
        output.add_row("original/20", gib(mean([s.memory_total
                                                for s in samples])),
                       gib(mean([s.memory_process for s in samples])),
                       int(mean([s.established for s in samples])),
                       int(mean([s.time_wait for s in samples])),
                       f"{PAPER_UDP_BASELINE_GB:.0f}GB UDP-dominated")
    return output
