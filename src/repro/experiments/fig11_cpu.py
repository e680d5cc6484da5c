"""Figure 11: server CPU usage vs TCP timeout, per protocol.

§5.2.3: over a 48-thread server replaying B-Root-17a, CPU usage is flat
in the connection-timeout window and sits near 10 % for the original
(97 % UDP) trace, ~5 % for all-TCP (the NIC's TCP offload makes TCP
cheaper than the unoptimized UDP path — the paper's surprise), and
9-10 % for all-TLS, with a small bump at the 5 s timeout where
connection churn is highest.
"""

from __future__ import annotations

from typing import Sequence

from ..trace import quartile_summary
from .common import ExperimentOutput, Scale, SMOKE
from .rootserver import RootRunConfig, run_root_replay

PAPER_MEDIANS = {"original": 10.0, "tcp": 5.0, "tls": 9.5}
DEFAULT_TIMEOUTS = (5.0, 10.0, 20.0, 30.0, 40.0)


def run(scale: Scale = SMOKE,
        timeouts: Sequence[float] = DEFAULT_TIMEOUTS,
        protocols: Sequence[str] = ("original", "tcp", "tls")
        ) -> ExperimentOutput:
    output = ExperimentOutput(
        experiment_id="fig11",
        title="Server CPU usage vs TCP timeout (48 cores, minimal RTT)",
        headers=["protocol", "timeout (s)", "median CPU %", "p25 %",
                 "p75 %", "paper median %"],
        paper_claims={
            "original (3% TCP)": "~10 % median — higher than all-TCP",
            "all TCP": "~5 % median, flat across timeouts",
            "all TLS": "9-10 % median; ~2 % higher at 5 s timeout",
        },
        notes=["CPU is a calibrated per-operation cost model "
               "(netsim.resources.CostModel); utilizations are scaled to "
               "the full-trace rate"])

    for protocol in protocols:
        for timeout in timeouts:
            result = run_root_replay(RootRunConfig(
                scale=scale, protocol=protocol, tcp_timeout=timeout))
            samples = [s.cpu_utilization * result.scale_factor * 100
                       for s in result.steady_samples()]
            if not samples:
                samples = [result.cpu_utilization_scaled() * 100]
            stats = quartile_summary(samples)
            output.add_row(protocol, timeout, stats["median"], stats["p25"],
                           stats["p75"], PAPER_MEDIANS.get(protocol, "-"))
    return output
