"""Experiment harnesses reproducing every table and figure in the paper.

Module map (see DESIGN.md for the full index):

=============  ==========================================================
``table1``     trace inventory
``fig6_timing``        replay send-time error quartiles
``fig7_interarrival``  inter-arrival CDFs, original vs replayed
``fig8_rate``          per-second rate differences over 5 trials
``fig9_throughput``    single-host fast-replay rate (live + simulated)
``fig10_dnssec``       response bandwidth vs ZSK size × DO fraction
``fig11_cpu``          CPU vs TCP timeout for original/TCP/TLS
``fig13_14_footprint`` memory / ESTABLISHED / TIME_WAIT sweeps
``fig15_latency``      latency vs RTT, all and non-busy clients
``hierarchy_validation`` meta-server correctness & repeatability
=============  ==========================================================
"""

from ..netsim import LAN_RTT, Testbed, build_evaluation_topology
from .common import (FULL, QUICK, SCALES, SMOKE, ExperimentOutput, Scale,
                     format_table, gib)
from .rootserver import (RootRunConfig, RootRunOutput, build_workload,
                         make_signed_root, run_root_replay)

__all__ = [
    "ExperimentOutput", "FULL", "LAN_RTT", "QUICK", "RootRunConfig",
    "RootRunOutput", "SCALES", "SMOKE", "Scale", "Testbed",
    "build_evaluation_topology", "build_workload", "format_table", "gib",
    "make_signed_root", "run_root_replay",
]
