"""The evaluation topology (Figures 5 and 12), built by
:mod:`repro.netsim.testbed` and importable here under its old module."""

from ..netsim import build_evaluation_topology

__all__ = ["build_evaluation_topology"]
