"""The counter registry under its old name."""

from .telemetry.metrics import MetricsRegistry

# Kept only because bench/workloads.py imports it; the next change to
# the benchmark moves that import to MetricsRegistry and deletes this.
PerfCounters = MetricsRegistry
