"""Shared experiment infrastructure: scales, outputs, formatting.

The paper's workloads are far beyond a Python simulator run in CI
(B-Root: ~38 k q/s for an hour, ~1.17 M clients).  Experiments therefore
run on a *client-sampled* workload: the generator keeps per-client
behaviour (per-client rates, burst structure, protocol and DO mix)
identical and shrinks the client population and aggregate rate by the
same factor.  Counts that scale with the population (connections,
memory, bandwidth, CPU) are multiplied back by ``report_factor`` when
compared against the paper; latencies and timing errors are per-query
quantities and need no scaling.  See DESIGN.md substitutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

# The reference full-scale workload (B-Root 2017, Table 1): median rate
# ~38-39 k q/s and ~1.17 M clients per hour => ~30 clients per unit rate.
FULL_RATE = 38000.0
CLIENTS_PER_RATE = 30.0


@dataclass(frozen=True)
class Scale:
    """One experiment size preset."""

    name: str
    rate: float              # generated queries/second
    duration: float          # seconds of trace
    monitor_period: float    # resource sampling period
    trials: int = 1

    @property
    def clients(self) -> int:
        return max(50, int(self.rate * CLIENTS_PER_RATE))

    @property
    def report_factor(self) -> float:
        """Multiplier from sampled counts to full-trace equivalents."""
        return FULL_RATE / self.rate


# Tests use SMOKE, benchmarks QUICK; FULL approximates the paper's
# durations and is meant for interactive `ldplayer` runs.
SMOKE = Scale("smoke", rate=60.0, duration=25.0, monitor_period=5.0)
QUICK = Scale("quick", rate=150.0, duration=90.0, monitor_period=10.0)
FULL = Scale("full", rate=400.0, duration=600.0, monitor_period=30.0,
             trials=3)

SCALES = {scale.name: scale for scale in (SMOKE, QUICK, FULL)}


@dataclass
class ExperimentOutput:
    """A reproduced table/figure: identity, measured rows, paper values."""

    experiment_id: str            # e.g. "fig10"
    title: str
    headers: Sequence[str]
    rows: List[Sequence] = field(default_factory=list)
    paper_claims: Dict[str, str] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        self.rows.append(values)

    def render(self) -> str:
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(format_table(self.headers, self.rows))
        if self.paper_claims:
            lines.append("paper:")
            for key, value in self.paper_claims.items():
                lines.append(f"  {key}: {value}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Plain ASCII table, right-padded columns."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(value) for value in row])
    widths = [max(len(row[col]) for row in cells)
              for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(value.ljust(width)
                               for value, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


def gib(value_bytes: float) -> float:
    return value_bytes / 1024 ** 3
