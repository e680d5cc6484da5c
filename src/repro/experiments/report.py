"""Generate a full reproduction report as Markdown.

``ldplayer report -o report.md --scale smoke`` runs every experiment and
writes one document with each reproduced table/figure next to the
paper's claims — a regenerable EXPERIMENTS.md.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional, Sequence

from .common import ExperimentOutput, Scale, SMOKE

HEADER = """# LDplayer reproduction report

Generated by `ldplayer report` at scale **{scale}** (rate {rate:g} q/s,
duration {duration:g} s, population scaled 1/{factor:.0f} of the paper's
B-Root workload — see DESIGN.md for the scaling rules).

Each section reproduces one table or figure from *LDplayer: DNS
Experimentation at Scale* (Zhu & Heidemann); the `paper:` block under
each table quotes the result being reproduced.
"""


def render_markdown(outputs: Sequence[ExperimentOutput],
                    scale: Scale,
                    durations: Optional[Dict[str, float]] = None) -> str:
    """One Markdown document from rendered experiment outputs."""
    parts = [HEADER.format(scale=scale.name, rate=scale.rate,
                           duration=scale.duration,
                           factor=scale.report_factor)]
    for output in outputs:
        parts.append(f"\n## {output.experiment_id}: {output.title}\n")
        if durations and output.experiment_id in durations:
            parts.append(f"_runtime: "
                         f"{durations[output.experiment_id]:.1f} s_\n")
        parts.append("```")
        parts.append(output.render())
        parts.append("```")
    return "\n".join(parts) + "\n"


def render_failure_counts(result) -> str:
    """Failure/recovery counters of a ReplayResult as aligned text rows.

    Used by the fault-injection experiments to show how a replay
    recovered: timeouts seen, queries re-sent, channels reconnected,
    queries reassigned off crashed queriers, and what (if anything)
    remained unanswered at drain time.
    """
    counts = result.failure_counts()
    if not counts:
        return "(no queries replayed)"
    width = max(len(key) for key in counts)
    return "\n".join(f"{key:<{width}}  {value}"
                     for key, value in counts.items())


def render_telemetry(telemetry, result=None) -> str:
    """A :class:`repro.telemetry.Telemetry` run as aligned text rows.

    Summarizes whatever the run recorded: tracer span/event totals and
    coverage bookkeeping, histogram quantiles (p50/p90/p99 with exact
    min/max), and the sampler's time-series columns.  Sections that
    recorded nothing are omitted; an all-off config renders a one-line
    marker so reports stay well-formed.

    Pass the run's :class:`~repro.replay.result.ReplayResult` as
    ``result`` to append a recovery section (respawns, redelivered and
    duplicate-merged records, workers lost for good) when any accrued.
    """
    sections = []

    if result is not None:
        recovery_rows = {
            "recovery.respawns": result.respawns,
            "recovery.redelivered_records": result.redelivered_records,
            "recovery.duplicate_merged": result.duplicate_merged,
            "recovery.workers_lost": result.workers_lost,
            "recovery.reassigned_queries": result.reassigned_queries,
        }
        rows = {key: str(value) for key, value in recovery_rows.items()
                if value}
        if rows:
            width = max(len(key) for key in rows)
            sections.append("\n".join(f"{key:<{width}}  {value}"
                                      for key, value in rows.items()))

    tracer = telemetry.tracer
    if tracer is not None:
        rows = {
            "trace.events": str(len(tracer.events)),
            "trace.spans_begun": str(tracer.spans_begun),
            "trace.spans_ended": str(tracer.spans_ended),
            "trace.sample_every": str(tracer.sample_every),
        }
        if tracer.dropped_events:
            rows["trace.dropped_events"] = str(tracer.dropped_events)
        width = max(len(key) for key in rows)
        sections.append("\n".join(f"{key:<{width}}  {value}"
                                  for key, value in rows.items()))

    summaries = telemetry.metrics.histogram_summaries()
    if summaries:
        lines = []
        for name, summary in summaries.items():
            lines.append(
                f"{name}: n={summary['count']} "
                f"p50={_quantile_cell(summary['p50'])} "
                f"p90={_quantile_cell(summary['p90'])} "
                f"p99={_quantile_cell(summary['p99'])} "
                f"min={_quantile_cell(summary['min'])} "
                f"max={_quantile_cell(summary['max'])}")
        sections.append("\n".join(lines))

    sampler = telemetry.sampler
    if sampler is not None and sampler.points:
        columns = [c for c in sampler.columns() if c != "time"]
        sections.append(f"timeseries: {len(sampler.points)} samples "
                        f"every {sampler.period:g}s of "
                        f"{', '.join(columns) or '(no probes)'}")

    if not sections:
        return "(telemetry off: nothing recorded)"
    return "\n\n".join(sections)


def _quantile_cell(value) -> str:
    return "-" if value is None else f"{value:.6g}"


def generate(experiments: Dict[str, Callable[[Scale], ExperimentOutput]],
             scale: Scale = SMOKE,
             names: Optional[Sequence[str]] = None) -> str:
    """Run the selected experiments and render the report."""
    selected = sorted(experiments) if names is None else list(names)
    outputs = []
    durations: Dict[str, float] = {}
    for name in selected:
        started = time.monotonic()
        outputs.append(experiments[name](scale))
        durations[name] = time.monotonic() - started
    return render_markdown(outputs, scale, durations)
