"""Exporters: Chrome trace_event timelines, histogram JSON, series CSV.

``chrome_trace`` renders a :class:`~repro.telemetry.core.Telemetry`
run as the Trace Event Format consumed by ``chrome://tracing`` and
Perfetto: each query is one async event chain (``b``/``n``/``e``) whose
id is the query's trace index, with the querier/server/network actors
mapped to separate process lanes, and sampler columns rendered as
counter tracks.  Timestamps are sim (or wall) seconds scaled to the
format's microseconds.

The JSON/CSV dumps are deliberately plain: a dict per histogram with
bucket rows and extracted quantiles, and one CSV row per sampler tick —
both load into pandas/gnuplot without custom parsing.
"""

from __future__ import annotations

import io
import json
from typing import Dict, List

# Process lanes in the rendered timeline.
_PID_QUERIERS = 1
_PID_SERVER = 2
_PID_NETWORK = 3
_PID_COUNTERS = 4
_PROCESS_NAMES = {
    _PID_QUERIERS: "queriers",
    _PID_SERVER: "server",
    _PID_NETWORK: "network",
    _PID_COUNTERS: "load",
}


def _lane(track: str) -> Dict[str, int]:
    """Map an internal track name to a (pid, tid) lane."""
    if track.startswith("querier-"):
        try:
            tid = int(track.split("-", 1)[1])
        except ValueError:
            tid = 0
        return {"pid": _PID_QUERIERS, "tid": tid}
    if track == "server":
        return {"pid": _PID_SERVER, "tid": 0}
    return {"pid": _PID_NETWORK, "tid": 0}


def chrome_trace(telemetry) -> Dict:
    """The run as a Trace Event Format document (JSON-ready dict)."""
    events: List[Dict] = []
    for pid, name in _PROCESS_NAMES.items():
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": name}})

    tracer = telemetry.tracer
    if tracer is not None:
        for ts, phase, qid, name, track, args in tracer.events:
            event = {
                "name": name,
                "cat": "query",
                "ph": phase if phase != "i" else "n",
                "ts": ts * 1e6,
                "id": qid,
                **_lane(track),
            }
            if phase == "i" and qid is None:
                # Unattributed point events (e.g. a fault verdict on an
                # unsampled packet) render as plain instants.
                event["ph"] = "i"
                event["s"] = "p"
                del event["id"]
            if args:
                event["args"] = args
            events.append(event)

    sampler = telemetry.sampler
    if sampler is not None:
        for row in sampler.points:
            ts = row["time"] * 1e6
            for name, value in row.items():
                if name == "time":
                    continue
                events.append({"name": name, "ph": "C", "ts": ts,
                               "pid": _PID_COUNTERS, "tid": 0,
                               "args": {"value": value}})

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, telemetry) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(telemetry), handle)


def histograms_dict(registry) -> Dict[str, Dict]:
    """All histograms of a MetricsRegistry as one JSON-ready mapping."""
    return registry.histogram_summaries()


def write_histograms_json(path: str, registry) -> None:
    with open(path, "w") as handle:
        json.dump(histograms_dict(registry), handle, indent=2,
                  sort_keys=True)


def timeseries_csv(sampler) -> str:
    """Sampler rows as CSV: a ``time`` column plus one per probe."""
    columns = sampler.columns()
    if "time" in columns:
        columns = ["time"] + [c for c in columns if c != "time"]
    out = io.StringIO()
    out.write(",".join(columns) + "\n")
    for row in sampler.points:
        out.write(",".join(_cell(row.get(column)) for column in columns)
                  + "\n")
    return out.getvalue()


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def write_timeseries_csv(path: str, sampler) -> None:
    with open(path, "w") as handle:
        handle.write(timeseries_csv(sampler))
