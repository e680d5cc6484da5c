"""Observability for the replay pipeline: tracing, metrics, time series.

One subsystem, three recorders, all driven by one
:class:`TelemetryConfig` whose defaults record nothing:

* :class:`QueryTracer` — per-query lifecycle spans across querier,
  network, and server, exportable as a Chrome ``trace_event`` timeline;
* :class:`MetricsRegistry` — counters/timings/gauges, the one
  registry every component counts into, plus log-bucketed
  :class:`Histogram` distributions with quantile extraction;
* :class:`TimeSeriesSampler` — periodic load series (qps, queue
  depth, CPU, memory) on the sim clock, with :class:`ResourceTimeline`
  adapting the server resource model.

Multi-process runs add the cluster layer (``stream_period`` in the
config): each worker's :class:`TelemetryStreamer` ships periodic
``MSG_TELEMETRY`` frames (metrics, health, spans, and a
:class:`FlightRecorder` ring of its last milliseconds) which the
controller's :class:`ClusterAggregator` merges into live windowed
views, an ``ldplayer top`` console, crash postmortems, and one
clock-aligned Chrome trace for the whole topology.

Construct a :class:`Telemetry` hub from a config and pass it to
``SimReplayEngine``/``HostedDnsServer`` (sim) or
``ProcessTopology`` (live); export with
:func:`write_chrome_trace`, :func:`write_histograms_json`,
:func:`write_timeseries_csv`, or ``report.render_telemetry``.
"""

from .cluster import (ClusterAggregator, ClusterConsole, FlightRecorder,
                      TelemetryStreamer, WorkerView)
from .core import Telemetry
from .export import (chrome_trace, histograms_dict, timeseries_csv,
                     write_chrome_trace, write_histograms_json,
                     write_timeseries_csv)
from .metrics import Histogram, MetricsRegistry
from .timeseries import ResourceTimeline, TimeSeriesSampler
from .tracing import QueryTracer, TelemetryConfig

__all__ = [
    "Telemetry",
    "TelemetryConfig",
    "QueryTracer",
    "ClusterAggregator",
    "ClusterConsole",
    "FlightRecorder",
    "TelemetryStreamer",
    "WorkerView",
    "MetricsRegistry",
    "Histogram",
    "TimeSeriesSampler",
    "ResourceTimeline",
    "chrome_trace",
    "write_chrome_trace",
    "histograms_dict",
    "write_histograms_json",
    "timeseries_csv",
    "write_timeseries_csv",
]
