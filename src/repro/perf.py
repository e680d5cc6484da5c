"""Performance counters for the replay pipeline's hot paths.

.. deprecated::
    ``PerfCounters`` is now a thin facade over
    :class:`repro.telemetry.MetricsRegistry`, kept for the existing
    call sites and their tests.  New code should use a registry from
    :mod:`repro.telemetry` directly (or a :class:`Telemetry` hub, which
    owns one) — the registry has the same counter/timing/gauge API plus
    histograms with quantile extraction.

The paper's evaluation leans on throughput numbers (Fig 9's 87 k q/s
single-host replay); this repro needs the same kind of visibility to
prove its own hot-path optimizations and to gate regressions.  A
:class:`PerfCounters` registry collects three kinds of measurements:

* **counters** — monotonically increasing event counts (cache hits,
  messages encoded, events processed),
* **timings** — accumulated wall-clock seconds per named phase
  (``with perf.timed("replay.run"): ...``),
* **gauges** — last-written values (events/sec of the latest run).

Counters are cheap (one dict add per event) so they can live on the
per-query path; timings use ``time.perf_counter`` and belong around
phases, not individual queries.  Components construct a private
registry when none is passed, so runs never interfere; an experiment
that wants one merged view passes a single registry to every
component, or calls :meth:`PerfCounters.merge` afterwards.

Wall-clock measurement never feeds back into simulated behaviour — the
discrete-event clock stays deterministic; counters only *observe*.
"""

from __future__ import annotations


from .telemetry.metrics import MetricsRegistry


class PerfCounters(MetricsRegistry):
    """The legacy counter registry, backed by the telemetry metrics core.

    Every measurement lands in an underlying
    :class:`~repro.telemetry.MetricsRegistry` (``self`` — the facade is
    the registry), so code that still holds a ``PerfCounters`` and code
    using telemetry metrics share one storage model and one snapshot
    format.  ``registry`` exposes the instance under its new name for
    call sites migrating off this class.
    """

    @property
    def registry(self) -> MetricsRegistry:
        return self

    def merge(self, other: "MetricsRegistry") -> None:
        # Accepts either a PerfCounters or a bare MetricsRegistry.
        super().merge(other)

    def __repr__(self) -> str:
        return (f"PerfCounters({len(self._counts)} counters, "
                f"{len(self._timings)} timings, {len(self._gauges)} gauges)")

