"""Per-query lifecycle tracing: spans, instants, and query correlation.

A replayed query crosses four actors — querier, simulated network,
server front-end, and the authoritative engine — none of which share an
object for it.  The :class:`QueryTracer` stitches those hops back into
one timeline per query: the querier opens a span when it dispatches,
every later layer attaches instant events (transmit, fault verdict,
admission decision, cache hit, response), and the querier closes the
span on receive/giveup.

Correlation uses the same key the queriers match responses with,
:func:`repro.dns.wire.question_key`: ``(message id, lowercased qname
wire bytes, qtype)``.  The querier registers ``key -> qid`` at send
time; the server and network derive the identical key from the wire
they see.  ``qid`` is the trace record index, stable across runs of
the same trace.

Sampling keeps the recorder cheap: with ``sample_every == n`` only
queries whose qid is divisible by ``n`` are recorded, and unsampled
queries cost one dict miss per event.  With tracing disabled nothing
here is ever constructed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dns.wire import QueryKey


@dataclass
class TelemetryConfig:
    """What the telemetry subsystem records.  Defaults record nothing.

    ``trace`` enables per-query lifecycle spans, keeping 1-in-
    ``trace_sample`` queries (1 = all).  ``metrics`` enables latency and
    size histograms.  ``timeseries_period`` (seconds) turns on the
    periodic load sampler.

    ``stream_period`` (seconds) turns on *cluster* streaming: worker
    processes in a multi-process topology periodically ship TELEMETRY
    frames (cumulative metrics, health gauges, incremental spans, and
    the flight-recorder tail) to the controller, which aggregates them
    live (:mod:`repro.telemetry.cluster`).  Each frame carries the
    worker's flight-recorder ring of recent spans/log lines — the
    controller keeps the last ring it saw, so a SIGKILLed worker's final
    milliseconds survive in the crash report.
    """

    trace: bool = False
    trace_sample: int = 1
    metrics: bool = False
    timeseries_period: Optional[float] = None
    stream_period: Optional[float] = None

    def enabled(self) -> bool:
        return (self.trace or self.metrics
                or self.timeseries_period is not None
                or self.stream_period is not None)

    def streaming(self) -> bool:
        return self.stream_period is not None and self.stream_period > 0


# One lifecycle event: (timestamp, phase, qid, name, track, args).
# phase is "b"/"e" for span begin/end or "i" for an instant;
# track names the actor lane ("querier:3", "server", "net").
TraceEvent = Tuple[float, str, Optional[int], str, str, Optional[dict]]

class QueryTracer:
    """Records sampled per-query span/instant events for later export."""

    def __init__(self, sample_every: int = 1,
                 max_events: int = 2_000_000):
        self.sample_every = max(1, int(sample_every))
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.dropped_events = 0
        self.spans_begun = 0
        self.spans_ended = 0
        self._keys: Dict[QueryKey, int] = {}
        self._open: set = set()

    # -- correlation ------------------------------------------------------

    def sampled(self, qid: int) -> bool:
        return self.sample_every == 1 or qid % self.sample_every == 0

    def register_key(self, key: Optional[QueryKey], qid: int) -> None:
        """Remember ``key -> qid`` so later layers can attribute events.

        Retransmissions re-register the same key; the latest send wins,
        which is also how the querier's own response matching behaves.
        """
        if key is not None:
            self._keys[key] = qid

    def qid_for(self, key: Optional[QueryKey]) -> Optional[int]:
        return self._keys.get(key)  # None is never registered

    # -- recording --------------------------------------------------------

    def _record(self, event: TraceEvent) -> None:
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            return
        self.events.append(event)

    def begin(self, ts: float, qid: int, name: str, track: str,
              **args) -> None:
        """Open the query's lifecycle span (idempotent per qid)."""
        if not self.sampled(qid) or qid in self._open:
            return
        self._open.add(qid)
        self.spans_begun += 1
        self._record((ts, "b", qid, name, track, args or None))

    def end(self, ts: float, qid: int, name: str, track: str,
            **args) -> None:
        """Close the query's span.  Duplicate closes (e.g. a retry's

        late response arriving after the first answer) are ignored."""
        if qid not in self._open:
            return
        self._open.discard(qid)
        self.spans_ended += 1
        self._record((ts, "e", qid, name, track, args or None))

    def instant(self, ts: float, qid: Optional[int], name: str,
                track: str, **args) -> None:
        """Attach a point event; qid None records an unattributed one."""
        if qid is not None and not self.sampled(qid):
            return
        self._record((ts, "i", qid, name, track, args or None))

    # -- analysis ---------------------------------------------------------

    def coverage(self, answered: int) -> float:
        """Fraction of ``answered`` queries with a closed span.

        With sampling, only every ``sample_every``-th query is eligible,
        so coverage is measured against the expected sampled count.
        """
        expected = answered if self.sample_every == 1 else \
            len(range(0, answered, self.sample_every))
        if expected == 0:
            return 1.0
        return min(1.0, self.spans_ended / expected)

    def events_for(self, qid: int) -> List[TraceEvent]:
        return [event for event in self.events if event[2] == qid]

    def __repr__(self) -> str:
        return (f"QueryTracer({len(self.events)} events, "
                f"{self.spans_begun} spans begun, "
                f"{self.spans_ended} ended)")
