"""The telemetry hub: one object every pipeline layer reports into.

A :class:`Telemetry` instance is constructed from a
:class:`~repro.telemetry.tracing.TelemetryConfig` and handed to the
replay engine (which fans it out to queriers and the network) and the
hosted server (which fans it out to the overload pipeline and the
authoritative engine).  Each layer calls the hook matching what it just
did; the hub routes the observation to the tracer, the histogram
registry, or both, depending on what the config enabled.

Three invariants the differential tests rely on:

* **observation only** — no hook ever schedules work, mutates a packet,
  or feeds a decision back into the pipeline, so a traced replay is
  behaviourally identical to an untraced one;
* **zero cost when off** — with the default config no hub is attached
  anywhere (every call site is behind an ``is not None`` check), and
  layers that do hold a hub skip per-query hooks unless tracing or
  metrics was explicitly enabled;
* **one path** — a hub changes what is recorded, never which code runs:
  the hooks key on wire bytes, so a traced server answers from the
  zero-copy fast path and a traced querier sends through the batch
  path.  Overload admission (it needs a decoded query) and pacing are
  the only things that pick a path, with or without a hub.

The hub reads time from the sim event loop once attached
(:meth:`attach_loop`) and from the wall clock otherwise, so the same
object serves the simulated and live replay paths.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from ..dns.wire import question_key
from .metrics import MetricsRegistry
from .timeseries import TimeSeriesSampler
from .tracing import QueryTracer, TelemetryConfig


class Telemetry:
    """Run-wide telemetry state plus the lifecycle hook surface."""

    def __init__(self, config: Optional[TelemetryConfig] = None,
                 metrics: Optional[MetricsRegistry] = None):
        self.config = config if config is not None else TelemetryConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer: Optional[QueryTracer] = (
            QueryTracer(self.config.trace_sample)
            if self.config.trace else None)
        self.sampler: Optional[TimeSeriesSampler] = None
        self.loop = None
        self._clock: Callable[[], float] = time.monotonic
        # Probes registered before a sampler exists (e.g. a server built
        # before the engine attaches the loop) are parked here and
        # flushed onto the sampler when it is created.
        self._pending_probes: list = []

    @property
    def per_query(self) -> bool:
        """Whether any per-query hook should be installed at all."""
        return self.config.trace or self.config.metrics

    def now(self) -> float:
        return self._clock()

    # -- attachment -------------------------------------------------------

    def attach_loop(self, loop) -> None:
        """Adopt the sim clock; start the periodic sampler if configured."""
        if self.loop is loop:
            return
        self.loop = loop
        self._clock = lambda: loop.now
        if self.config.timeseries_period is not None \
                and self.sampler is None:
            self.sampler = TimeSeriesSampler(
                loop, self.config.timeseries_period)
            self._flush_probes()
            self.sampler.start()

    def attach_network(self, network) -> None:
        """Install this hub on the network's transmit path.

        Only done when tracing is on: the attribute stays None otherwise
        so the per-packet cost of telemetry-off remains one None check.
        """
        if self.tracer is not None:
            network.telemetry = self

    def add_probe(self, name: str, probe: Callable[[], float]) -> None:
        """Register a sampler column (deferred until a sampler exists)."""
        if self.sampler is not None:
            self.sampler.add_probe(name, probe)
        else:
            self._pending_probes.append((name, probe))

    def _flush_probes(self) -> None:
        for name, probe in self._pending_probes:
            self.sampler.add_probe(name, probe)
        self._pending_probes.clear()

    def stop(self) -> None:
        if self.sampler is not None:
            self.sampler.stop()

    # -- querier lifecycle hooks ------------------------------------------

    def on_send(self, entry, wire: Optional[bytes] = None) -> None:
        """A querier dispatched ``entry``; ``wire`` is the query bytes."""
        tracer = self.tracer
        if tracer is not None and tracer.sampled(entry.index):
            if wire is not None:
                tracer.register_key(question_key(wire), entry.index)
            tracer.begin(self.now(), entry.index, "query",
                         f"querier-{entry.querier_id}",
                         qname=entry.qname, protocol=entry.protocol,
                         source=entry.source)
        if self.config.metrics:
            self.metrics.incr("telemetry.queries_sent")

    def on_answer(self, entry) -> None:
        if self.config.metrics:
            latency = entry.latency
            if latency is not None:
                self.metrics.observe("query.latency_s", latency)
                self.metrics.observe(
                    f"query.latency_s.{entry.protocol}", latency)
        tracer = self.tracer
        if tracer is not None:
            tracer.end(self.now(), entry.index, "query",
                       f"querier-{entry.querier_id}", outcome="answered")

    def on_timeout(self, entry) -> None:
        if self.config.metrics:
            self.metrics.incr("telemetry.udp_timeouts")
        if self.tracer is not None:
            self.tracer.instant(self.now(), entry.index, "querier.timeout",
                                f"querier-{entry.querier_id}")

    def on_retry(self, entry, wire: Optional[bytes] = None) -> None:
        tracer = self.tracer
        if tracer is not None:
            if wire is not None and tracer.sampled(entry.index):
                # Re-register so late responses to the retry correlate.
                tracer.register_key(question_key(wire), entry.index)
            tracer.instant(self.now(), entry.index, "querier.retry",
                           f"querier-{entry.querier_id}",
                           retries=entry.retries)

    def on_tcp_fallback(self, entry) -> None:
        if self.tracer is not None:
            self.tracer.instant(self.now(), entry.index,
                                "querier.tcp_fallback",
                                f"querier-{entry.querier_id}")

    def on_giveup(self, entry) -> None:
        if self.config.metrics:
            self.metrics.incr("telemetry.gave_up")
        tracer = self.tracer
        if tracer is not None:
            tracer.end(self.now(), entry.index, "query",
                       f"querier-{entry.querier_id}", outcome="gave_up")

    # -- server-side hooks -------------------------------------------------

    def server_event(self, wire, name: str, **args) -> None:
        """An admission/RRL/cache decision for one query.

        ``wire`` is the query's wire, or its response's, which carries
        the same ID and question: the hook keys on bytes, so a server
        that never decodes the query reports it the same way.
        """
        tracer = self.tracer
        if tracer is not None:
            qid = tracer.qid_for(question_key(wire))
            if qid is not None:
                tracer.instant(self.now(), qid, name, "server", **args)
        if self.config.metrics:
            self.metrics.incr(f"telemetry.{name}")

    def on_server_response(self, key_wire, wire, transport: str) -> None:
        """The server sent ``wire``; ``key_wire`` is the query's wire,
        or ``wire`` itself, as for :meth:`server_event`."""
        if self.config.metrics:
            self.metrics.observe("server.response_bytes", float(len(wire)))
        tracer = self.tracer
        if tracer is not None:
            qid = tracer.qid_for(question_key(key_wire))
            if qid is not None:
                tracer.instant(self.now(), qid, "server.respond", "server",
                               bytes=len(wire), transport=transport)

    # -- network hooks -----------------------------------------------------

    def on_transmit(self, packet) -> None:
        """A packet entered the fabric (called only when tracing)."""
        tracer = self.tracer
        if tracer is None or packet.protocol != "udp":
            return
        data = packet.segment.data
        qid = tracer.qid_for(question_key(data))
        if qid is None:
            return
        direction = ("response" if len(data) > 2 and data[2] & 0x80
                     else "query")
        tracer.instant(self.now(), qid, f"net.transmit_{direction}",
                       "net", bytes=len(data))

    def on_net_drop(self, packet, reason: str) -> None:
        self._net_instant(packet, "net.drop", reason=reason)

    def on_fault(self, kind: str, packet) -> None:
        """A fault-injection verdict touched this packet."""
        self._net_instant(packet, "net.fault", kind=kind)

    def _net_instant(self, packet, name: str, **args) -> None:
        tracer = self.tracer
        if tracer is not None:
            qid = tracer.qid_for(question_key(packet.segment.data)) \
                if packet.protocol == "udp" else None
            tracer.instant(self.now(), qid, name, "net", **args)

    # -- analysis ----------------------------------------------------------

    def coverage(self, result) -> float:
        """Span coverage of a ReplayResult's answered queries."""
        if self.tracer is None:
            return 0.0
        return self.tracer.coverage(result.answered_count)

    def __repr__(self) -> str:
        parts = []
        if self.tracer is not None:
            parts.append(f"trace 1/{self.tracer.sample_every}")
        if self.config.metrics:
            parts.append("metrics")
        if self.config.timeseries_period is not None:
            parts.append(f"timeseries @{self.config.timeseries_period}s")
        return f"Telemetry({', '.join(parts) or 'off'})"
