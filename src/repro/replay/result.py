"""Replay results: per-query send/response bookkeeping and analysis.

Two accounting modes share one class:

* **list mode** (default): every send is a :class:`SentQuery` kept in
  :attr:`ReplayResult.sent` — exact §4.2 quartiles, per-query forensics,
  O(queries) memory.  Right for experiments up to ~10⁶ queries.
* **aggregate mode** (``ReplayResult(aggregate=True)``): sends fold
  into counters, log-spaced latency/error histograms, and per-second
  rate buckets the moment they happen — O(1) per query, O(run seconds)
  total.  This is what lets a 10⁸-query streamed replay keep RSS flat:
  neither the workers nor the controller ever hold per-query state, and
  RESULT frames stay a few KB regardless of shard size.

Aggregate results merge commutatively (counter sums, histogram-bin
sums, min/max folds), so a streaming controller can merge each worker's
RESULT frame on arrival instead of buffering all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..trace.stats import quartile_summary


@dataclass
class SentQuery:
    """Fate of one replayed query."""

    index: int                 # position in the input trace
    source: str                # original client address
    trace_time: float          # timestamp in the input trace
    scheduled_at: float        # clock time the timer aimed for
    sent_at: float             # clock time the query left the querier
    protocol: str
    qname: str
    answered_at: Optional[float] = None
    fresh_connection: bool = False
    querier_id: int = -1
    # Recovery bookkeeping (repro.netsim.faults.RetryPolicy).
    retries: int = 0           # times this query was re-sent
    timeouts: int = 0          # per-try timeouts observed
    tcp_fallback: bool = False  # UDP query that fell back to TCP
    gave_up: bool = False      # retry budget exhausted, still unanswered

    @property
    def latency(self) -> Optional[float]:
        if self.answered_at is None:
            return None
        return self.answered_at - self.sent_at

    def to_dict(self) -> Dict:
        """A JSON-safe mapping (the inter-process RESULT frame).

        Built field by field, in declaration order: every field is a
        scalar, and ``dataclasses.asdict`` would deep-copy its way
        through each one on the final-RESULT path of both planes.
        """
        return {
            "index": self.index, "source": self.source,
            "trace_time": self.trace_time,
            "scheduled_at": self.scheduled_at, "sent_at": self.sent_at,
            "protocol": self.protocol, "qname": self.qname,
            "answered_at": self.answered_at,
            "fresh_connection": self.fresh_connection,
            "querier_id": self.querier_id, "retries": self.retries,
            "timeouts": self.timeouts, "tcp_fallback": self.tcp_fallback,
            "gave_up": self.gave_up,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SentQuery":
        return cls(**data)


# Every integer event counter a ReplayResult carries; merge() sums
# these, and the wire serialization round-trips exactly this set.
_COUNTER_FIELDS = (
    "unmatched_responses", "send_failures", "udp_timeouts", "retries",
    "duplicate_responses", "reconnects", "tcp_fallbacks",
    "reassigned_queries", "gave_up", "servfails_observed",
    "paced_queries", "pace_rate_cuts", "backpressure_pauses",
    "watchdog_stalls", "deadline_shed",
    "respawns", "redelivered_records", "duplicate_merged",
)


# Log-spaced histogram bins: bin k covers [2**k, 2**(k+1)) microseconds.
# ~40 bins span 1 µs to 20 minutes — plenty for latency or |time error|.
def _log_bin(seconds: float) -> int:
    micros = seconds * 1e6
    if micros < 1.0:
        return 0
    return min(int(math.log2(micros)) + 1, 40)


class ReplayResult:
    """Accumulates sent queries; computes the §4 accuracy metrics."""

    def __init__(self, name: str = "replay", aggregate: bool = False):
        self.name = name
        self.aggregate = aggregate
        self.sent: List[SentQuery] = []
        self.start_clock: Optional[float] = None
        self.trace_start: Optional[float] = None
        # Aggregate-mode accumulators (all O(1) or O(run seconds)).
        self.sent_count = 0
        self.answered_count = 0
        self.latency_hist: Dict[int, int] = {}
        self.latency_sum = 0.0
        self.latency_min: Optional[float] = None
        self.latency_max: Optional[float] = None
        self.error_count = 0
        self.error_sum = 0.0
        self.error_sumsq = 0.0
        self.error_min: Optional[float] = None
        self.error_max: Optional[float] = None
        self.protocol_counts: Dict[str, int] = {}
        self.fresh_connections = 0
        self.first_sent_at: Optional[float] = None
        self.last_sent_at: Optional[float] = None
        self.rate_buckets: Dict[int, int] = {}
        self.unmatched_responses = 0
        self.send_failures = 0
        # Failure/recovery event counters (fault injection & recovery).
        self.udp_timeouts = 0          # per-try UDP timeouts fired
        self.retries = 0               # query re-sends (UDP and stream)
        self.duplicate_responses = 0   # responses for already-answered tries
        self.reconnects = 0            # stream channels reopened mid-flight
        self.tcp_fallbacks = 0         # UDP queries switched to TCP
        self.reassigned_queries = 0    # rerouted off a crashed querier
        self.gave_up = 0               # retry budgets exhausted
        # Degradation counters (overload cooperation & supervision).
        self.servfails_observed = 0    # SERVFAIL responses received
        self.paced_queries = 0         # sends delayed by the AIMD pacer
        self.pace_rate_cuts = 0        # multiplicative-decrease events
        self.backpressure_pauses = 0   # sends held at the TCP high-water
        self.watchdog_stalls = 0       # queriers terminated by the watchdog
        self.deadline_shed = 0         # queries shed past the replay deadline
        # Self-healing counters (crash recovery & checkpointed merge).
        self.respawns = 0              # worker processes respawned
        self.redelivered_records = 0   # trace records re-streamed after loss
        self.duplicate_merged = 0      # duplicate sends dropped by the merge

    def add(self, query: SentQuery) -> None:
        if self.aggregate:
            # Fold and forget: the query object is not retained.  Live
            # engines should prefer count_send/count_answer (a send's
            # answer arrives later); add() here serves offline folds of
            # already-final entries.
            self.count_send(query.protocol, query.trace_time,
                            query.sent_at, query.fresh_connection)
            if query.answered_at is not None and query.latency is not None:
                self.count_answer(query.latency)
            return
        self.sent.append(query)

    # -- aggregate-mode accounting -----------------------------------------

    def count_send(self, protocol: str, trace_time: float, sent_at: float,
                   fresh_connection: bool = False) -> None:
        """O(1) send accounting for aggregate mode."""
        self.sent_count += 1
        self.protocol_counts[protocol] = \
            self.protocol_counts.get(protocol, 0) + 1
        if fresh_connection:
            self.fresh_connections += 1
        if self.first_sent_at is None or sent_at < self.first_sent_at:
            self.first_sent_at = sent_at
        if self.last_sent_at is None or sent_at > self.last_sent_at:
            self.last_sent_at = sent_at
        bucket = int(sent_at)
        self.rate_buckets[bucket] = self.rate_buckets.get(bucket, 0) + 1
        base_clock = self.start_clock if self.start_clock is not None \
            else sent_at
        base_trace = self.trace_start if self.trace_start is not None \
            else trace_time
        error = (sent_at - base_clock) - (trace_time - base_trace)
        self.error_count += 1
        self.error_sum += error
        self.error_sumsq += error * error
        if self.error_min is None or error < self.error_min:
            self.error_min = error
        if self.error_max is None or error > self.error_max:
            self.error_max = error

    def count_answer(self, latency: float) -> None:
        """O(1) response accounting for aggregate mode."""
        self.answered_count += 1
        self.latency_sum += latency
        bin_ = _log_bin(latency)
        self.latency_hist[bin_] = self.latency_hist.get(bin_, 0) + 1
        if self.latency_min is None or latency < self.latency_min:
            self.latency_min = latency
        if self.latency_max is None or latency > self.latency_max:
            self.latency_max = latency

    # -- §4.2 metrics ------------------------------------------------------

    def send_time_errors(self, skip_seconds: float = 0.0) -> List[float]:
        """Per-query error: (actual send offset) − (trace offset).

        The paper ignores the first 20 s of replay to avoid startup
        transients; pass ``skip_seconds`` for the same effect.
        """
        if not self.sent:
            return []
        base_clock = self.start_clock if self.start_clock is not None \
            else self.sent[0].sent_at
        base_trace = self.trace_start if self.trace_start is not None \
            else self.sent[0].trace_time
        errors = []
        for query in self.sent:
            if query.trace_time - base_trace < skip_seconds:
                continue
            errors.append((query.sent_at - base_clock)
                          - (query.trace_time - base_trace))
        return errors

    def interarrivals(self) -> List[float]:
        times = sorted(q.sent_at for q in self.sent)
        return [b - a for a, b in zip(times, times[1:])]

    def per_second_rates(self) -> List[Tuple[int, int]]:
        if self.aggregate:
            if not self.rate_buckets:
                return []
            base = min(self.rate_buckets)
            return sorted((bucket - base, count)
                          for bucket, count in self.rate_buckets.items())
        if not self.sent:
            return []
        base = min(q.sent_at for q in self.sent)
        buckets: Dict[int, int] = {}
        for query in self.sent:
            bucket = int(query.sent_at - base)
            buckets[bucket] = buckets.get(bucket, 0) + 1
        return sorted(buckets.items())

    def latencies(self, sources: Optional[set] = None) -> List[float]:
        return [q.latency for q in self.sent
                if q.latency is not None
                and (sources is None or q.source in sources)]

    def answered_fraction(self) -> float:
        if self.aggregate:
            if not self.sent_count:
                return 0.0
            return self.answered_count / self.sent_count
        if not self.sent:
            return 0.0
        return sum(1 for q in self.sent
                   if q.answered_at is not None) / len(self.sent)

    def unanswered(self) -> int:
        """Queries sent but never answered (checked at drain time).

        A lossy run cannot masquerade as complete: any stranded query
        shows up here even when no retry policy was configured.
        """
        if self.aggregate:
            return self.sent_count - self.answered_count
        return sum(1 for q in self.sent if q.answered_at is None)

    def latency_summary(self) -> Dict[str, float]:
        """Latency stats that work in both modes.

        Aggregate mode reports exact count/mean/min/max plus histogram
        percentiles (each within its power-of-two bin); list mode
        computes them exactly.
        """
        if not self.aggregate:
            values = self.latencies()
            if not values:
                return {}
            summary = quartile_summary(values)
            summary["count"] = float(len(values))
            summary["mean"] = sum(values) / len(values)
            return summary
        if not self.answered_count:
            return {}
        summary = {
            "count": float(self.answered_count),
            "mean": self.latency_sum / self.answered_count,
            "min": self.latency_min, "max": self.latency_max,
        }
        # Percentiles from the histogram: the upper edge of the bin
        # the rank falls in (conservative to within the bin width).
        targets = {"p25": 0.25, "median": 0.50, "p75": 0.75, "p99": 0.99}
        ranks = {key: fraction * self.answered_count
                 for key, fraction in targets.items()}
        seen = 0
        for bin_ in sorted(self.latency_hist):
            seen += self.latency_hist[bin_]
            for key, rank in list(ranks.items()):
                if seen >= rank:
                    summary[key] = (2.0 ** bin_) * 1e-6
                    del ranks[key]
        return summary

    def unanswered_queries(self) -> List[SentQuery]:
        return [q for q in self.sent if q.answered_at is None]

    def failure_counts(self) -> Dict[str, int]:
        """Every failure/recovery event counter, for reports."""
        return {
            "unanswered": self.unanswered(),
            "udp_timeouts": self.udp_timeouts,
            "retries": self.retries,
            "duplicate_responses": self.duplicate_responses,
            "reconnects": self.reconnects,
            "tcp_fallbacks": self.tcp_fallbacks,
            "reassigned_queries": self.reassigned_queries,
            "gave_up": self.gave_up,
            "unmatched_responses": self.unmatched_responses,
            "send_failures": self.send_failures,
            "respawns": self.respawns,
            "redelivered_records": self.redelivered_records,
            "duplicate_merged": self.duplicate_merged,
        }

    def degradation(self) -> Dict[str, int]:
        """How the replay degraded under overload; all zero when healthy.

        Complements :meth:`failure_counts` (fault recovery) with the
        overload-cooperation side: observed SERVFAILs, pacing backoff,
        transport backpressure, and supervision outcomes.  A truthful
        ``ReplayResult`` accounts for every query — shed ones included.
        """
        return {
            "servfails_observed": self.servfails_observed,
            "paced_queries": self.paced_queries,
            "pace_rate_cuts": self.pace_rate_cuts,
            "backpressure_pauses": self.backpressure_pauses,
            "watchdog_stalls": self.watchdog_stalls,
            "deadline_shed": self.deadline_shed,
        }

    # -- aggregation (multi-process shard merge) ---------------------------

    def merge(self, other: "ReplayResult") -> "ReplayResult":
        """Fold another result (a per-worker shard) into this one.

        Sent entries are re-indexed past this result's current tail so
        indices stay unique in the aggregate (each worker numbers its
        shard from zero); every event counter is summed; clocks keep the
        earliest non-None value so §4.2 offsets stay anchored to the
        run's true start.  Returns self for chaining.
        """
        if self.aggregate:
            self._merge_aggregate(other)
        else:
            if other.aggregate:
                raise ValueError(
                    "cannot merge an aggregate result into a list-mode "
                    "result (per-query entries were never recorded); "
                    "merge in the other direction")
            base = len(self.sent)
            for query in other.sent:
                query.index += base
                self.sent.append(query)
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.start_clock is not None:
            self.start_clock = other.start_clock \
                if self.start_clock is None \
                else min(self.start_clock, other.start_clock)
        if other.trace_start is not None:
            self.trace_start = other.trace_start \
                if self.trace_start is None \
                else min(self.trace_start, other.trace_start)
        return self

    def _merge_aggregate(self, other: "ReplayResult") -> None:
        if not other.aggregate:
            # Fold a list-mode shard into aggregate accumulators —
            # workers may run classic accounting while the controller
            # aggregates.
            for query in other.sent:
                self.add(query)
            return
        self.sent_count += other.sent_count
        self.answered_count += other.answered_count
        self.latency_sum += other.latency_sum
        for bin_, count in other.latency_hist.items():
            self.latency_hist[bin_] = self.latency_hist.get(bin_, 0) + count
        self.error_count += other.error_count
        self.error_sum += other.error_sum
        self.error_sumsq += other.error_sumsq
        for protocol, count in other.protocol_counts.items():
            self.protocol_counts[protocol] = \
                self.protocol_counts.get(protocol, 0) + count
        self.fresh_connections += other.fresh_connections
        for bucket, count in other.rate_buckets.items():
            self.rate_buckets[bucket] = \
                self.rate_buckets.get(bucket, 0) + count
        for mine, theirs, fold in (
                ("latency_min", other.latency_min, min),
                ("latency_max", other.latency_max, max),
                ("error_min", other.error_min, min),
                ("error_max", other.error_max, max),
                ("first_sent_at", other.first_sent_at, min),
                ("last_sent_at", other.last_sent_at, max)):
            if theirs is not None:
                current = getattr(self, mine)
                setattr(self, mine,
                        theirs if current is None else fold(current, theirs))

    def to_dict(self, entries: Optional[Iterable[SentQuery]] = None
                ) -> Dict:
        """A JSON-safe mapping (the inter-process RESULT frame).

        An aggregate result serializes its accumulators — a few KB no
        matter how many queries it covers — where a list-mode result's
        frame grows with every sent entry.  ``entries`` restricts a
        list-mode frame to those entries under the same cumulative
        header (counters, clocks): the shape of a delta CHECKPOINT.
        """
        data = {
            "name": self.name,
            "start_clock": self.start_clock,
            "trace_start": self.trace_start,
            "counters": {name: getattr(self, name)
                         for name in _COUNTER_FIELDS},
        }
        if self.aggregate:
            data["aggregate"] = {
                "sent_count": self.sent_count,
                "answered_count": self.answered_count,
                "latency_sum": self.latency_sum,
                "latency_min": self.latency_min,
                "latency_max": self.latency_max,
                "latency_hist": {str(bin_): count for bin_, count
                                 in self.latency_hist.items()},
                "error_count": self.error_count,
                "error_sum": self.error_sum,
                "error_sumsq": self.error_sumsq,
                "error_min": self.error_min,
                "error_max": self.error_max,
                "protocol_counts": dict(self.protocol_counts),
                "fresh_connections": self.fresh_connections,
                "first_sent_at": self.first_sent_at,
                "last_sent_at": self.last_sent_at,
                "rate_buckets": {str(bucket): count for bucket, count
                                 in self.rate_buckets.items()},
            }
        else:
            data["sent"] = [query.to_dict() for query in
                            (self.sent if entries is None else entries)]
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ReplayResult":
        aggregate = data.get("aggregate")
        result = cls(data.get("name", "replay"),
                     aggregate=aggregate is not None)
        result.start_clock = data.get("start_clock")
        result.trace_start = data.get("trace_start")
        for name, value in data.get("counters", {}).items():
            if name in _COUNTER_FIELDS:
                setattr(result, name, value)
        if aggregate is not None:
            for key in ("sent_count", "answered_count", "latency_sum",
                        "latency_min", "latency_max", "error_count",
                        "error_sum", "error_sumsq", "error_min",
                        "error_max", "fresh_connections", "first_sent_at",
                        "last_sent_at"):
                if key in aggregate:
                    setattr(result, key, aggregate[key])
            result.latency_hist = {int(bin_): count for bin_, count in
                                   aggregate.get("latency_hist", {}).items()}
            result.protocol_counts = dict(
                aggregate.get("protocol_counts", {}))
            result.rate_buckets = {int(bucket): count for bucket, count in
                                   aggregate.get("rate_buckets", {}).items()}
        for entry in data.get("sent", ()):
            result.sent.append(SentQuery.from_dict(entry))
        return result

    def reuse_fraction(self) -> float:
        """Share of TCP/TLS queries that reused an open connection."""
        stream = [q for q in self.sent if q.protocol in ("tcp", "tls")]
        if not stream:
            return 0.0
        return sum(1 for q in stream if not q.fresh_connection) / len(stream)

    def error_summary(self, skip_seconds: float = 0.0) -> Dict[str, float]:
        if self.aggregate:
            # skip_seconds needs per-query times; aggregate mode folds
            # every send, so the summary covers the whole run.
            if not self.error_count:
                return {}
            mean = self.error_sum / self.error_count
            variance = max(0.0,
                           self.error_sumsq / self.error_count - mean * mean)
            return {"count": float(self.error_count), "mean": mean,
                    "min": self.error_min, "max": self.error_max,
                    "stddev": math.sqrt(variance)}
        errors = self.send_time_errors(skip_seconds)
        if not errors:
            return {}
        return quartile_summary(errors)

    def __len__(self) -> int:
        if self.aggregate:
            return self.sent_count
        return len(self.sent)
