"""Replay results: per-query send/response bookkeeping and analysis.

Two accounting modes share one class:

* **list mode** (default): every send is a :class:`SentQuery` kept in
  :attr:`ReplayResult.sent` — exact §4.2 quartiles, per-query forensics,
  O(queries) memory.  Right for experiments up to ~10⁶ queries.
* **aggregate mode** (``ReplayResult(aggregate=True)``): each send and
  answer folds the moment it happens into four folds: sends per
  protocol (``protocol_counts``), sends per clock second
  (``rate_buckets``), and two :class:`~repro.telemetry.metrics.Histogram`
  s, answered latencies (``latency``) and §4.2 send-time errors
  (``send_error``) — O(1) per query, O(run seconds) total.  This is
  what lets a 10⁸-query streamed replay keep RSS flat: neither the
  workers nor the controller ever hold per-query state, and RESULT
  frames stay a few KB regardless of shard size.  Its latency
  percentiles are histogram quantiles, good to one 1.25× bucket; its
  counts, means, extremes and standard deviations are exact.

Results merge commutatively — list entries upsert by global trace
index, aggregate folds by count sums and histogram merges — so the
controller's one merge takes workers' reports in any order, and an
index reported twice is kept once.

On the wire (:meth:`ReplayResult.to_dict`, the RESULT and CHECKPOINT
frames) a list-mode result's entries are the ``sent`` **table**: one
JSON list per :class:`SentQuery` field, all of one length, row ``i`` of
every column being entry ``i``.  The required columns (index, source,
trace_time, scheduled_at, sent_at, protocol, qname) are always there;
an optional column is left out exactly when every value in it is the
field's default.  A table costs a fraction of the per-entry objects it
replaces to encode, to check (one type test per column, not per field
of every entry; :func:`repro.replay.protocol.validate_result_payload`)
and to decode (one ``zip``).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from itertools import repeat, starmap
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, \
    Sequence, Tuple

from ..telemetry.metrics import Histogram
from ..trace.stats import quartile_summary


@dataclass(slots=True)
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


# The ``sent`` table: one column per SentQuery field, in declaration
# order.  A row is the field values of one entry, in the same order.
SENT_FIELDS = tuple(field.name for field in fields(SentQuery))
# An optional column is left out when every value in it is this default.
SENT_DEFAULTS = {field.name: field.default for field in fields(SentQuery)
                 if field.default is not MISSING}
sent_row = attrgetter(*SENT_FIELDS)     # SentQuery -> row
_ANSWERED_AT, _SENT_AT, _QUERIER_ID = (
    SENT_FIELDS.index(name)
    for name in ("answered_at", "sent_at", "querier_id"))


def sent_table(rows: Iterable[tuple]) -> Dict[str, list]:
    """The ``sent`` table of ``rows``: every required column, and each
    optional column holding a value other than its default."""
    columns = list(zip(*rows)) or [()] * len(SENT_FIELDS)
    return {name: list(column)
            for name, column in zip(SENT_FIELDS, columns)
            if name not in SENT_DEFAULTS
            or column.count(SENT_DEFAULTS[name]) != len(column)}


def sent_rows(table: Mapping[str, list]) -> Iterator[tuple]:
    """The rows of a (validated) ``sent`` table, in table order; an
    absent optional column reads as its default."""
    return zip(*(table[name] if name in table
                 else repeat(SENT_DEFAULTS[name])
                 for name in SENT_FIELDS))


def merge_rank(row: tuple) -> Tuple[int, float, int]:
    """Which of two copies of one trace index a merge keeps: the lower
    rank — answered before unanswered, then the earliest send, then the
    lowest querier id.  ``row`` is a ``sent`` table row.  A total order
    on what a copy reports, so the choice does not depend on the order
    the copies arrive in."""
    return (0 if row[_ANSWERED_AT] is not None else 1, row[_SENT_AT],
            row[_QUERIER_ID])


# Every integer event counter a ReplayResult carries; merge() sums
# these, and the wire serialization round-trips exactly this set.
_COUNTER_FIELDS = (
    "unmatched_responses", "send_failures", "udp_timeouts", "retries",
    "duplicate_responses", "reconnects", "tcp_fallbacks",
    "reassigned_queries", "gave_up", "servfails_observed",
    "paced_queries", "pace_rate_cuts", "backpressure_pauses",
    "workers_lost", "deadline_shed",
    "respawns", "redelivered_records", "duplicate_merged",
)


class ReplayResult:
    """Accumulates sent queries; computes the §4 accuracy metrics."""

    def __init__(self, name: str = "replay", aggregate: bool = False):
        self.name = name
        self.aggregate = aggregate
        self.sent: List[SentQuery] = []
        self.start_clock: Optional[float] = None
        self.trace_start: Optional[float] = None
        # The aggregate-mode folds (all O(1) or O(run seconds)).
        self.protocol_counts: Dict[str, int] = {}
        self.rate_buckets: Dict[int, int] = {}   # sends per clock second
        self.latency = Histogram()      # answered latencies
        self.send_error = Histogram()   # §4.2 send-time errors
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
        self.workers_lost = 0          # workers lost for good
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
            self.count_send(query.protocol, query.trace_time, query.sent_at)
            if query.answered_at is not None and query.latency is not None:
                self.count_answer(query.latency)
            return
        self.sent.append(query)

    # -- aggregate-mode accounting -----------------------------------------

    @property
    def sent_count(self) -> int:
        """Sends an aggregate result has folded."""
        return self.send_error.count

    @property
    def answered_count(self) -> int:
        """Answers an aggregate result has folded."""
        return self.latency.count

    def count_send(self, protocol: str, trace_time: float,
                   sent_at: float) -> None:
        """O(1) send accounting for aggregate mode: a one-send fold."""
        self.count_sends(protocol, ((trace_time, sent_at),))

    def count_answer(self, latency: float) -> None:
        """O(1) response accounting for aggregate mode: a one-answer fold."""
        self.count_answers((latency,))

    def count_sends(self, protocol: str,
                    sends: Sequence[Tuple[float, float]]) -> None:
        """Fold a block of ``(trace_time, sent_at)`` sends, in order.

        The one send accumulator: every fold ends where one call per
        send, in the same order, would leave it.
        """
        if not sends:
            return
        self.protocol_counts[protocol] = \
            self.protocol_counts.get(protocol, 0) + len(sends)
        start_clock, trace_start = self.start_clock, self.trace_start
        buckets, errors = self.rate_buckets, []
        append = errors.append
        for trace_time, sent_at in sends:
            bucket = int(sent_at)
            buckets[bucket] = buckets.get(bucket, 0) + 1
            append(
                (sent_at - (sent_at if start_clock is None else start_clock))
                - (trace_time
                   - (trace_time if trace_start is None else trace_start)))
        self.send_error.observe_many(errors)

    def count_answers(self, latencies: Sequence[float]) -> None:
        """Fold a block of answer latencies, in order (see count_sends)."""
        self.latency.observe_many(latencies)

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
        percentiles (each within its 1.25× bucket); list mode computes
        them exactly.
        """
        if not self.aggregate:
            values = self.latencies()
            if not values:
                return {}
            summary = quartile_summary(values)
            summary["count"] = float(len(values))
            summary["mean"] = sum(values) / len(values)
            return summary
        latency = self.latency
        if not latency.count:
            return {}
        summary = {"count": float(latency.count), "mean": latency.mean(),
                   "min": latency.min, "max": latency.max}
        for key, fraction in (("p25", 0.25), ("median", 0.50),
                              ("p75", 0.75), ("p99", 0.99)):
            summary[key] = latency.quantile(fraction)
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
            "workers_lost": self.workers_lost,
            "deadline_shed": self.deadline_shed,
        }

    # -- aggregation (multi-process shard merge) ---------------------------

    def merge(self, other: "ReplayResult") -> "ReplayResult":
        """Fold another result (a worker's report) into this one.

        Entries upsert by their global trace index: where both hold an
        index the copy of lower :func:`merge_rank` stays and the
        collision counts in ``duplicate_merged``, so ``sent`` lists each
        index once, in index order.  Aggregate folds and event counters
        are summed; clocks keep the earliest non-None value so
        §4.2 offsets stay anchored to the run's true start.  The fold
        commutes, so reports merge to one result in any order.  Returns
        self for chaining.
        """
        if self.aggregate:
            self._merge_aggregate(other)
        elif other.aggregate:
            raise ValueError(
                "cannot merge an aggregate result into a list-mode "
                "result (per-query entries were never recorded); "
                "merge in the other direction")
        elif other.sent:
            best = {query.index: query for query in self.sent}
            for query in other.sent:
                current = best.get(query.index)
                if current is not None:
                    self.duplicate_merged += 1
                    if merge_rank(sent_row(query)) \
                            >= merge_rank(sent_row(current)):
                        continue
                best[query.index] = query
            self.sent = [best[index] for index in sorted(best)]
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
            # Fold a list-mode shard into the aggregate folds —
            # workers may run classic accounting while the controller
            # aggregates.
            for query in other.sent:
                self.add(query)
            return
        for mine, theirs in ((self.protocol_counts, other.protocol_counts),
                             (self.rate_buckets, other.rate_buckets)):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        self.latency.merge(other.latency)
        self.send_error.merge(other.send_error)

    def to_dict(self, entries: Optional[Iterable[SentQuery]] = None
                ) -> Dict:
        """A JSON-safe mapping (the inter-process RESULT frame).

        An aggregate result serializes its four folds — a few KB no
        matter how many queries it covers — where a list-mode result's
        ``sent`` table grows with every sent entry.  ``entries``
        restricts a list-mode frame to those entries under the same
        cumulative header (counters, clocks): the shape of a delta
        CHECKPOINT, and of each chunk of a report too big for one frame.
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
                "protocol_counts": dict(self.protocol_counts),
                "rate_buckets": {str(bucket): count for bucket, count
                                 in self.rate_buckets.items()},
                "latency": self.latency.to_state(),
                "send_error": self.send_error.to_state(),
            }
        else:
            data["sent"] = sent_table(map(
                sent_row, self.sent if entries is None else entries))
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
            result.protocol_counts = dict(aggregate["protocol_counts"])
            result.rate_buckets = {int(bucket): count for bucket, count in
                                   aggregate["rate_buckets"].items()}
            result.latency = Histogram.from_state(aggregate["latency"])
            result.send_error = Histogram.from_state(aggregate["send_error"])
        if "sent" in data:
            result.sent = list(starmap(SentQuery, sent_rows(data["sent"])))
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
            error = self.send_error
            if not error.count:
                return {}
            return {"count": float(error.count), "mean": error.mean(),
                    "min": error.min, "max": error.max,
                    "stddev": error.stddev()}
        errors = self.send_time_errors(skip_seconds)
        if not errors:
            return {}
        return quartile_summary(errors)

    def __len__(self) -> int:
        if self.aggregate:
            return self.sent_count
        return len(self.sent)
