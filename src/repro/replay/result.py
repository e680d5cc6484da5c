"""Replay results: per-query send/response bookkeeping and analysis.

Two accounting modes share one class:

* **list mode** (default): every send is one row of
  :attr:`ReplayResult.sent`, a :class:`SentTable` holding one typed
  column per :class:`SentQuery` field — ``array('d')`` for the four
  times (NaN for an unanswered ``answered_at``), integer arrays for the
  index, querier id, retry and timeout counts and the three flags, and
  ids into small intern tables for source, protocol and query name.  A
  querier books a send as its row number and writes an answer, retry,
  timeout, fallback or give-up into the columns; ``sent[i]``, slices
  and iteration give on-demand views that read as a :class:`SentQuery`
  and write through.  No column is an object the garbage collector
  walks, so exact §4.2 quartiles and per-query forensics cost 67 bytes
  a kept send.
  Right for experiments up to ~10⁷ queries.
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

Results merge commutatively — list rows upsert by global trace index,
aggregate folds by count sums and histogram merges — so the
controller's one merge takes workers' reports in any order, and an
index reported twice is kept once.

On the wire (:meth:`ReplayResult.to_dict`, the RESULT and CHECKPOINT
frames) a list-mode result's rows are the ``sent`` **table**: one JSON
list per :class:`SentQuery` field, all of one length, row ``i`` of
every column being row ``i``.  The required columns (index, source,
trace_time, scheduled_at, sent_at, protocol, qname) are always there;
an optional column is left out exactly when every value in it is the
field's default.  Columns move straight between the table and the
arrays, one conversion per column, and are checked one type test per
column (:func:`repro.replay.protocol.validate_result_payload`).
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import islice, repeat
from operator import attrgetter, eq, le
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
sent_row = attrgetter(*SENT_FIELDS)     # SentQuery (or a view) -> row
(_INDEX, _SOURCE, _TRACE_TIME, _SCHEDULED_AT, _SENT_AT, _PROTOCOL, _QNAME,
 _ANSWERED_AT, _FRESH, _QUERIER_ID, _RETRIES, _TIMEOUTS, _FALLBACK,
 _GAVE_UP) = range(len(SENT_FIELDS))
# Each field's column: its array typecode.  A named field's column holds
# ids into its intern table; a flag's holds 0 or 1.
_TYPECODES = "qIdddIIdBiiiBB"
_NAMED = (_SOURCE, _PROTOCOL, _QNAME)
_FLAGS = (_FRESH, _FALLBACK, _GAVE_UP)
_NAN = float("nan")


def sent_columns(columns: Sequence[list]) -> Dict[str, list]:
    """The ``sent`` table of ``columns`` (one list per field, in field
    order): every required column, and each optional column holding a
    value other than its default."""
    return {name: column for name, column in zip(SENT_FIELDS, columns)
            if name not in SENT_DEFAULTS
            or column.count(SENT_DEFAULTS[name]) != len(column)}


def sent_table(rows: Iterable[tuple]) -> Dict[str, list]:
    """The ``sent`` table of ``rows`` (tuples in field order)."""
    return sent_columns(list(map(list, zip(*rows)))
                        or [[]] * len(SENT_FIELDS))


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


class _Names(dict):
    """An intern table: each distinct value's id, in first-seen order;
    ``values[id]`` is the value."""

    __slots__ = ("values",)

    def __init__(self) -> None:
        super().__init__()
        self.values: List[str] = []

    def __missing__(self, value: str) -> int:
        self[value] = ident = len(self.values)
        self.values.append(value)
        return ident


class SentTable:
    """A list-mode result's rows: one typed column per
    :class:`SentQuery` field, in field order; a send is its row number.

    A sequence of on-demand views (``len``, ``[i]``, slices, iteration,
    ``==``): a view reads as the :class:`SentQuery` it records, and an
    attribute set on it is written into the columns.  ``answered``
    counts the rows with an answer.
    """

    __slots__ = ("columns", "names", "answered")

    def __init__(self) -> None:
        self.columns = [array(code) for code in _TYPECODES]
        self.names = [_Names() if position in _NAMED else None
                      for position in range(len(_TYPECODES))]
        self.answered = 0

    def book(self, index: int, source: str, trace_time: float,
             scheduled_at: float, sent_at: float, protocol: str,
             qname: str, answered_at: Optional[float] = None,
             fresh_connection: bool = False, querier_id: int = -1,
             retries: int = 0, timeouts: int = 0, tcp_fallback: bool = False,
             gave_up: bool = False) -> int:
        """Append one row, its values in field order; its row number."""
        names = self.names
        (index_, source_, trace_time_, scheduled_at_, sent_at_, protocol_,
         qname_, answered_at_, fresh_, querier_id_, retries_, timeouts_,
         fallback_, gave_up_) = self.columns
        if answered_at is None:
            answered_at = _NAN
        else:
            self.answered += 1
        index_.append(index)
        source_.append(names[_SOURCE][source])
        trace_time_.append(trace_time)
        scheduled_at_.append(scheduled_at)
        sent_at_.append(sent_at)
        protocol_.append(names[_PROTOCOL][protocol])
        qname_.append(names[_QNAME][qname])
        answered_at_.append(answered_at)
        fresh_.append(fresh_connection)
        querier_id_.append(querier_id)
        retries_.append(retries)
        timeouts_.append(timeouts)
        fallback_.append(tcp_fallback)
        gave_up_.append(gave_up)
        return len(index_) - 1

    def answer(self, row: int, at: Optional[float]) -> None:
        """Set ``row``'s ``answered_at`` (None: unanswered)."""
        column = self.columns[_ANSWERED_AT]
        was = column[row]
        self.answered += (at is not None) - (was == was)
        column[row] = _NAN if at is None else at

    def get(self, row: int, position: int):
        """The value of field ``position`` in ``row``."""
        value = self.columns[position][row]
        if position in _NAMED:
            return self.names[position].values[value]
        if position in _FLAGS:
            return bool(value)
        return None if value != value and position == _ANSWERED_AT \
            else value

    def put(self, row: int, position: int, value) -> None:
        """Write field ``position`` of ``row``."""
        if position == _ANSWERED_AT:
            self.answer(row, value)
        else:
            self.columns[position][row] = self.names[position][value] \
                if position in _NAMED else value

    def encode(self, rows: Optional[Sequence[int]] = None
               ) -> Dict[str, list]:
        """The ``sent`` wire table of ``rows`` (row numbers, every row
        by default)."""
        columns = []
        for position, column in enumerate(self.columns):
            values = column.tolist() if rows is None \
                else list(map(column.__getitem__, rows))
            if position in _NAMED:
                values = list(map(self.names[position].values.__getitem__,
                                  values))
            elif position in _FLAGS:
                values = list(map(bool, values))
            elif position == _ANSWERED_AT:
                values = [None if at != at else at for at in values]
            columns.append(values)
        return sent_columns(columns)

    @classmethod
    def decode(cls, table: Mapping[str, list]) -> "SentTable":
        """The rows of a (validated) ``sent`` table; an absent optional
        column reads as its default."""
        rows, length = cls(), len(table["index"])
        for position, name in enumerate(SENT_FIELDS):
            values = table.get(name)
            if values is None:
                values = [SENT_DEFAULTS[name]] * length
            if position in _NAMED:
                values = map(rows.names[position].__getitem__, values)
            elif position == _ANSWERED_AT:
                rows.answered = length - values.count(None)
                values = [_NAN if at is None else at for at in values]
            rows.columns[position] = array(_TYPECODES[position], values)
        return rows

    def extend(self, other: "SentTable") -> None:
        """Append ``other``'s rows, in order."""
        for position, (mine, theirs) in enumerate(zip(self.columns,
                                                      other.columns)):
            if position in _NAMED:
                ids = list(map(self.names[position].__getitem__,
                               other.names[position].values))
                theirs = map(ids.__getitem__, theirs)
            mine.extend(theirs)
        self.answered += other.answered

    def keep(self, rows: Sequence[int]) -> None:
        """Keep ``rows`` alone, in that order."""
        dropped = len(rows) != len(self)
        self.columns = columns = [
            array(column.typecode, map(column.__getitem__, rows))
            for column in self.columns]
        if dropped:
            self.answered = sum(1 for at in columns[_ANSWERED_AT]
                                if at == at)

    def sort_by_index(self) -> None:
        """Order the rows by trace index, ties in row order."""
        index = self.columns[_INDEX]
        if not all(map(le, index, islice(index, 1, None))):
            self.keep(sorted(range(len(index)), key=index.__getitem__))

    def __len__(self) -> int:
        return len(self.columns[_INDEX])

    def __getitem__(self, key):
        if isinstance(key, slice):
            return list(map(partial(_SentView, self),
                            range(*key.indices(len(self)))))
        return _SentView(self, range(len(self))[key])

    def __iter__(self):
        return map(partial(_SentView, self), range(len(self)))

    def __eq__(self, other) -> bool:
        try:
            return len(self) == len(other) and all(map(eq, self, other))
        except TypeError:
            return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))


class _SentView:
    """Row ``row`` of a :class:`SentTable`, read and written as the
    :class:`SentQuery` it records."""

    __slots__ = ("table", "row")

    def __init__(self, table: SentTable, row: int) -> None:
        self.table, self.row = table, row

    latency = SentQuery.latency

    def __eq__(self, other) -> bool:
        if isinstance(other, (SentQuery, _SentView)):
            return sent_row(self) == sent_row(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return "SentQuery(" + ", ".join(
            f"{name}={value!r}"
            for name, value in zip(SENT_FIELDS, sent_row(self))) + ")"


def _view_field(position: int) -> property:
    return property(lambda view: view.table.get(view.row, position),
                    lambda view, value: view.table.put(view.row, position,
                                                       value))


for _position, _name in enumerate(SENT_FIELDS):
    setattr(_SentView, _name, _view_field(_position))


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
        self.sent = SentTable()         # list mode's rows
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

    def add(self, query) -> Optional[int]:
        """Book one send: a :class:`SentQuery` (or a view of one), or a
        row, its field values in field order (the trailing defaults may
        be left off).  Its row number in list mode."""
        if not self.aggregate:
            return self.sent.book(*(query if type(query) is tuple
                                    else sent_row(query)))
        if type(query) is tuple:
            query = SentQuery(*query)
        # Fold and forget: the query is not retained.  Live engines
        # should prefer count_send/count_answer (a send's answer arrives
        # later); add() here serves offline folds of already-final
        # entries.
        self.count_send(query.protocol, query.trace_time, query.sent_at)
        if query.answered_at is not None and query.latency is not None:
            self.count_answer(query.latency)
        return None

    # -- aggregate-mode accounting -----------------------------------------

    @property
    def sent_count(self) -> int:
        """Sends the result holds: rows, or sends folded."""
        return self.send_error.count if self.aggregate else len(self.sent)

    @property
    def answered_count(self) -> int:
        """Answers the result holds: answered rows, or answers folded."""
        return self.latency.count if self.aggregate else self.sent.answered

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
        columns = self.sent.columns
        trace_times, sent_ats = columns[_TRACE_TIME], columns[_SENT_AT]
        if not sent_ats:
            return []
        base_clock = self.start_clock if self.start_clock is not None \
            else sent_ats[0]
        base_trace = self.trace_start if self.trace_start is not None \
            else trace_times[0]
        return [(sent_at - base_clock) - (trace_time - base_trace)
                for trace_time, sent_at in zip(trace_times, sent_ats)
                if not trace_time - base_trace < skip_seconds]

    def interarrivals(self) -> List[float]:
        times = sorted(self.sent.columns[_SENT_AT])
        return [b - a for a, b in zip(times, times[1:])]

    def per_second_rates(self) -> List[Tuple[int, int]]:
        if self.aggregate:
            if not self.rate_buckets:
                return []
            base = min(self.rate_buckets)
            return sorted((bucket - base, count)
                          for bucket, count in self.rate_buckets.items())
        sent_ats = self.sent.columns[_SENT_AT]
        if not sent_ats:
            return []
        base = min(sent_ats)
        return sorted(Counter(int(sent_at - base)
                              for sent_at in sent_ats).items())

    def latencies(self, sources: Optional[set] = None) -> List[float]:
        columns = self.sent.columns
        pairs = zip(columns[_ANSWERED_AT], columns[_SENT_AT])
        if sources is None:
            return [at - sent_at for at, sent_at in pairs if at == at]
        names = self.sent.names[_SOURCE].values
        return [at - sent_at
                for (at, sent_at), source in zip(pairs, columns[_SOURCE])
                if at == at and names[source] in sources]

    def answered_fraction(self) -> float:
        sent = self.sent_count
        return self.answered_count / sent if sent else 0.0

    def unanswered(self) -> int:
        """Queries sent but never answered (checked at drain time).

        A lossy run cannot masquerade as complete: any stranded query
        shows up here even when no retry policy was configured.
        """
        return self.sent_count - self.answered_count

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

    def unanswered_queries(self) -> List[_SentView]:
        return [self.sent[row] for row, at
                in enumerate(self.sent.columns[_ANSWERED_AT]) if at != at]

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

        Rows upsert by their global trace index: where both hold an
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
        elif len(other.sent):
            self._merge_rows(other.sent)
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

    def _merge_rows(self, other: SentTable) -> None:
        """Upsert ``other``'s rows: this table's own copies of one index
        collapse to the last, uncounted; each of ``other``'s that meets
        a held copy is a collision."""
        table = self.sent
        base = len(table)
        table.extend(other)
        index = table.columns[_INDEX]

        def rank(row: int) -> Tuple[int, float, int]:
            return merge_rank(sent_row(table[row]))

        if len(set(index)) == len(index):   # no index held twice
            order = sorted(range(len(index)), key=index.__getitem__)
        else:
            best = dict(zip(islice(index, base), range(base)))
            for row in range(base, len(index)):
                current = best.get(index[row])
                if current is not None:
                    self.duplicate_merged += 1
                    if rank(row) >= rank(current):
                        continue
                best[index[row]] = row
            order = [best[key] for key in sorted(best)]
        if order != list(range(len(index))):
            table.keep(order)

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

    def to_dict(self, rows: Optional[Sequence[int]] = None) -> Dict:
        """A JSON-safe mapping (the inter-process RESULT frame).

        An aggregate result serializes its four folds — a few KB no
        matter how many queries it covers — where a list-mode result's
        ``sent`` table grows with every row.  ``rows`` (row numbers)
        restricts a list-mode frame to those rows under the same
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
            data["sent"] = self.sent.encode(rows)
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
            result.sent = SentTable.decode(data["sent"])
        return result

    def reuse_fraction(self) -> float:
        """Share of TCP/TLS queries that reused an open connection."""
        table = self.sent
        stream = {ident for ident, protocol
                  in enumerate(table.names[_PROTOCOL].values)
                  if protocol in ("tcp", "tls")}
        fresh = [flag for protocol, flag
                 in zip(table.columns[_PROTOCOL], table.columns[_FRESH])
                 if protocol in stream]
        return fresh.count(0) / len(fresh) if fresh else 0.0

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
        return self.sent_count
