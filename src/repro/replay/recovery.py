"""Self-healing distributed replay: respawn, checkpoints, chaos.

The paper's headline experiments replay multi-hour, 10⁸-query traces
across a controller → distributor → querier process tree; at that
scale a single worker crash must not void the run.  Every in-memory
:class:`repro.replay.multiproc.ProcessTopology` replay checkpoints and
drains through the pieces this module holds:

* :class:`RecoveryConfig` — grants the respawn budget (a run without
  one respawns nothing) and carries the chaos schedule.  The rest of
  the mechanism has fixed sizes, module constants like the data
  plane's: the respawn budget with exponential backoff
  (:func:`respawn_backoff`), the checkpoint cadence
  (:class:`CheckpointPolicy`), redelivery rounds and the
  handshake/reconnect deadlines.
* :class:`CheckpointStore` — accumulator of delta ``CHECKPOINT`` and
  final ``RESULT`` frames keyed by (worker, incarnation).  Offering a
  frame is idempotent *and commutative*: entries upsert by global
  trace index (answered beats unanswered), the header goes to the
  highest sequence number, so duplicated, reordered and re-reported
  frames can never regress the stored state.
* :class:`RecoveryLedger` — the controller's recovery decisions as a
  pure object: redelivery by due instant, the END hold-back, the
  respawn budget and deadline shedding.  Events in, actions out.
* :class:`QuerierLedger` — the querier's half, as pure: exactly-once
  intake, the news the next delta carries, when a delta leaves, and
  how long the tail settles.
* :func:`merge_recovered` — exactly-once merge over the store's
  snapshots, a fold of :meth:`ReplayResult.merge`: sent entries are
  deduplicated by *global trace index* with a deterministic,
  order-independent preference (:func:`~repro.replay.result.merge_rank`),
  so conservation holds under crash-and-respawn.
* :class:`ChaosEngine` — :mod:`repro.netsim.faults` semantics applied
  to the *real* control sockets: seeded per (role, worker, incarnation)
  frame drop / delay / reorder / process crash, attached to a
  :class:`~repro.replay.protocol.MessageSocket` via its ``chaos`` hook.

Everything here is deliberately socket-free and process-free except
:class:`ChaosEngine`'s crash path, so the explorer and fuzz harness
(:mod:`repro.verify`) can drive the exact production ledgers, store and
merge through exhaustive crash × reorder × deadline schedules.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass
from itertools import takewhile
from typing import Callable, Dict, Hashable, Iterable, List, Optional, \
    Set, Tuple

from .protocol import MSG_CHECKPOINT, MSG_METRICS, MSG_RECORD, \
    MSG_RESULT, MessageSocket
from .result import (SENT_FIELDS, ReplayResult, SentTable, merge_rank,
                     sent_rows, sent_table)

# Exit status a chaos-crashed worker dies with; distinguishable from a
# clean exit (0) and a Python traceback (1) in the respawn logs.
CHAOS_EXIT_STATUS = 17
CHAOS_DELAY_S = 0.002       # how long a chaos-delayed frame is held

StoreKey = Tuple[Hashable, int]     # (worker key, incarnation)

_ANSWERED_AT = SENT_FIELDS.index("answered_at")


# -- the mechanism's sizes ---------------------------------------------------
#
# Sizes of the recovery mechanism, not settings of a run.

HELLO_TIMEOUT = 5.0         # HELLO handshake deadline of a (re)spawned worker
RECONNECT_ATTEMPTS = 5      # a worker's re-dial budget for one dropped link
RECONNECT_BACKOFF = 0.05    # seconds before its first re-dial
REDELIVERY_ROUNDS = 3       # re-stream passes for records no frame reported
REDELIVERY_GRACE = 0.75     # quiet seconds before a due record counts lost
SETTLE_S = 0.2              # longest a querier waits on answers after END
COLLECT_TIMEOUT = 15.0      # bound on the drain past the schedule and settle
RESPAWNS_PER_WORKER = 2     # respawns allowed for one worker slot
RESPAWNS_TOTAL = 8          # respawns allowed across the whole run


def respawn_backoff(attempt: int) -> float:
    """Delay before respawn number ``attempt`` (0-based) of a slot:
    0.05 s doubling per attempt, capped at 1 s."""
    return min(1.0, 0.05 * 2.0 ** attempt)


@dataclass(frozen=True)
class CheckpointPolicy:
    """How often a querier emits delta CHECKPOINT frames."""

    every_records: int = 64     # checkpoint after this many entries of news
    interval_s: float = 0.2     # ... or this much wall time with news

    def due(self, news: int, since_last: float) -> bool:
        """``news`` counts every entry the next frame would carry: new
        sends, answers to entries already shipped, and re-reports — so
        a quiet tail of late answers still flushes within
        ``interval_s``."""
        return news > 0 and (news >= self.every_records
                             or since_last >= self.interval_s)


@dataclass(frozen=True)
class ChaosConfig:
    """Fault injection for the *real* control protocol.

    Mirrors :mod:`repro.netsim.faults` semantics (seeded, deterministic
    per subject) but acts on live ``MessageSocket`` sends: each
    eligible outgoing frame may be dropped, delayed, swapped with the
    next frame (reorder), or may kill the whole worker process
    (crash — ``os._exit`` so not even ``finally`` blocks run, the
    closest safe stand-in for SIGKILL).

    ``crash_incarnations`` bounds crashes to specific respawn
    generations — ``(0,)`` makes first incarnations crash while their
    respawns run clean, which keeps kill-tests deterministic.
    """

    seed: int = 0
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    reorder_rate: float = 0.0
    crash_rate: float = 0.0
    crash_after_frames: int = 0          # eligible frames before crashing
    crash_incarnations: Tuple[int, ...] = ()   # empty = every incarnation
    # Streamed TELEMETRY frames are not in the default set: they are
    # built to survive drops and reorders anyway (cumulative state,
    # latest seq wins), so mangling them adds noise without adding
    # coverage.  Include MSG_TELEMETRY explicitly to stress the
    # aggregator's staleness handling.
    kinds: Tuple[int, ...] = (MSG_RECORD, MSG_CHECKPOINT, MSG_RESULT,
                              MSG_METRICS)
    scope: str = "workers"               # "workers" | "controller" | "both"

    def applies_to_workers(self) -> bool:
        return self.scope in ("workers", "both")

    def applies_to_controller(self) -> bool:
        return self.scope in ("controller", "both")


@dataclass(frozen=True)
class RecoveryConfig:
    """Grants ProcessTopology's respawn budget (``RESPAWNS_*``); every
    run checkpoints and redelivers with or without one.  ``chaos``
    optionally injects faults into the real control sockets."""

    chaos: Optional[ChaosConfig] = None


# -- chaos engine -----------------------------------------------------------

class ChaosEngine:
    """Seeded per-socket fault injector, attached via MessageSocket.chaos.

    ``process(kind, payload)`` maps one outgoing frame to the list of
    frames actually written.  Determinism: the RNG is seeded from
    (config seed, role, worker id, incarnation), so a respawned worker
    draws a fresh, reproducible fault schedule.
    """

    def __init__(self, config: ChaosConfig, role: int, worker_id: int,
                 incarnation: int = 0, allow_crash: bool = True):
        identity = f"{config.seed}:{role}:{worker_id}:{incarnation}"
        self._rng = random.Random(zlib.crc32(identity.encode("ascii")))
        self._config = config
        self._held: Optional[Tuple[int, bytes]] = None
        self._eligible_seen = 0
        self._crash_armed = (
            allow_crash and config.crash_rate > 0.0
            and (not config.crash_incarnations
                 or incarnation in config.crash_incarnations))
        self.dropped = 0
        self.delayed = 0
        self.reordered = 0

    def _flush_held(self) -> List[Tuple[int, bytes]]:
        if self._held is None:
            return []
        held, self._held = self._held, None
        return [held]

    def process(self, kind: int, payload: bytes) -> List[Tuple[int, bytes]]:
        config = self._config
        if kind not in config.kinds:
            # Exempt frame: release any held frame first so END/SHUTDOWN
            # can never overtake data the peer still needs.
            return self._flush_held() + [(kind, payload)]
        self._eligible_seen += 1
        if (self._crash_armed
                and self._eligible_seen > config.crash_after_frames
                and self._rng.random() < config.crash_rate):
            os._exit(CHAOS_EXIT_STATUS)
        if self._rng.random() < config.drop_rate:
            self.dropped += 1
            return self._flush_held()
        if self._rng.random() < config.delay_rate:
            self.delayed += 1
            time.sleep(CHAOS_DELAY_S)
        if self._held is None and self._rng.random() < config.reorder_rate:
            self._held = (kind, payload)
            self.reordered += 1
            return []
        # Current frame goes first, then the held one: adjacent swap.
        return [(kind, payload)] + self._flush_held()


def attach_chaos(msocket: MessageSocket, config: Optional[ChaosConfig],
                 role: int, worker_id: int, incarnation: int = 0,
                 controller_side: bool = False) -> Optional[ChaosEngine]:
    """Wire a ChaosEngine onto a socket if the config's scope says so.

    Controller-side engines never crash (killing the controller is a
    different experiment); worker-side ones may.
    """
    if config is None:
        return None
    wanted = (config.applies_to_controller() if controller_side
              else config.applies_to_workers())
    if not wanted:
        return None
    engine = ChaosEngine(config, role, worker_id, incarnation,
                         allow_crash=not controller_side)
    msocket.chaos = engine
    return engine


# -- checkpoint store -------------------------------------------------------

class CheckpointStore:
    """Accumulated result entries per (worker, incarnation).

    A ``CHECKPOINT`` frame is a *delta*: the entries first sent since
    the worker's previous frame, the entries whose fate changed since
    they were last reported (answered after shipping, or re-reported
    because the controller redelivered their record), and the small
    cumulative header (counters, clocks).  The final ``RESULT`` is
    cumulative.  Both fold in by the same two rules:

    * entries — the rows of the frames' ``sent`` tables — upsert by
      global trace index, an answered copy beating an unanswered one
      (then earliest ``sent_at``, lowest ``querier_id`` —
      :func:`~repro.replay.result.merge_rank`, the merge's preference);
    * the header goes to the highest rank ``(final?, seq)``.

    Each rule is a join, so ``offer`` is idempotent and commutative:
    any permutation of a frame set, with duplicates, leaves the same
    state, and a lost delta is healed by whichever later frame carries
    its entries again (a re-report or the final RESULT).

    The index sets the recovery ledger asks about are kept up to date
    on offer, so a query costs nothing per stored entry.
    """

    def __init__(self) -> None:
        # Rows of the ``sent`` tables offered, by incarnation and index.
        self._entries: Dict[StoreKey, Dict[int, tuple]] = {}
        self._headers: Dict[StoreKey, Tuple[Tuple[int, int], dict]] = {}
        self._sent: Set[int] = set()        # indices sent by anyone
        self._unanswered: Set[int] = set()  # ... and answered by no one
        self._watermark = 0                 # every index below is sent
        self.frames_offered = 0
        self.frames_stale = 0       # offers that changed nothing
        self.entries_offered = 0    # entries folded, over all offers

    def offer(self, worker: Hashable, incarnation: int, seq: int,
              result: dict, final: bool = False) -> bool:
        """Fold one frame in; True if it advanced the store."""
        self.frames_offered += 1
        key = (worker, incarnation)
        rank = (1 if final else 0, seq)
        held = self._headers.get(key)
        advanced = held is None or rank > held[0]
        if advanced:
            self._headers[key] = (rank, {name: value
                                         for name, value in result.items()
                                         if name != "sent"})
        entries = self._entries.setdefault(key, {})
        sent, unanswered = self._sent, self._unanswered
        rows = sent_rows(result["sent"]) if "sent" in result else ()
        for row in rows:
            self.entries_offered += 1
            index = row[0]                  # the first column
            current = entries.get(index)
            if current is not None and merge_rank(row) >= merge_rank(current):
                continue
            entries[index] = row
            advanced = True
            if index not in sent:
                sent.add(index)
                if row[_ANSWERED_AT] is None:
                    unanswered.add(index)
            elif row[_ANSWERED_AT] is not None:
                unanswered.discard(index)
        if not advanced:
            self.frames_stale += 1
        return advanced

    def offer_frame(self, worker: Hashable, payload: dict,
                    final: bool = False) -> bool:
        """Fold a validated CHECKPOINT frame payload in."""
        return self.offer(worker, payload["incarnation"], payload["seq"],
                          payload["result"],
                          final=final or bool(payload.get("final")))

    def keys(self) -> List[StoreKey]:
        return sorted(self._headers, key=repr)

    def snapshots(self) -> List[dict]:
        """One RESULT-shaped dict per incarnation, in a deterministic
        order: its best header over the ``sent`` table of its
        accumulated entries, in index order."""
        out = []
        for key in self.keys():
            snapshot = dict(self._headers[key][1])
            if "aggregate" not in snapshot:
                entries = self._entries[key]
                snapshot["sent"] = sent_table(entries[index]
                                              for index in sorted(entries))
            out.append(snapshot)
        return out

    def answered_indices(self) -> Set[int]:
        """Global trace indices with at least one recorded answer."""
        return self._sent - self._unanswered

    def progress(self) -> Tuple[int, int]:
        """(indices sent, indices still unanswered): moves whenever a
        frame brings the drain closer to done."""
        return len(self._sent), len(self._unanswered)

    def covers(self, expected: int) -> bool:
        """True when every index of ``range(expected)`` has a recorded
        send.  The watermark only ever advances, so a drain's worth of
        calls costs one pass over the indices in total."""
        while self._watermark in self._sent:
            self._watermark += 1
        return self._watermark >= expected

    def missing(self, expected: int) -> List[int]:
        """Indices of ``range(expected)`` no frame has reported sent."""
        if self.covers(expected):
            return []
        return [index for index in range(self._watermark, expected)
                if index not in self._sent]

    def stale_unanswered(self, live: Iterable[StoreKey]) -> Set[int]:
        """Unanswered indices none of the ``live`` incarnations sent:
        their only sends died with their worker."""
        live_entries = [self._entries[key] for key in live
                        if key in self._entries]
        return {index for index in self._unanswered
                if not any(index in entries for entries in live_entries)}

    def fingerprint(self) -> tuple:
        """Hashable digest of everything a merge can see (the state
        explorer's notion of "same store")."""
        return tuple(
            (repr(key), self._headers[key][0],
             tuple((index, row[_ANSWERED_AT] is not None)
                   for index, row in sorted(self._entries[key].items())))
            for key in self.keys())


# -- recovery ledger --------------------------------------------------------

# How long a drain with no live routing path waits before looking again.
_NO_ROUTE_POLL = 0.05


class RecoveryLedger:
    """The controller's recovery decisions, sans IO: events in, actions
    out, ``now`` always an argument.  The controller feeds it under its
    lock and carries out its actions; the state explorer runs the same
    object on a virtual clock.  It owns:

    * redelivery — a record no frame reported sent is lost once it is
      ``REDELIVERY_GRACE`` past its due instant and the store has been
      quiet that long, as is an unanswered send only dead incarnations
      hold; at most ``REDELIVERY_ROUNDS`` passes, none past the deadline;
    * the END hold-back — until the store covers every routed index with
      nothing stranded, the rounds are spent, the deadline hit, or no
      redelivery could reach a querier and none is coming back
      (``ended`` says which);
    * the respawn budget — ``RESPAWNS_PER_WORKER`` per slot and
      ``RESPAWNS_TOTAL`` per run, or none at all (``respawns=False``,
      a run without a :class:`RecoveryConfig`); a death past it is lost
      for good (``lost``);
    * ``shed``, what the deadline kept from being routed: with the
      workers' shed counts it closes ``len(result) + deadline_shed ==
      total`` for a run that ended ``"complete"``.
    """

    def __init__(self, store: CheckpointStore, respawns: bool = True):
        self.store = store
        self._per_worker = RESPAWNS_PER_WORKER if respawns else 0
        self._budget = RESPAWNS_TOTAL if respawns else 0
        self._attempts: Dict[Hashable, int] = {}
        self._due: List[float] = []         # due instant, by routed index
        self._seen: Optional[Tuple[int, int]] = None   # store progress
        self._moved = 0.0       # when it last moved, or we redelivered
        self.expired = False
        # complete | rounds | deadline | unroutable
        self.ended: Optional[str] = None
        self.rounds = 0
        self.redelivered = 0
        self.respawns = 0
        self.lost = 0
        self.shed = 0

    @property
    def routed(self) -> int:
        return len(self._due)

    def route(self, dues: Iterable[float]) -> None:
        """The next records by index went to the tree, due at ``dues``
        (non-decreasing: the trace is in timestamp order)."""
        self._due.extend(dues)

    def stop_routing(self, total: int) -> None:
        """The stream is over: what of the ``total`` records was not
        routed is shed."""
        self.shed += total - len(self._due)

    def expire(self) -> None:
        """The deadline: routing stops and the next tick sends END."""
        self.expired = True

    def died(self, worker: Hashable) -> Optional[int]:
        """Worker slot ``worker`` died with its report outstanding: the
        respawn attempt to make (after ``respawn_backoff(attempt)``), or
        None when the budget is spent and the worker is lost."""
        attempts = self._attempts.get(worker, 0)
        if attempts >= self._per_worker or self.respawns >= self._budget:
            self.lost += 1
            return None
        self._attempts[worker] = attempts + 1
        self.respawns += 1
        return attempts

    def tick(self, now: float, live: Iterable[StoreKey], routable: bool,
             respawning: bool = False) -> Tuple[str, object]:
        """The drain looks at ``now``; ``live`` are the store keys of the
        live querier incarnations, ``routable`` whether a record routed
        now could reach one, ``respawning`` whether a dead worker's fate
        is still open (a respawn in flight, or a death not yet settled).
        Returns ``("wait", until)``, ``("redeliver", indices)`` or
        ``("end", ended)``."""
        if self.expired:
            return self._end("deadline")
        store, due = self.store, self._due

        def stranded():
            return {index for index in store.stale_unanswered(live)
                    if index < len(due)}
        if store.covers(len(due)) and not stranded():
            return self._end("complete")
        if not (routable or respawning):
            # Nothing could carry a redelivery, and nothing will come
            # back that could: waiting only runs out the drain's cap.
            return self._end("unroutable")
        seen = store.progress()
        if seen != self._seen:
            self._seen, self._moved = seen, now
        if now < self._moved + REDELIVERY_GRACE:
            return "wait", self._moved + REDELIVERY_GRACE
        if not routable:
            # A respawn is in flight: spend no round on it.
            return "wait", now + _NO_ROUTE_POLL
        missing, stale = store.missing(len(due)), stranded()
        lost = set(takewhile(
            lambda index: due[index] + REDELIVERY_GRACE <= now, missing))
        if not lost and not stale:
            # Every missing record is still on its schedule.
            return "wait", due[missing[0]] + REDELIVERY_GRACE
        if self.rounds >= REDELIVERY_ROUNDS:
            return self._end("rounds")
        self.rounds += 1
        redeliver = sorted(lost | stale)
        self.redelivered += len(redeliver)
        self._moved = now
        return "redeliver", redeliver

    def _end(self, why: str) -> Tuple[str, str]:
        if self.ended is None:
            self.ended = why
        return "end", self.ended

    def fingerprint(self) -> tuple:
        """Hashable digest of the ledger (part of the explorer's state)."""
        return (len(self._due), self.expired, self.ended, self.rounds,
                self.redelivered, self.respawns, self.lost, self.shed,
                tuple(sorted(self._attempts.items(), key=repr)),
                self._seen, self._moved)


class QuerierLedger:
    """A list-mode querier's recovery rules, sans IO: events in, actions
    out, ``now`` always an argument.  The live querier feeds it; the
    state explorer and the checkpoint-history generator run the same
    object on a virtual clock.  It owns:

    * exactly-once intake — a redelivered copy of a record already
      queued or sent here is dropped; if it was sent, the controller
      lost the frame that said so, and the entry is reported again;
    * the news — the entries the next delta carries: first sends,
      answers to entries already shipped, and re-reports;
    * when a delta leaves — on the :class:`CheckpointPolicy` cadence,
      or at once when the send queue is dry: the drain waits on it;
    * the tail — after END, with the queue dry, settle only while a send
      is unanswered, for at most ``SETTLE_S``.  An aggregate querier,
      which keeps no per-record state, asks only this.
    """

    def __init__(self, rows: SentTable, now: float,
                 policy: CheckpointPolicy = CheckpointPolicy()):
        self.rows = rows        # the result's rows, where sends are booked
        self.policy = policy
        # By index: None while the record is queued, its row once sent.
        # The news is rows, in the order they became news.
        self._seen: Dict[int, Optional[int]] = {}
        self._news: Dict[int, None] = {}
        self._last = now                    # when the last delta left
        self._settle_until: Optional[float] = None

    @property
    def news(self) -> int:
        """Entries the next delta carries."""
        return len(self._news)

    def arrived(self, index: int) -> bool:
        """Record ``index`` came in: True to queue it, False for a copy
        of one already queued or sent here, which is dropped."""
        if index not in self._seen:
            self._seen[index] = None
            return True
        row = self._seen[index]
        if row is not None:
            self._news[row] = None
        return False

    def sent(self, index: int, source: str, trace_time: float,
             scheduled_at: float, sent_at: float, protocol: str,
             qname: str, querier_id: int, gave_up: bool = False) -> int:
        """Record ``index`` left as a query: its row, which is news."""
        row = self.rows.book(index, source, trace_time, scheduled_at,
                             sent_at, protocol, qname, None, False,
                             querier_id, 0, 0, False, gave_up)
        self._seen[index] = row
        self._news[row] = None
        return row

    def answered(self, row: int, at: float) -> None:
        """The answer to ``row`` came in at ``at``: news again."""
        self.rows.answer(row, at)
        self._news[row] = None

    def due(self, now: float, queued: bool) -> bool:
        """Whether a delta leaves now; ``queued`` is whether any record
        waits in the send queue."""
        return bool(self._news) and (
            not queued or self.policy.due(len(self._news), now - self._last))

    def delta(self, now: float) -> List[int]:
        """Take the news: the rows of the delta that leaves now."""
        news, self._news = self._news, {}
        self._last = now
        return list(news)

    def wake(self) -> Optional[float]:
        """When the cadence makes the news due, if there is any."""
        return self._last + self.policy.interval_s if self._news else None

    def settle(self, now: float, in_flight: bool) -> Optional[float]:
        """END is in and the send queue is dry; ``in_flight`` is whether
        a send is unanswered.  The instant to settle until, or None to
        finish.  The first call opens the window."""
        if self._settle_until is None:
            self._settle_until = now + SETTLE_S
        if in_flight and now < self._settle_until:
            return self._settle_until
        return None

    def fingerprint(self) -> tuple:
        """Hashable digest of the ledger (part of the explorer's state)."""
        rows = self.rows

        def fate(row):          # None: queued; else whether answered
            return None if row is None else rows[row].answered_at is not None
        return (tuple(sorted((index, fate(row))
                             for index, row in self._seen.items())),
                tuple(sorted((rows[row].index, fate(row))
                             for row in self._news)),
                self.wake(), self._settle_until)


# -- exactly-once merge -----------------------------------------------------

def merge_recovered(snapshots: Iterable[dict], name: str = "recovered",
                    aggregate: bool = False) -> ReplayResult:
    """The exactly-once merge: :meth:`ReplayResult.merge` folded over
    result snapshots whose SentQuery indices are global trace indices.

    The same record sent twice — once by a crashed incarnation, once by
    its redelivery — collapses to one entry, the answered copy first,
    then the earliest send; dropped copies count in
    ``duplicate_merged``.  Counters sum across snapshots; the store
    hands over one snapshot per incarnation, under that incarnation's
    latest cumulative header, so nothing is double-counted.
    """
    merged = ReplayResult(name, aggregate=aggregate)
    for shard in snapshots:
        merged.merge(ReplayResult.from_dict(shard))
    return merged


def conservation_violations(result: ReplayResult,
                            expected: int) -> List[str]:
    """Check exactly-once accounting: indices dense, unique, complete."""
    problems: List[str] = []
    indices = result.sent.columns[0]        # the index column
    unique = set(indices)
    if len(indices) != len(unique):
        problems.append(f"{len(indices) - len(unique)} duplicate indices "
                        f"in merged result")
    missing = set(range(expected)) - unique
    if missing:
        problems.append(f"{len(missing)} trace records never accounted "
                        f"for (e.g. {sorted(missing)[:5]})")
    extra = unique - set(range(expected))
    if extra:
        problems.append(f"indices outside the trace: {sorted(extra)[:5]}")
    return problems


# -- reconnect helper -------------------------------------------------------

def reconnect_with_backoff(factory: Callable[[], MessageSocket],
                           attempts: int, backoff_base: float,
                           abort: Optional[Callable[[], bool]] = None
                           ) -> Optional[MessageSocket]:
    """Retry ``factory`` with exponential backoff; None when exhausted."""
    for attempt in range(max(1, attempts)):
        if abort is not None and abort():
            return None
        try:
            return factory()
        except OSError:
            time.sleep(min(1.0, backoff_base * (2.0 ** attempt)))
    return None
