"""Self-healing distributed replay: respawn, checkpoints, chaos.

The paper's headline experiments replay multi-hour, 10⁸-query traces
across a controller → distributor → querier process tree; at that
scale a single worker crash must not void the run.  This module holds
the pieces that turn :class:`repro.replay.multiproc.ProcessTopology`
from fail-fast into fault-tolerant:

* :class:`RespawnPolicy` / :class:`CheckpointPolicy` /
  :class:`RecoveryConfig` — the knobs: bounded respawn budget with
  exponential backoff, checkpoint cadence, redelivery rounds,
  handshake/reconnect deadlines.
* :class:`CheckpointStore` — accumulator of delta ``CHECKPOINT`` and
  final ``RESULT`` frames keyed by (worker, incarnation).  Offering a
  frame is idempotent *and commutative*: entries upsert by global
  trace index (answered beats unanswered), the header goes to the
  highest sequence number, so duplicated, reordered and re-reported
  frames can never regress the stored state.
* :func:`merge_recovered` — exactly-once merge over the store's
  snapshots: sent entries are deduplicated by *global trace index*
  with a deterministic, order-independent preference (answered beats
  unanswered, then earliest ``sent_at``, then lowest ``querier_id``),
  so conservation holds under crash-and-respawn.
* :class:`ChaosEngine` — :mod:`repro.netsim.faults` semantics applied
  to the *real* control sockets: seeded per (role, worker, incarnation)
  frame drop / delay / reorder / process crash, attached to a
  :class:`~repro.replay.protocol.MessageSocket` via its ``chaos`` hook.

Everything here is deliberately socket-free and process-free except
:class:`ChaosEngine`'s crash path, so the explorer and fuzz harness
(:mod:`repro.verify`) can drive the exact production store/merge code
through exhaustive crash × reorder schedules.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, \
    Set, Tuple

from .protocol import MSG_CHECKPOINT, MSG_METRICS, MSG_RECORD, \
    MSG_RECORD_SEQ, MSG_RESULT, MessageSocket
from .result import ReplayResult, SentQuery, _COUNTER_FIELDS

# Exit status a chaos-crashed worker dies with; distinguishable from a
# clean exit (0) and a Python traceback (1) in the respawn logs.
CHAOS_EXIT_STATUS = 17

StoreKey = Tuple[Hashable, int]     # (worker key, incarnation)


# -- policies ---------------------------------------------------------------

@dataclass(frozen=True)
class RespawnPolicy:
    """Bounded respawn budget with exponential backoff."""

    max_per_worker: int = 2     # respawns allowed for one worker slot
    max_total: int = 8          # respawns allowed across the whole run
    backoff_base: float = 0.05  # seconds before the first respawn
    backoff_factor: float = 2.0
    backoff_cap: float = 1.0

    def backoff(self, attempt: int) -> float:
        """Delay before respawn number ``attempt`` (0-based) of a slot."""
        return min(self.backoff_cap,
                   self.backoff_base * self.backoff_factor ** attempt)


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
    delay_s: float = 0.002
    reorder_rate: float = 0.0
    crash_rate: float = 0.0
    crash_after_frames: int = 0          # eligible frames before crashing
    crash_incarnations: Tuple[int, ...] = ()   # empty = every incarnation
    # Streamed TELEMETRY frames are not in the default set: they are
    # built to survive drops and reorders anyway (cumulative state,
    # latest seq wins), so mangling them adds noise without adding
    # coverage.  Include MSG_TELEMETRY explicitly to stress the
    # aggregator's staleness handling.
    kinds: Tuple[int, ...] = (MSG_RECORD, MSG_RECORD_SEQ, MSG_CHECKPOINT,
                              MSG_RESULT, MSG_METRICS)
    scope: str = "workers"               # "workers" | "controller" | "both"
    start_after: float = 0.0             # seconds of calm before faults
    duration: Optional[float] = None     # fault window length; None = rest

    def applies_to_workers(self) -> bool:
        return self.scope in ("workers", "both")

    def applies_to_controller(self) -> bool:
        return self.scope in ("controller", "both")


@dataclass(frozen=True)
class RecoveryConfig:
    """Everything ProcessTopology needs to self-heal."""

    respawn: RespawnPolicy = field(default_factory=RespawnPolicy)
    checkpoint: CheckpointPolicy = field(default_factory=CheckpointPolicy)
    chaos: Optional[ChaosConfig] = None
    hello_timeout: float = 5.0        # HELLO handshake deadline (satellite)
    reconnect_attempts: int = 5       # worker socket reconnect budget
    reconnect_backoff: float = 0.05   # base backoff between reconnects
    redelivery_rounds: int = 3        # re-stream passes for lost records
    redelivery_grace: float = 0.75    # idle seconds before declaring loss
    collect_timeout: float = 15.0     # hard bound on the recovery drain


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
        self._born = time.monotonic()
        self._held: Optional[Tuple[int, bytes]] = None
        self._eligible_seen = 0
        self._crash_armed = (
            allow_crash and config.crash_rate > 0.0
            and (not config.crash_incarnations
                 or incarnation in config.crash_incarnations))
        self.dropped = 0
        self.delayed = 0
        self.reordered = 0

    def _in_window(self) -> bool:
        elapsed = time.monotonic() - self._born
        if elapsed < self._config.start_after:
            return False
        if self._config.duration is not None:
            return elapsed < self._config.start_after + self._config.duration
        return True

    def _flush_held(self) -> List[Tuple[int, bytes]]:
        if self._held is None:
            return []
        held, self._held = self._held, None
        return [held]

    def process(self, kind: int, payload: bytes) -> List[Tuple[int, bytes]]:
        config = self._config
        if kind not in config.kinds or not self._in_window():
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
            time.sleep(config.delay_s)
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

def _prefer_key(entry: dict) -> Tuple[int, float, int]:
    """Deterministic, order-independent duplicate preference over
    RESULT ``sent`` entries: lower wins."""
    return (0 if entry.get("answered_at") is not None else 1,
            entry["sent_at"], entry.get("querier_id", -1))


class CheckpointStore:
    """Accumulated result entries per (worker, incarnation).

    A ``CHECKPOINT`` frame is a *delta*: the entries first sent since
    the worker's previous frame, the entries whose fate changed since
    they were last reported (answered after shipping, or re-reported
    because the controller redelivered their record), and the small
    cumulative header (counters, clocks).  The final ``RESULT`` is
    cumulative.  Both fold in by the same two rules:

    * entries upsert by global trace index, an answered copy beating an
      unanswered one (then earliest ``sent_at``, lowest ``querier_id``
      — :func:`merge_recovered`'s preference);
    * the header goes to the highest rank ``(final?, seq)``.

    Each rule is a join, so ``offer`` is idempotent and commutative:
    any permutation of a frame set, with duplicates, leaves the same
    state, and a lost delta is healed by whichever later frame carries
    its entries again (a re-report or the final RESULT).

    The index sets the controller's drain loop asks about are kept up
    to date on offer, so a query costs nothing per stored entry.
    """

    def __init__(self) -> None:
        self._entries: Dict[StoreKey, Dict[int, dict]] = {}
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
        for entry in result.get("sent", ()):
            self.entries_offered += 1
            index = entry["index"]
            current = entries.get(index)
            if current is not None \
                    and _prefer_key(entry) >= _prefer_key(current):
                continue
            entries[index] = entry
            advanced = True
            if index not in self._sent:
                self._sent.add(index)
                if entry.get("answered_at") is None:
                    self._unanswered.add(index)
            elif entry.get("answered_at") is not None:
                self._unanswered.discard(index)
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
        order: its best header over its accumulated entries."""
        out = []
        for key in self.keys():
            snapshot = dict(self._headers[key][1])
            if "aggregate" not in snapshot:
                entries = self._entries[key]
                snapshot["sent"] = [entries[index]
                                    for index in sorted(entries)]
            out.append(snapshot)
        return out

    def has_final(self, worker: Hashable, incarnation: int) -> bool:
        held = self._headers.get((worker, incarnation))
        return held is not None and held[0][0] == 1

    def sent_indices(self,
                     keys: Optional[Iterable[StoreKey]] = None) -> Set[int]:
        """Global trace indices with at least one recorded send."""
        if keys is None:
            return set(self._sent)
        found: Set[int] = set()
        for key in keys:
            found.update(self._entries.get(key, ()))
        return found

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
             tuple((index, entry.get("answered_at") is not None)
                   for index, entry in sorted(self._entries[key].items())))
            for key in self.keys())


# -- exactly-once merge -----------------------------------------------------

def merge_recovered(snapshots: Iterable[dict],
                    name: str = "recovered") -> ReplayResult:
    """Merge result snapshots whose SentQuery indices are *global*.

    Unlike :meth:`ReplayResult.merge` (which re-indexes per-worker
    shards end to end), this dedups by the global trace index: the
    same record sent twice — once by a crashed incarnation, once by
    its redelivery — collapses to one entry, preferring the answered
    copy, then the earliest send.  Dropped copies are counted in
    ``duplicate_merged``.  Counters sum across snapshots; the store
    hands over one snapshot per incarnation, under that incarnation's
    latest cumulative header, so nothing is double-counted.
    """
    merged = ReplayResult(name)
    best: Dict[int, dict] = {}
    duplicates = 0
    for shard in snapshots:
        counters = shard.get("counters", {})
        for counter in _COUNTER_FIELDS:
            setattr(merged, counter,
                    getattr(merged, counter) + counters.get(counter, 0))
        for clock in ("start_clock", "trace_start"):
            theirs = shard.get(clock)
            if theirs is not None:
                ours = getattr(merged, clock)
                setattr(merged, clock,
                        theirs if ours is None else min(ours, theirs))
        for entry in shard.get("sent", ()):
            current = best.get(entry["index"])
            if current is None:
                best[entry["index"]] = entry
                continue
            duplicates += 1
            if _prefer_key(entry) < _prefer_key(current):
                best[entry["index"]] = entry
    merged.sent = [SentQuery.from_dict(best[index])
                   for index in sorted(best)]
    merged.duplicate_merged += duplicates
    return merged


def conservation_violations(result: ReplayResult,
                            expected: int) -> List[str]:
    """Check exactly-once accounting: indices dense, unique, complete."""
    problems: List[str] = []
    indices = [query.index for query in result.sent]
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
