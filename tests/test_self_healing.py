"""Self-healing distributed replay (ISSUE 8).

Four layers, innermost out: the CheckpointStore / merge primitives
(pure, exhaustively unit-tested), the chaos engine's determinism, the
property that *any* frame delivery schedule merges to the clean-run
result, and — under the ``chaos`` marker — real process trees with
deterministic crashes and SIGKILLs that must conserve every record.
"""

import collections
import contextlib
import dataclasses
import functools
import json
import os
import signal
import threading
import time
import types
from unittest import mock

import pytest

from repro.replay import (ChaosConfig, ChaosEngine, CheckpointPolicy,
                          CheckpointStore, DistributedConfig,
                          LiveUdpEchoServer, ProcessTopology,
                          RecoveryConfig, RespawnPolicy,
                          ShardTopology, UdpEchoServerProcess,
                          conservation_violations, merge_recovered,
                          reconnect_with_backoff)
from repro.replay import distributed
from repro.replay.distributed import _LiveDistributor, _LiveQuerier
from repro.replay.protocol import (MSG_CHECKPOINT, MSG_END, MSG_RECORD,
                                   MSG_RECORD_SEQ, MSG_RESULT,
                                   MSG_TIME_SYNC, MessageSocket,
                                   ROLE_QUERIER,
                                   validate_checkpoint_payload)
from repro.replay.result import ReplayResult
from repro.telemetry import TelemetryConfig
from repro.trace import (burst_trace, fixed_interval_trace, shard_path,
                         split_shards)
from repro.verify.generators import (HAVE_HYPOTHESIS, checkpoint_deliveries,
                                     checkpoint_emission_history)


def _result_dict(worker, indices, answered=True, sent_at=None):
    sent = [{"index": index, "source": f"c{index % 4}",
             "trace_time": float(index), "scheduled_at": float(index),
             "sent_at": float(index) if sent_at is None else sent_at,
             "protocol": "udp", "qname": "q.example.com.",
             "answered_at": (float(index) + 0.5) if answered else None,
             "querier_id": worker}
            for index in indices]
    return {"name": f"querier-{worker}", "sent": sent}


class TestCheckpointStore:
    def test_later_seq_wins_and_stale_is_counted(self):
        store = CheckpointStore()
        assert store.offer("w0", 0, 1, _result_dict(0, [0]))
        assert store.offer("w0", 0, 3, _result_dict(0, [0, 1, 2]))
        assert not store.offer("w0", 0, 2, _result_dict(0, [0, 1]))
        assert store.frames_offered == 3
        assert store.frames_stale == 1
        assert store.sent_indices() == {0, 1, 2}

    def test_deltas_accumulate_under_the_latest_header(self):
        """Delta frames: disjoint entries add up; the header (counters)
        is the one with the highest seq, whatever the arrival order."""
        first = dict(_result_dict(0, [0, 1]), counters={"retries": 2})
        second = dict(_result_dict(0, [2]), counters={"retries": 3})
        for order in ((first, 1), (second, 2)), ((second, 2), (first, 1)):
            store = CheckpointStore()
            for result, seq in order:
                assert store.offer("w0", 0, seq, result)
            (snapshot,) = store.snapshots()
            assert [q["index"] for q in snapshot["sent"]] == [0, 1, 2]
            assert snapshot["counters"] == {"retries": 3}
            assert store.covers(3) and not store.covers(4)
            assert store.missing(5) == [3, 4]

    def test_answered_copy_beats_unanswered_in_either_order(self):
        unanswered = _result_dict(0, [0, 1], answered=False)
        answered = _result_dict(0, [1])
        forward, backward = CheckpointStore(), CheckpointStore()
        forward.offer("w0", 0, 1, unanswered)
        forward.offer("w0", 0, 2, answered)
        backward.offer("w0", 0, 2, answered)
        assert not backward.offer("w0", 0, 1,
                                  _result_dict(0, [1], answered=False))
        backward.offer("w0", 0, 1, unanswered)
        assert forward.fingerprint() == backward.fingerprint()
        assert forward.snapshots() == backward.snapshots()
        assert forward.answered_indices() == {1}
        assert forward.progress() == (2, 1)

    def test_lost_delta_is_healed_by_a_re_report(self):
        """Frame seq 2 never arrives; the entry it carried comes again
        in seq 4 and the hole closes, exactly once."""
        store = CheckpointStore()
        store.offer("w0", 0, 1, _result_dict(0, [0]))
        store.offer("w0", 0, 3, _result_dict(0, [2]))
        assert store.missing(3) == [1]
        assert store.offer("w0", 0, 4, _result_dict(0, [1]))
        assert store.covers(3)
        merged = merge_recovered(store.snapshots())
        assert conservation_violations(merged, 3) == []
        assert merged.duplicate_merged == 0

    def test_stale_unanswered_ignores_live_incarnations(self):
        store = CheckpointStore()
        store.offer("w0", 0, 1, _result_dict(0, [0, 1], answered=False))
        store.offer("w1", 0, 1, _result_dict(1, [2], answered=False))
        store.offer("w0", 1, 1, _result_dict(0, [1], answered=False))
        # w0's first incarnation is dead; its respawn re-sent index 1.
        assert store.stale_unanswered([("w0", 1), ("w1", 0)]) == {0}
        store.offer("w1", 0, 2, _result_dict(1, [0]))
        assert store.stale_unanswered([("w0", 1), ("w1", 0)]) == set()

    def test_index_queries_do_not_rescan_entries(self):
        """Linearity: the store folds each offered entry exactly once;
        asking about coverage afterwards touches no stored entry."""
        store = CheckpointStore()
        offered = 0
        for seq in range(1, 101):
            batch = list(range((seq - 1) * 10, seq * 10))
            store.offer("w0", 0, seq, _result_dict(0, batch))
            offered += len(batch)
            assert store.entries_offered == offered
            assert store.covers(offered)
        for entries in store._entries.values():
            entries.clear()     # any rescan would now come up empty
        assert len(store.sent_indices()) == 1000
        assert store.covers(1000) and store.missing(1001) == [1000]
        assert store.progress() == (1000, 0)
        assert store.entries_offered == 1000

    def test_duplicate_offer_is_idempotent(self):
        store = CheckpointStore()
        payload = {"worker": 0, "incarnation": 0, "seq": 2, "final": False,
                   "result": _result_dict(0, [0, 1])}
        assert store.offer_frame("w0", payload)
        assert not store.offer_frame("w0", payload)
        assert store.snapshots() == [_result_dict(0, [0, 1])]

    def test_final_outranks_any_checkpoint_seq(self):
        store = CheckpointStore()
        store.offer("w0", 0, 99, _result_dict(0, [0]))
        assert store.offer("w0", 0, 0, _result_dict(0, [0, 1]), final=True)
        # A late high-seq checkpoint from before the final is stale.
        assert not store.offer("w0", 0, 100, _result_dict(0, [0]))
        assert store.has_final("w0", 0)
        assert store.sent_indices() == {0, 1}

    def test_incarnations_are_tracked_separately(self):
        store = CheckpointStore()
        store.offer("w0", 0, 5, _result_dict(0, [0, 1]))
        store.offer("w0", 1, 1, _result_dict(0, [2]))
        assert len(store.snapshots()) == 2
        assert store.sent_indices() == {0, 1, 2}
        assert not store.has_final("w0", 0)

    def test_answered_indices_filter(self):
        store = CheckpointStore()
        store.offer("w0", 0, 1, _result_dict(0, [0, 1], answered=False))
        store.offer("w1", 0, 1, _result_dict(1, [2]))
        assert store.sent_indices() == {0, 1, 2}
        assert store.answered_indices() == {2}
        assert store.sent_indices(keys=[("w1", 0)]) == {2}


class TestMergeRecovered:
    def test_duplicate_index_collapses_preferring_answered(self):
        crashed = _result_dict(0, [0, 1], answered=False)
        redelivered = _result_dict(1, [1, 2], answered=True)
        merged = merge_recovered([crashed, redelivered])
        assert [q.index for q in merged.sent] == [0, 1, 2]
        by_index = {q.index: q for q in merged.sent}
        assert by_index[1].answered_at is not None     # answered copy won
        assert by_index[1].querier_id == 1
        assert merged.duplicate_merged == 1

    def test_merge_is_order_independent(self):
        a = _result_dict(0, [0, 1], answered=False)
        b = _result_dict(1, [1, 2])
        forward = merge_recovered([a, b]).to_dict()
        backward = merge_recovered([b, a]).to_dict()
        assert forward == backward

    def test_conservation_violations_detects_each_failure_mode(self):
        clean = merge_recovered([_result_dict(0, [0, 1, 2])])
        assert conservation_violations(clean, 3) == []
        missing = merge_recovered([_result_dict(0, [0, 2])])
        assert any("never accounted" in p
                   for p in conservation_violations(missing, 3))
        ghost = merge_recovered([_result_dict(0, [0, 1, 2, 7])])
        assert any("outside the trace" in p
                   for p in conservation_violations(ghost, 3))


class TestChaosEngine:
    CONFIG = ChaosConfig(seed=11, drop_rate=0.3, reorder_rate=0.3,
                         delay_rate=0.0)

    def _run(self, engine, frames=40):
        out = []
        for i in range(frames):
            out.append(engine.process(MSG_RECORD, bytes([i])))
        return out

    def test_same_identity_same_schedule(self):
        first = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=0)
        second = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=0)
        assert self._run(first) == self._run(second)
        assert first.dropped == second.dropped > 0

    def test_incarnation_changes_schedule(self):
        first = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=0)
        respawn = ChaosEngine(self.CONFIG, ROLE_QUERIER, 3, incarnation=1)
        assert self._run(first) != self._run(respawn)

    def test_crash_arming_respects_incarnation_gate(self):
        config = ChaosConfig(seed=1, crash_rate=1.0, crash_incarnations=(0,))
        armed = ChaosEngine(config, ROLE_QUERIER, 0, incarnation=0)
        respawned = ChaosEngine(config, ROLE_QUERIER, 0, incarnation=1)
        disabled = ChaosEngine(config, ROLE_QUERIER, 0, incarnation=0,
                               allow_crash=False)
        assert armed._crash_armed
        assert not respawned._crash_armed
        assert not disabled._crash_armed

    def test_exempt_kind_flushes_held_frame(self):
        config = ChaosConfig(seed=2, reorder_rate=1.0)
        engine = ChaosEngine(config, ROLE_QUERIER, 0)
        assert engine.process(MSG_RECORD, b"a") == []    # held
        # END is exempt: the held data frame must not overtake it... it
        # is released *before* END so the peer still sees all data.
        assert engine.process(MSG_END, b"") \
            == [(MSG_RECORD, b"a"), (MSG_END, b"")]

    def test_drop_releases_held_frame(self):
        config = ChaosConfig(seed=2, reorder_rate=1.0, drop_rate=1.0)
        engine = ChaosEngine(config, ROLE_QUERIER, 0)
        first = engine.process(MSG_RECORD, b"a")
        second = engine.process(MSG_RECORD, b"b")
        # Whatever the interleaving, no frame other than a dropped one
        # may vanish: held frames always resurface.
        emitted = [frame for batch in (first, second) for frame in batch]
        assert len(emitted) + engine.dropped - engine.reordered == 2


class TestPolicies:
    def test_respawn_backoff_is_exponential_and_capped(self):
        policy = RespawnPolicy(backoff_base=0.05, backoff_factor=2.0,
                               backoff_cap=0.15)
        assert policy.backoff(0) == pytest.approx(0.05)
        assert policy.backoff(1) == pytest.approx(0.10)
        assert policy.backoff(2) == pytest.approx(0.15)   # capped
        assert policy.backoff(10) == pytest.approx(0.15)

    def test_checkpoint_policy_due(self):
        policy = CheckpointPolicy(every_records=4, interval_s=0.5)
        assert not policy.due(0, 99.0)          # nothing new: never due
        assert policy.due(4, 0.0)               # record threshold
        assert policy.due(1, 0.5)               # time threshold
        assert not policy.due(3, 0.1)

    def test_reconnect_with_backoff_retries_then_succeeds(self):
        calls = []

        def factory():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("refused")
            return "socket"

        assert reconnect_with_backoff(factory, 5, 0.001) == "socket"
        assert len(calls) == 3

    def test_reconnect_with_backoff_exhausts_to_none(self):
        def factory():
            raise OSError("refused")

        assert reconnect_with_backoff(factory, 2, 0.001) is None

    def test_reconnect_with_backoff_abort(self):
        assert reconnect_with_backoff(
            lambda: "socket", 3, 0.001, abort=lambda: True) is None


class TestCheckpointInterleavings:
    """Satellite (c): any interleaving of CHECKPOINT frames + final
    RESULT with duplicates and reorders merges to the same ReplayResult
    as the clean in-order run."""

    @staticmethod
    def _merge(frames, order):
        store = CheckpointStore()
        for slot in order:
            payload = frames[slot]
            store.offer_frame((1, payload["worker"]), payload)
        return merge_recovered(store.snapshots())

    def _assert_interleaving_clean(self, frames, order, total):
        clean = self._merge(frames, range(len(frames)))
        adversarial = self._merge(frames, order)
        assert adversarial.to_dict() == clean.to_dict()
        assert conservation_violations(adversarial, total) == []

    def test_seeded_interleavings_match_clean_run(self):
        for seed in range(150):
            frames, order, total = checkpoint_deliveries(
                seed, workers=3, total=10)
            self._assert_interleaving_clean(frames, order, total)

    def test_delta_only_interleavings_commute(self):
        """The law does not lean on the cumulative finals: with them
        lost (a crashed incarnation), the deltas alone still merge the
        same in any order, with duplicates."""
        for seed in range(150):
            frames, order, _total = checkpoint_deliveries(
                seed, workers=3, total=10)
            deltas = [slot for slot, frame in enumerate(frames)
                      if not frame["final"]]
            clean = self._merge(frames, deltas)
            adversarial = self._merge(
                frames, [slot for slot in order if slot in deltas])
            assert adversarial.to_dict() == clean.to_dict()

    def test_emission_history_shape(self):
        import random
        frames = checkpoint_emission_history(random.Random(0), workers=2,
                                             total=24)
        finals = [f for f in frames if f["final"]]
        assert sorted(f["worker"] for f in finals) == [0, 1]
        late_answers = 0
        for worker in (0, 1):
            (final,) = [f for f in finals if f["worker"] == worker]
            deltas = [f for f in frames
                      if f["worker"] == worker and not f["final"]]
            assert [f["seq"] for f in deltas + [final]] \
                == list(range(1, len(deltas) + 2))
            # Deltas: an index first appears once; it only comes again
            # as the answer to a copy that left unanswered.
            shipped = {}
            for frame in deltas:
                for entry in frame["result"]["sent"]:
                    if entry["index"] in shipped:
                        assert shipped[entry["index"]] is None
                        assert entry["answered_at"] is not None
                        late_answers += 1
                    shipped[entry["index"]] = entry["answered_at"]
            # The final is cumulative and carries every latest fate.
            fates = {entry["index"]: entry["answered_at"]
                     for entry in final["result"]["sent"]}
            assert set(shipped) <= set(fates)
            for index, answered_at in shipped.items():
                if answered_at is not None:
                    assert fates[index] == answered_at
        assert late_answers > 0

    if HAVE_HYPOTHESIS:
        from hypothesis import given, settings
        from repro.verify.generators import checkpoint_interleavings

        @settings(max_examples=60, deadline=None)
        @given(case=checkpoint_interleavings(workers=2, total=8))
        def test_hypothesis_interleavings_match_clean_run(self, case):
            frames, order, total = case
            self._assert_interleaving_clean(frames, order, total)


# -- delta checkpoints at the querier (no process tree, no real sockets) -----

class _FakeClock:
    """``monotonic``/``sleep`` for ``distributed.time``: time passes only
    in a sleep, which ends exactly when asked.  Tests keep every instant
    a multiple of 2**-14 s so the sums are exact in binary."""

    def __init__(self, now=1024.0):
        self.now = now
        self.sleeps = 0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps += 1
        self.now += seconds


class _ScriptedInbound:
    """Stands in for the distributor link: hands out scripted frames.
    The string ``"quiet"`` is one wait that saw nothing arrive; with a
    ``clock``, a float is the instant the frames behind it arrive."""

    def __init__(self, script, clock=None):
        self.script = collections.deque(script)
        self.clock = clock
        self.received = 0

    def _head(self):
        """The script's next item, past any arrival instant now due."""
        while self.script and isinstance(self.script[0], float) \
                and self.script[0] <= self.clock.now:
            self.script.popleft()
        return self.script[0] if self.script else None

    def has_frame(self):
        return isinstance(self._head(), tuple)

    def receive(self):
        self.received += 1
        return self.script.popleft() if self._head() is not None else None

    def messages(self):
        while (message := self.receive()) is not None:
            yield message
            if message[0] == MSG_END:
                return

    def readable_in(self):
        """Seconds until a wait on this link returns (None: it won't)."""
        head = self._head()
        if head == "quiet":
            self.script.popleft()
            return None
        if isinstance(head, float):
            return head - self.clock.now
        return 0.0          # a frame, or the EOF of a spent script

    def close(self):
        pass


class _LoopbackSocket:
    """Stands in for the UDP socket: echoes every query, readable once
    ``lag`` further queries have been sent and, with a ``clock``,
    ``delay`` seconds have passed."""

    def __init__(self, lag, clock=None, delay=0.0):
        self.lag = lag
        self.clock = clock
        self.delay = delay
        self.sent = 0
        self.empty_reads = 0
        self._echoes = collections.deque()

    def _now(self):
        return self.clock.now if self.clock is not None else 0.0

    def send(self, wire):
        self.sent += 1
        reply = bytearray(wire)
        reply[2] |= 0x80
        self._echoes.append((self.sent + self.lag, self._now() + self.delay,
                             bytes(reply)))

    def readable_in(self):
        if not self._echoes or self._echoes[0][0] > self.sent:
            return None
        return max(self._echoes[0][1] - self._now(), 0.0)

    def recv(self, _size):
        if self.readable_in() != 0.0:
            self.empty_reads += 1
            raise BlockingIOError
        return self._echoes.popleft()[2]

    def close(self):
        pass


def _scripted_select(clock=None, observe=None):
    """The querier's one blocking call (``select.select``), answered
    from whichever of the two fakes it watches."""
    sleep = clock.sleep if clock is not None \
        else lambda seconds: time.sleep(min(seconds, 0.01))

    def select(watched, _writers, _errors, timeout):
        if observe is not None:
            observe(watched)
        delays = [fake.readable_in() for fake in watched]
        pause = min([delay for delay in delays if delay is not None]
                    + [timeout])
        if pause > 0.0:
            sleep(pause)
        return [fake for fake, delay in zip(watched, delays)
                if delay is not None and delay <= pause], [], []

    return types.SimpleNamespace(select=select)


def _seq_frames(trace, indices=None):
    records = sorted(trace.records, key=lambda r: r.timestamp)
    chosen = range(len(records)) if indices is None else indices
    return [(MSG_RECORD_SEQ, (index, records[index])) for index in chosen]


def _drive_querier(script, policy, lag=0, clock=None, delay=0.0,
                   observe=None):
    """Run a _LiveQuerier over a script; returns it, its fake UDP
    socket and the CHECKPOINT ``result`` members it emitted.  With a
    ``clock`` the querier runs on fake time throughout."""
    with contextlib.ExitStack() as stack:
        if clock is not None:
            stack.enter_context(
                mock.patch.object(distributed, "time", clock))
        result = ReplayResult("querier-0")
        querier = _LiveQuerier(0, _ScriptedInbound(script, clock),
                               ("127.0.0.1", 9), result, threading.Lock())
        querier._sock.close()
        querier._sock = wire = _LoopbackSocket(lag, clock, delay)
        frames = []
        querier.checkpoint_policy = policy
        querier.checkpoint_sink = frames.append
        stack.enter_context(mock.patch.object(
            distributed, "select", _scripted_select(
                clock, observe and functools.partial(observe, querier))))
        querier.run()
    return querier, wire, frames


class TestDeltaCheckpoints:
    COUNT_ONLY = CheckpointPolicy(every_records=64, interval_s=3600.0)

    def _measure(self, count, lag):
        trace = fixed_interval_trace(interval=0.001, duration=count / 1000,
                                     client_count=16)
        assert len(trace.records) == count
        querier, wire, frames = _drive_querier(
            _seq_frames(trace) + [(MSG_END, None)], self.COUNT_ONLY, lag)
        assert wire.sent == count
        for frame in frames:
            validate_checkpoint_payload(
                {"worker": 0, "incarnation": 0, "seq": 1, "result": frame})
        entries = sum(len(frame["sent"]) for frame in frames)
        payload = sum(len(json.dumps(frame)) for frame in frames)
        # The deltas plus the cumulative final account for every record.
        store = CheckpointStore()
        for seq, frame in enumerate(frames, start=1):
            store.offer("w0", 0, seq, frame)
        store.offer("w0", 0, 0, querier.result.to_dict(), final=True)
        merged = merge_recovered(store.snapshots())
        assert conservation_violations(merged, count) == []
        return entries, payload

    def test_frames_are_linear_in_records(self):
        """Count-based, no wall clock: every entry is serialised at
        most twice (first send, late answer) whatever N is, and the
        bytes shipped per record do not grow with N."""
        per_record = {}
        for count in (1000, 8000):
            # Echoes readable at once: each entry ships exactly once.
            prompt, _ = self._measure(count, lag=0)
            assert count - 64 <= prompt <= count
            # Echoes 100 sends late: every entry ships unanswered, then
            # again as an answer update.
            late, payload = self._measure(count, lag=100)
            assert count < late <= 2 * count + 64
            per_record[count] = payload / count
        assert per_record[8000] == pytest.approx(per_record[1000], rel=0.10)

    def test_redelivered_record_is_dropped_and_re_reported(self):
        trace = fixed_interval_trace(interval=0.001, duration=0.01,
                                     client_count=4)
        # The copy comes a wait later, as a redelivery round does: in
        # the same block as the original it would find index 3 still
        # queued and have nothing to re-report.
        script = (_seq_frames(trace) + ["quiet"] + _seq_frames(trace, [3])
                  + [(MSG_END, None)])
        querier, wire, frames = _drive_querier(
            script, CheckpointPolicy(every_records=1, interval_s=3600.0))
        assert wire.sent == 10              # no second query on the wire
        assert querier.redundant_records == 1
        assert len(querier.result.sent) == 10
        reported = [entry["index"] for frame in frames
                    for entry in frame["sent"]]
        assert sorted(reported) == sorted(list(range(10)) + [3])

    def test_quiet_tail_flushes_re_reports_within_the_interval(self):
        """No new send ever comes, yet the re-report must not wait for
        the final RESULT: pending news alone makes a frame due."""
        trace = fixed_interval_trace(interval=0.001, duration=0.006,
                                     client_count=4)
        script = (_seq_frames(trace) + ["quiet"] * 10
                  + _seq_frames(trace, [2]) + ["quiet"] * 10
                  + [(MSG_END, None)])
        _querier, wire, frames = _drive_querier(
            script, CheckpointPolicy(every_records=64, interval_s=0.03))
        assert wire.sent == 6
        assert [entry["index"] for entry in frames[-1]["sent"]] == [2]
        assert sorted(entry["index"] for frame in frames[:-1]
                      for entry in frame["sent"]) == list(range(6))


class _CountingSocket:
    """Stands in for a querier link's TCP socket: counts the writes,
    and with a ``clock`` keeps each with the instant it was made."""

    def __init__(self, clock=None):
        self.writes = 0
        self.clock = clock
        self.written = []       # (fake instant, bytes)

    def sendall(self, data):
        self.writes += 1
        if self.clock is not None:
            self.written.append((self.clock.now, bytes(data)))

    def close(self):
        pass


def _spaced(count, gap):
    """``count`` unique-name records ``gap`` seconds apart from 0."""
    return [dataclasses.replace(record, timestamp=index * gap)
            for index, record in enumerate(burst_trace(count).records)]


class TestSyscallBudget:
    """ISSUE 19: the data plane works a block at a time.  Counted on the
    fakes, so no wall clock: socket writes per record at the distributor,
    reads that find nothing per record at the querier."""

    COUNT = 4096

    def _flood_script(self):
        records = burst_trace(self.COUNT).records
        return ([(MSG_TIME_SYNC, 0.0)]
                + [(MSG_RECORD, record) for record in records]
                + [(MSG_END, None)])

    def test_distributor_writes_one_block_per_many_records(self):
        links = [_CountingSocket(), _CountingSocket()]
        distributor = _LiveDistributor(
            0, _ScriptedInbound(self._flood_script()),
            [MessageSocket(link) for link in links])
        distributor.run()
        assert distributor.records_routed == self.COUNT
        # The parent wrote once per record (4 096 + 4).
        assert sum(link.writes for link in links) <= self.COUNT // 64 + 4
        assert 0 < distributor.record_batches <= self.COUNT // 64

    @pytest.mark.parametrize("lag", [0, 40])
    def test_querier_reads_answers_a_block_at_a_time(self, lag):
        querier, wire, _frames = _drive_querier(
            self._flood_script(), TestDeltaCheckpoints.COUNT_ONLY, lag)
        assert wire.sent == self.COUNT
        # (The fake's last ``lag`` echoes never turn readable.)
        assert sum(entry.answered_at is not None
                   for entry in querier.result.sent) == self.COUNT - lag
        # The parent tried one read after every send and found nothing
        # about as often (200 166 reads for 100 000 answers).
        assert wire.empty_reads <= self.COUNT // 16 + 8

    # -- ISSUE 24: a paced replay sleeps once per send ---------------------

    def _pace(self, tmp_path, records, pace_lead):
        """``run_shard_file`` over ``records`` on a fake clock: the
        distributor and its one link, every write with its instant."""
        directory = str(tmp_path / "shards")
        manifest = split_shards(iter(records), directory, 1)
        clock = _FakeClock()
        link = _CountingSocket(clock)
        distributor = _LiveDistributor(
            0, _ScriptedInbound([(MSG_TIME_SYNC, 0.0), (MSG_END, None)]),
            [MessageSocket(link)])
        with mock.patch.object(distributed, "time", clock):
            distributor.run_shard_file(shard_path(directory, 0, manifest),
                                       read_ahead=0, pace_lead=pace_lead)
        assert distributor.records_routed == len(records)
        assert distributor.pace_sleeps == clock.sleeps
        return distributor, link

    @staticmethod
    def _reference_frames(records):
        """What a record-at-a-time distributor writes: one frame each."""
        link = _CountingSocket(_FakeClock())
        outbound = MessageSocket(link)
        outbound.send_time_sync(0.0)
        for record in records:
            outbound.send_record(record)
        outbound.send_end()
        return [data for _instant, data in link.written]

    def test_distributor_sleeps_once_per_quantum(self, tmp_path):
        """2 048 records 2**-13 s (0.12 ms) apart, forwarded 2**-5 s
        ahead: the parent flushed and slept before every record past the
        lead (1 792 of them)."""
        gap, lead = 2.0 ** -13, 2.0 ** -5
        records = _spaced(2048, gap)
        distributor, link = self._pace(tmp_path, records, lead)
        budget = (records[-1].timestamp - lead) / distributed._PACE_QUANTUM + 4
        assert 0 < distributor.pace_sleeps <= budget
        assert link.writes <= budget + 2            # TIME_SYNC, END
        # Byte-identical frames in the same order...
        frames = self._reference_frames(records)
        assert b"".join(data for _at, data in link.written) \
            == b"".join(frames)
        # ...and none on the wire later than its timestamp less the lead.
        writes = iter(link.written)
        instant, covered, offset = None, 0, len(frames[0])
        for record, frame in zip(records, frames[1:]):
            offset += len(frame)
            while covered < offset:
                instant, data = next(writes)
                covered += len(data)
            assert instant - distributor.sync_mono \
                <= max(record.timestamp - lead, 0.0)

    def test_distributor_sleeps_once_per_sparse_record(self, tmp_path):
        """Gaps wider than the quantum: one sleep and one write per
        record past the lead, each exactly on time, as at the parent."""
        gap, lead = 2.0 ** -4, 2.0 ** -2
        assert gap > distributed._PACE_QUANTUM
        records = _spaced(20, gap)
        distributor, link = self._pace(tmp_path, records, lead)
        paced = [record.timestamp - lead for record in records
                 if record.timestamp > lead]
        assert distributor.pace_sleeps == len(paced) == 15
        # TIME_SYNC, then the head ahead of the first sleep; every later
        # record is written at its wake (the last one with END).
        assert [at - distributor.sync_mono for at, _data in link.written] \
            == [0.0, 0.0] + paced
        assert b"".join(data for _at, data in link.written) \
            == b"".join(self._reference_frames(records))

    def test_paced_querier_wakes_once_per_send(self):
        """4 096 records 2**-12 s (0.24 ms) apart, a 1 024-record head
        and then a 64-record block per 2**-6 s, answers 2**-14 s after
        each send.  The parent woke for the answer as well: 2 to 3
        waits per send."""
        gap, delay, block = 2.0 ** -12, 2.0 ** -14, 64
        clock = _FakeClock()
        first_due = clock.now + 2.0 ** -5       # the start_delay lead-in
        records = _spaced(self.COUNT, gap)
        script = [(MSG_TIME_SYNC, -(2.0 ** -5))]
        script += [(MSG_RECORD, record) for record in records[:1024]]
        blocks = 1024 // distributed._FRAME_BLOCK
        for head in range(1024, self.COUNT, block):
            # Each block lands 2**-5 s ahead of its first record.
            script.append(first_due + head * gap - 2.0 ** -5)
            script += [(MSG_RECORD, record)
                       for record in records[head:head + block]]
            blocks += 1
        script.append((MSG_END, None))
        seen = collections.Counter()

        def observe(querier, watched):
            link, wire = querier.inbound, querier._sock
            # Fake time passes only inside a wait, so this one begins
            # the instant the last returned: what was readable then has
            # been read, behind at most one block of frames.
            assert wire.readable_in() != 0.0
            assert link.received - seen["received"] \
                <= distributed._FRAME_BLOCK
            seen["received"] = link.received
            due_in = querier._queue[0][0] - clock.now \
                if querier._queue else None
            if due_in is None or due_in > distributed._ANSWER_DEFER:
                assert wire in watched
            seen["waits"] += 1
            seen["deferred"] += wire not in watched

        querier, wire, _frames = _drive_querier(
            script, TestDeltaCheckpoints.COUNT_ONLY, clock=clock,
            delay=delay, observe=observe)
        sent = querier.result.sent
        assert wire.sent == len(sent) == self.COUNT
        assert querier.wakes == seen["waits"] <= self.COUNT + blocks + 8
        assert seen["deferred"] >= self.COUNT - 8
        # The lead-in: the head of the stream is in the queue before the
        # first send is due, and every send leaves on its instant.
        assert sent[0].scheduled_at == first_due > 1024.0
        assert all(entry.sent_at == entry.scheduled_at
                   == first_due + entry.trace_time for entry in sent)
        # Every answer is matched, stamped within the deferral of its
        # arrival.
        assert querier.result.unmatched_responses == 0
        assert all(0.0 <= entry.answered_at - (entry.sent_at + delay)
                   <= distributed._ANSWER_DEFER for entry in sent)


# -- end-to-end crash recovery (real process trees) --------------------------

def _recovering_config(distributors=1, queriers=2, chaos=None):
    return DistributedConfig(
        distributors=distributors, queriers_per_distributor=queriers,
        settle_time=0.5, recovery=RecoveryConfig(chaos=chaos))


@pytest.mark.chaos
class TestCrashRecoveryEndToEnd:
    def test_clean_recovery_run_has_no_overhead_effects(self):
        """Recovery mode with no faults: same conservation guarantees,
        zero respawns, zero redeliveries."""
        trace = fixed_interval_trace(interval=0.002, duration=0.3,
                                     client_count=8)
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config())
            result = topology.replay(trace)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns == 0
        assert result.redelivered_records == 0

    def test_chaos_crash_is_respawned_and_conserved(self):
        """Queriers crash deterministically on their first incarnation;
        the respawned incarnation finishes the shard and the merge
        accounts for every record exactly once."""
        trace = fixed_interval_trace(interval=0.002, duration=0.4,
                                     client_count=8)
        chaos = ChaosConfig(seed=7, crash_rate=1.0, crash_after_frames=30,
                            crash_incarnations=(0,))
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config(chaos=chaos))
            result = topology.replay(trace)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns >= 1
        assert result.redelivered_records > 0

    def test_dropped_checkpoint_frames_heal_without_a_second_query(self):
        """A quarter of the CHECKPOINT frames never arrive.  The holes
        close by redelivery + re-report (or the final RESULT), and the
        server sees every query exactly once: the live queriers drop
        the redelivered copies instead of sending them again."""
        trace = fixed_interval_trace(interval=0.001, duration=1.0,
                                     client_count=16)
        chaos = ChaosConfig(seed=5, drop_rate=0.25, kinds=(MSG_CHECKPOINT,))
        with LiveUdpEchoServer() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config(chaos=chaos))
            result = topology.replay(trace)
            queries_seen = echo.responses_sent
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns == 0 and result.duplicate_merged == 0
        assert result.redelivered_records > 0
        assert queries_seen == len(trace.records)
        assert all(q.answered_at is not None for q in result.sent)
        assert topology.metrics.count("replay.redundant_records") \
            == result.redelivered_records

    def test_sigkill_two_of_four_queriers_conserves(self):
        """ISSUE acceptance: a 4-querier process replay with 2 workers
        SIGKILLed mid-run completes with conserved per-class counts."""
        trace = fixed_interval_trace(interval=0.002, duration=1.2,
                                     client_count=16)
        with UdpEchoServerProcess() as echo:
            topology = ProcessTopology(
                (echo.address, echo.port),
                _recovering_config(distributors=2, queriers=2))

            def assassin():
                time.sleep(0.4)
                for handle in (topology.querier_handles[0],
                               topology.querier_handles[2]):
                    if handle.pid is not None:
                        os.kill(handle.pid, signal.SIGKILL)

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            result = topology.replay(trace)
            killer.join(timeout=1.0)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns == 2
        answered = sum(1 for q in result.sent if q.answered_at is not None)
        assert answered == len(trace.records)

    @staticmethod
    def _crash_both_shards_while_reporting(telemetry_config=None):
        chaos = ChaosConfig(seed=3, crash_rate=1.0, kinds=(MSG_RESULT,),
                            crash_incarnations=(0,))
        topology = ShardTopology(
            2,
            trace_factory=("repro.trace.synthetic", "zipf_trace",
                           {"query_count": 400, "client_count": 16,
                            "server": "10.0.0.2"}),
            recovery=RecoveryConfig(chaos=chaos),
            collect_timeout=60.0, telemetry_config=telemetry_config)
        result = topology.replay()
        assert len(result.sent) == 400
        assert topology.lost_shards == 0
        assert topology.respawns == 2
        assert result.respawns == 2
        return topology

    def test_shard_topology_respawns_crashed_replicas(self):
        """ROLE_SHARD replicas ride the same respawn path: shards that
        crash while reporting are rerun deterministically."""
        self._crash_both_shards_while_reporting()

    def test_shard_respawn_with_telemetry_interleaved(self):
        """Same crashes with streaming on: TELEMETRY frames interleave
        with RESULT on the one shared reader, for both lives of both
        shards."""
        topology = self._crash_both_shards_while_reporting(
            TelemetryConfig(stream_period=0.02))
        assert {(view.worker_id, view.incarnation)
                for view in topology.cluster.workers()} \
            == {(0, 0), (0, 1), (1, 0), (1, 1)}
