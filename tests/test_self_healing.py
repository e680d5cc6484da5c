"""Self-healing distributed replay (ISSUE 8).

Four layers, innermost out: the CheckpointStore / merge primitives
(pure, exhaustively unit-tested), the chaos engine's determinism, the
property that *any* frame delivery schedule merges to the clean-run
result, and — under the ``chaos`` marker — real process trees with
deterministic crashes and SIGKILLs that must conserve every record.
"""

import collections
import dataclasses
import json
import os
import signal
import struct
import threading
import time
from unittest import mock

import pytest

from repro.replay import (ChaosConfig, ChaosEngine, CheckpointPolicy,
                          CheckpointStore, DistributedConfig,
                          ProcessTopology, RecoveryConfig, ShardTopology,
                          conservation_violations, merge_recovered,
                          reconnect_with_backoff)
from repro.replay import distributed
from repro.replay.distributed import _LiveDistributor, _LiveQuerier
from repro.replay.protocol import (MSG_CHECKPOINT, MSG_END, MSG_RECORD,
                                   MSG_RESULT, MSG_SHUTDOWN, MSG_TIME_SYNC,
                                   MessageSocket, ROLE_QUERIER,
                                   validate_checkpoint_payload)
from repro.dns import wire as wire_module
from repro.replay.recovery import SETTLE_S
from repro.replay.result import (SENT_FIELDS, ReplayResult, SentQuery,
                                 sent_rows)
from repro.server import LiveDnsServer
from repro.dns import Name, WireError
from repro.telemetry import TelemetryConfig
from repro.trace import (QueryRecord, burst_trace, fixed_interval_trace,
                         shard_path, split_shards, zipf_trace)
from repro.trace import binfmt
from repro.trace.binfmt import TraceFormatError, pack_record_body
from repro.verify.generators import (HAVE_HYPOTHESIS, checkpoint_deliveries,
                                     checkpoint_emission_history,
                                     hostile_wires)

from live_fakes import (FakeClock, LoopbackSocket, ScriptedInbound,
                        drive_querier, scripted_select)


def _result_dict(worker, indices, answered=True, sent_at=None):
    sent = [SentQuery(index, f"c{index % 4}", float(index), float(index),
                      float(index) if sent_at is None else sent_at,
                      "udp", "q.example.com.",
                      answered_at=(float(index) + 0.5) if answered else None,
                      querier_id=worker)
            for index in indices]
    return {"name": f"querier-{worker}",
            "sent": ReplayResult().to_dict(sent)["sent"]}


def _rows(table):
    """The entries of a ``sent`` table, one dict per row."""
    return [dict(zip(SENT_FIELDS, row)) for row in sent_rows(table)]


class TestCheckpointStore:
    def test_later_seq_wins_and_stale_is_counted(self):
        store = CheckpointStore()
        assert store.offer("w0", 0, 1, _result_dict(0, [0]))
        assert store.offer("w0", 0, 3, _result_dict(0, [0, 1, 2]))
        assert not store.offer("w0", 0, 2, _result_dict(0, [0, 1]))
        assert store.frames_offered == 3
        assert store.frames_stale == 1
        assert store.progress()[0] == 3 and store.missing(3) == []

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
            assert snapshot["sent"]["index"] == [0, 1, 2]
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
        assert store.progress()[0] == 1000
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
        store.offer("w0", 0, 99, dict(_result_dict(0, [0]),
                                      counters={"retries": 99}))
        assert store.offer("w0", 0, 0, dict(_result_dict(0, [0, 1]),
                                            counters={"retries": 1}),
                           final=True)
        # A late high-seq checkpoint from before the final is stale: the
        # final's header stays.
        assert not store.offer("w0", 0, 100, dict(_result_dict(0, [0]),
                                                  counters={"retries": 100}))
        (snapshot,) = store.snapshots()
        assert snapshot["counters"] == {"retries": 1}
        assert store.progress()[0] == 2 and store.missing(2) == []

    def test_incarnations_are_tracked_separately(self):
        store = CheckpointStore()
        store.offer("w0", 0, 5, _result_dict(0, [0, 1]))
        store.offer("w0", 1, 1, _result_dict(0, [2]))
        assert [snapshot["sent"]["index"]
                for snapshot in store.snapshots()] == [[0, 1], [2]]
        assert store.progress()[0] == 3 and store.missing(3) == []

    def test_answered_indices_filter(self):
        store = CheckpointStore()
        store.offer("w0", 0, 1, _result_dict(0, [0, 1], answered=False))
        store.offer("w1", 0, 1, _result_dict(1, [2]))
        assert store.progress()[0] == 3 and store.missing(3) == []
        assert store.answered_indices() == {2}
        assert [snapshot["sent"]["index"]
                for snapshot in store.snapshots()] == [[0, 1], [2]]


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
                for entry in _rows(frame["result"]["sent"]):
                    if entry["index"] in shipped:
                        assert shipped[entry["index"]] is None
                        assert entry["answered_at"] is not None
                        late_answers += 1
                    shipped[entry["index"]] = entry["answered_at"]
            # The final is cumulative and carries every latest fate.
            fates = {entry["index"]: entry["answered_at"]
                     for entry in _rows(final["result"]["sent"])}
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

def _seq_frames(trace, indices=None):
    records = sorted(trace.records, key=lambda r: r.timestamp)
    chosen = range(len(records)) if indices is None else indices
    return [(MSG_RECORD, (index, pack_record_body(records[index])))
            for index in chosen]


class TestDeltaCheckpoints:
    COUNT_ONLY = CheckpointPolicy(every_records=64, interval_s=3600.0)

    def _measure(self, count, lag):
        trace = fixed_interval_trace(interval=0.001, duration=count / 1000,
                                     client_count=16)
        assert len(trace.records) == count
        querier, wire, frames = drive_querier(
            _seq_frames(trace) + [(MSG_END, None)], self.COUNT_ONLY, lag)
        assert wire.sent == count
        for frame in frames:
            validate_checkpoint_payload(
                {"worker": 0, "incarnation": 0, "seq": 1, "result": frame})
        entries = sum(len(frame["sent"]["index"]) for frame in frames)
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
        querier, wire, frames = drive_querier(
            script, CheckpointPolicy(every_records=1, interval_s=3600.0))
        assert wire.sent == 10              # no second query on the wire
        assert querier.redundant_records == 1
        assert len(querier.result.sent) == 10
        reported = [index for frame in frames
                    for index in frame["sent"]["index"]]
        assert sorted(reported) == sorted(list(range(10)) + [3])

    def test_quiet_tail_flushes_re_reports_within_the_interval(self):
        """No new send ever comes, yet the re-report must not wait for
        the final RESULT: pending news alone makes a frame due."""
        trace = fixed_interval_trace(interval=0.001, duration=0.006,
                                     client_count=4)
        script = (_seq_frames(trace) + ["quiet"] * 10
                  + _seq_frames(trace, [2]) + ["quiet"] * 10
                  + [(MSG_END, None)])
        _querier, wire, frames = drive_querier(
            script, CheckpointPolicy(every_records=64, interval_s=0.03))
        assert wire.sent == 6
        assert frames[-1]["sent"]["index"] == [2]
        assert sorted(index for frame in frames[:-1]
                      for index in frame["sent"]["index"]) == list(range(6))


class TestEventDrivenTail:
    """A querier's run ends on events, not timers: after END it settles
    only while something it sent is unanswered, and its last checkpoint
    leaves when its send queue runs dry.  On the fake clock, so every
    instant is exact: ten records due at once, END 2**-6 s later."""

    SETTLE = SETTLE_S

    @staticmethod
    def _script(end_at):
        trace = fixed_interval_trace(interval=0.001, duration=0.01,
                                     client_count=4)
        return _seq_frames(trace) + [end_at, (MSG_END, None)]

    @pytest.mark.parametrize("aggregate", [False, True])
    def test_answered_querier_returns_when_end_is_read(self, aggregate):
        clock = FakeClock()
        end_at = clock.now + 2.0 ** -6
        querier, wire, _frames = drive_querier(
            self._script(end_at), clock=clock, aggregate=aggregate)
        assert wire.sent == 10
        assert querier.result.unanswered() == 0
        assert clock.now == end_at          # the parent settled 0.2 s more

    def test_settle_ends_at_the_last_answer(self):
        clock = FakeClock()
        sent_at = clock.now
        querier, wire, _frames = drive_querier(
            self._script(sent_at + 2.0 ** -6), clock=clock,
            delay=2.0 ** -4)
        assert wire.sent == 10
        assert querier.result.unanswered() == 0
        assert clock.now == sent_at + 2.0 ** -4

    @pytest.mark.parametrize("lag,answered", [(None, 0), (3, 7)])
    def test_unanswered_send_keeps_the_whole_window(self, lag, answered):
        """A lost answer still gets the full settle: the answered count
        is what the fixed window gave."""
        clock = FakeClock()
        end_at = clock.now + 2.0 ** -6
        querier, wire, _frames = drive_querier(
            self._script(end_at), lag=lag, clock=clock)
        assert wire.sent == 10
        assert 10 - querier.result.unanswered() == answered
        assert clock.now == end_at + self.SETTLE

    def test_last_checkpoint_leaves_when_the_queue_runs_dry(self):
        """No cadence would ever fire (64 entries or an hour), yet the
        ten entries go out in one frame the wake their sends emptied
        the queue, three waits before END is read.  The parent held
        them to the final RESULT."""
        trace = fixed_interval_trace(interval=0.001, duration=0.01,
                                     client_count=4)
        script = _seq_frames(trace) + ["quiet"] * 3 + [(MSG_END, None)]
        news_at_wait = []

        def observe(querier, _watched):
            if not querier._done_receiving:
                news_at_wait.append(querier.ledger.news)

        _querier, wire, frames = drive_querier(
            script, TestDeltaCheckpoints.COUNT_ONLY, clock=FakeClock(),
            observe=observe)
        assert wire.sent == 10
        assert [frame["sent"]["index"] for frame in frames] \
            == [list(range(10))]
        assert len(news_at_wait) >= 4 and not any(news_at_wait)


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


class _ByteLink(MessageSocket):
    """A distributor link replaying captured bytes, 64 KiB per read, for
    the querier's real frame intake; counts the blocks taken."""

    class _Stream:
        def __init__(self, data):
            self.data = data

        def recv(self, size):
            taken, self.data = self.data[:size], self.data[size:]
            return taken

        def close(self):
            pass

    def __init__(self, data):
        super().__init__(self._Stream(data))
        self.blocks = 0

    def receive_block(self, limit):
        self.blocks += 1
        return super().receive_block(limit)

    def readable_in(self):
        return 0.0          # bytes, or the EOF after them


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
                + [(MSG_RECORD, (index, pack_record_body(record)))
                   for index, record in enumerate(records)]
                + [(MSG_END, None)])

    def test_distributor_writes_one_block_per_many_records(self):
        links = [_CountingSocket(), _CountingSocket()]
        distributor = _LiveDistributor(
            0, ScriptedInbound(self._flood_script()),
            [MessageSocket(link) for link in links])
        distributor.run()
        assert distributor.records_routed == self.COUNT
        # The parent wrote once per record (4 096 + 4).
        assert sum(link.writes for link in links) <= self.COUNT // 64 + 4
        assert 0 < distributor.record_batches <= self.COUNT // 64

    @pytest.mark.parametrize("lag", [0, 40])
    def test_querier_reads_answers_a_block_at_a_time(self, lag):
        querier, wire, _frames = drive_querier(
            self._flood_script(), TestDeltaCheckpoints.COUNT_ONLY, lag)
        assert wire.sent == self.COUNT
        # (The fake's last ``lag`` echoes never turn readable.)
        assert sum(entry.answered_at is not None
                   for entry in querier.result.sent) == self.COUNT - lag
        # The parent tried one read after every send and found nothing
        # about as often (200 166 reads for 100 000 answers).
        assert wire.empty_reads <= self.COUNT // 16 + 8

    # -- records cross the live tree as bytes --------------------------------

    def test_aggregate_replay_decodes_no_record(self, tmp_path, monkeypatch):
        """A shard file through the distributor and an aggregate querier,
        the querier reading the distributor's very bytes through its real
        frame intake: no ``QueryRecord`` is built in either tier (the
        parent built 2 × 4 096), and the frames come in at most
        ⌈N / _FRAME_BLOCK⌉ + 8 blocks (the parent: one per frame)."""
        directory = str(tmp_path / "shards")
        manifest = split_shards(iter(burst_trace(self.COUNT).records),
                                directory, 1)
        built = collections.Counter()
        post_init, unpack = QueryRecord.__post_init__, binfmt.unpack_record_body

        def counting_post_init(record):
            built["QueryRecord"] += 1
            post_init(record)

        def counting_unpack(body):
            built["unpack_record_body"] += 1
            return unpack(body)

        monkeypatch.setattr(QueryRecord, "__post_init__", counting_post_init)
        monkeypatch.setattr(binfmt, "unpack_record_body", counting_unpack)
        link = _CountingSocket(FakeClock())
        distributor = _LiveDistributor(
            0, ScriptedInbound([(MSG_TIME_SYNC, 0.0), (MSG_END, None)]),
            [MessageSocket(link)])
        with mock.patch.object(distributed, "select", scripted_select()):
            distributor.run_shard_file(shard_path(directory, 0, manifest),
                                       pace_lead=0.0)
        inbound = _ByteLink(b"".join(data for _at, data in link.written))
        result = ReplayResult("querier-0", aggregate=True)
        querier = _LiveQuerier(0, inbound, ("127.0.0.1", 9), result,
                               threading.Lock())
        querier._sock.close()
        querier._sock = wire = LoopbackSocket(0)
        with mock.patch.object(distributed, "select", scripted_select()):
            querier.run()
        assert built == {}
        assert distributor.records_routed == wire.sent == self.COUNT
        assert result.sent_count == result.answered_count == self.COUNT
        assert inbound.blocks <= -(-self.COUNT // distributed._FRAME_BLOCK) + 8

    @pytest.mark.parametrize("how", ["protocol", "wire-length"])
    def test_corrupt_shard_record_is_refused_by_the_distributor(
            self, tmp_path, how):
        """A record whose protocol index or wire length lies is refused
        where the parent refused it — the distributor reading its shard
        file, with TraceFormatError — after the records before it went
        out and with END still sent downstream."""
        records = burst_trace(10).records
        directory = str(tmp_path / "shards")
        manifest = split_shards(iter(records), directory, 1)
        path = shard_path(directory, 0, manifest)
        with open(path, "rb") as stream:
            data = bytearray(stream.read())
        offset = 16                     # file header + chunk header
        for _ in range(5):
            offset += 4 + int.from_bytes(data[offset:offset + 4], "big")
        body = offset + 4               # record 5's body
        if how == "protocol":
            data[body + 20] = 7
        else:
            data[body + 22:body + 24] = (
                int.from_bytes(data[body + 22:body + 24], "big") + 1
            ).to_bytes(2, "big")
        with open(path, "wb") as stream:
            stream.write(data)
        link = _CountingSocket(FakeClock())
        distributor = _LiveDistributor(
            0, ScriptedInbound([(MSG_TIME_SYNC, 0.0), (MSG_END, None)]),
            [MessageSocket(link)])
        with mock.patch.object(distributed, "select", scripted_select()), \
                pytest.raises(TraceFormatError, match="bad protocol index"
                              "|truncated message wire"):
            distributor.run_shard_file(path, pace_lead=0.0)
        assert distributor.records_routed == 5
        assert b"".join(data for _at, data in link.written) \
            == b"".join(self._reference_frames(records[:5]))

    # -- ISSUE 24: a paced replay sleeps once per send ---------------------

    def _pace(self, tmp_path, records, pace_lead):
        """``run_shard_file`` over ``records`` on a fake clock: the
        distributor and its one link, every write with its instant."""
        directory = str(tmp_path / "shards")
        manifest = split_shards(iter(records), directory, 1)
        clock = FakeClock()
        link = _CountingSocket(clock)
        distributor = _LiveDistributor(
            0, ScriptedInbound([(MSG_TIME_SYNC, 0.0), (MSG_END, None)]),
            [MessageSocket(link)])
        with mock.patch.object(distributed, "time", clock), \
                mock.patch.object(distributed, "select",
                                  scripted_select(clock)):
            distributor.run_shard_file(shard_path(directory, 0, manifest),
                                       pace_lead=pace_lead)
        assert distributor.records_routed == len(records)
        assert distributor.pace_sleeps == clock.sleeps
        return distributor, link

    @staticmethod
    def _reference_frames(records):
        """What a record-at-a-time distributor writes: one frame each."""
        link = _CountingSocket(FakeClock())
        outbound = MessageSocket(link)
        outbound.send_time_sync(0.0)
        for index, record in enumerate(records):
            outbound.send_record_seq(index, record)
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

    def test_distributor_stops_its_shard_on_shutdown(self, tmp_path):
        """The deadline's SHUTDOWN lands 2**-3 s after the anchor, in
        the middle of the test above's 0.25 s shard: the distributor
        sees it at its next pacing sleep, routes nothing more and sheds
        the rest of the shard.  The parent never read its control link
        past END and routed all 2 048 records."""
        gap, lead = 2.0 ** -13, 2.0 ** -5
        records = _spaced(2048, gap)
        directory = str(tmp_path / "shards")
        manifest = split_shards(iter(records), directory, 1)
        clock = FakeClock()
        inbound = ScriptedInbound(
            [(MSG_TIME_SYNC, 0.0), (MSG_END, None),
             clock.now + 2.0 ** -3, (MSG_SHUTDOWN, None)], clock)
        result = ReplayResult("distributor-0")
        distributor = _LiveDistributor(
            0, inbound, [MessageSocket(_CountingSocket(clock))],
            result=result, lock=threading.Lock())
        with mock.patch.object(distributed, "time", clock), \
                mock.patch.object(distributed, "select",
                                  scripted_select(clock)):
            distributor.run_shard_file(shard_path(directory, 0, manifest),
                                       pace_lead=lead, records=len(records))
        assert not inbound.script           # the SHUTDOWN was read
        assert 0 < distributor.records_routed < len(records)
        assert distributor.records_routed + result.deadline_shed \
            == len(records)

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
        clock = FakeClock()
        first_due = clock.now + 2.0 ** -5       # the start_delay lead-in
        records = _spaced(self.COUNT, gap)
        script = [(MSG_TIME_SYNC, -(2.0 ** -5))]
        script += [(MSG_RECORD, (index, pack_record_body(record)))
                   for index, record in enumerate(records[:1024])]
        blocks = 1024 // distributed._FRAME_BLOCK
        for head in range(1024, self.COUNT, block):
            # Each block lands 2**-5 s ahead of its first record.
            script.append(first_due + head * gap - 2.0 ** -5)
            script += [(MSG_RECORD, (index, pack_record_body(record)))
                       for index, record in enumerate(
                           records[head:head + block], head)]
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

        querier, wire, _frames = drive_querier(
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


    # -- a list-mode entry is built from the bytes the querier holds -------

    @staticmethod
    def _hostile_records():
        """Records over questions the plain-name path must refuse, or
        take, exactly where ``record.question()`` parses the same text;
        then the wire fuzzer's stream."""
        def labels(*parts):
            return b"".join(bytes([len(part)]) + part for part in parts) \
                + b"\x00"

        def question(name, qdcount=1, tail=b"\x00\x01\x00\x01"):
            return struct.pack("!6H", 0x1234, 0x0100, qdcount, 0, 0, 0) \
                + name + tail

        wires = [
            question(labels(b"www", b"example", b"com")),
            question(labels(b"WWW", b"Example", b"COM")),
            question(labels(b"_dmarc", b"Xn--my-host9", b"org")),
            question(labels(b"a.b", b"example")),         # escaped dot
            question(labels(b"a\\b", b"example")),        # escaped \\
            question(labels(b"caf\xe9", b"\x80\xff")),     # octets >= 0x80
            question(labels(b"a b", b"*", b"x")),
            question(b"\x00"),                             # root
            question(b"\xc0\x0c"),                         # pointer
            question(b"\x40abc\x00"),                      # reserved type
            question(labels(b"q", b"example"), tail=b"\x00\x01"),
            question(labels(b"q", b"example"), tail=b""),
            question(b"\x05ab", tail=b""),                  # cut label
            question(labels(b"q", b"example"), qdcount=0),
            question(labels(b"q", b"example"), tail=b"\x00\x01\x00\x07"),
            question(labels(b"q", b"example"), tail=b"\x00\x10\x00\x03"),
            question(labels(b"q", b"example"), tail=b"\x00\xff\x00\xff"),
            question(labels(*[b"a" * 63] * 3, b"b" * 61)),  # 255 octets
            question(labels(*[b"a" * 63] * 3, b"b" * 62)),  # 256 octets
            question(b""),
            b"\x12\x34\x01",
        ]
        wires += hostile_wires(2026, 600)
        return [QueryRecord(index / 1024, f"10.{index >> 8}.{index & 255}.7",
                            5300, "192.0.2.1", 53, "udp", wire)
                for index, wire in enumerate(wires)]

    def test_list_entries_match_the_parsed_record(self, monkeypatch):
        """Differential: every list-mode entry's qname, source and trace
        time are what decoding its record body and parsing its question
        give, over hostile wires and the fuzzer's."""
        records = self._hostile_records()
        bodies = [pack_record_body(record) for record in records]
        parsed_wires = []
        parse = wire_module.parse_question

        def counting_parse(wire):
            parsed_wires.append(wire)
            return parse(wire)

        monkeypatch.setattr(wire_module, "parse_question", counting_parse)
        wire_module._QUESTIONS.clear()
        querier, wire, _frames = drive_querier(
            [(MSG_RECORD, (index, body)) for index, body in enumerate(bodies)]
            + [(MSG_END, None)], lag=None)
        assert wire.sent == len(querier.result.sent) == len(bodies)
        for entry in querier.result.sent:
            record = binfmt.unpack_record_body(bodies[entry.index])
            try:
                parsed = record.question()
            except WireError:
                parsed = None
            qname = parsed[0].to_text().lower() if parsed else "-"
            assert (entry.qname, entry.source, entry.trace_time) \
                == (qname, record.src, record.timestamp), record.wire
        # Both paths were taken: plain names cut, the others parsed.
        assert 8 < len(parsed_wires) < len(bodies) - 8

    def test_plain_list_replay_builds_no_record_or_name(self, monkeypatch):
        """A list-mode run of plain names builds its entries from bytes:
        no ``QueryRecord`` and no ``Name`` (the parent built one of each
        per send, and decoded the body for them)."""
        records = burst_trace(self.COUNT).records
        script = self._flood_script()
        built = collections.Counter()

        def counting(name, original):
            def wrapper(*args, **kwargs):
                built[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(QueryRecord, "__post_init__", counting(
            "QueryRecord", QueryRecord.__post_init__))
        monkeypatch.setattr(Name, "__init__", counting(
            "Name", Name.__init__))
        monkeypatch.setattr(wire_module, "parse_question", counting(
            "parse_question", wire_module.parse_question))
        querier, wire, _frames = drive_querier(script, lag=0)
        monkeypatch.undo()
        assert built == {}
        sent = querier.result.sent
        assert wire.sent == len(sent) == self.COUNT
        assert [entry.qname for entry in sent] \
            == [record.question()[0].to_text().lower() for record in records]
        assert [entry.source for entry in sent] \
            == [record.src for record in records]
        assert all(entry.answered_at is not None for entry in sent)


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
        with LiveDnsServer() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config())
            result = topology.replay(trace)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.respawns == 0
        assert result.redelivered_records == 0

    def test_records_not_yet_due_are_not_redelivered(self):
        """Three records 1 s apart: the store is quiet for longer than
        the redelivery grace between sends, but a record still on its
        schedule is queued, not lost.  The parent redelivered every
        record not yet sent at each quiet spell."""
        trace = fixed_interval_trace(interval=1.0, duration=3.0,
                                     client_count=1)
        assert len(trace) == 3
        with LiveDnsServer() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config(queriers=1))
            result = topology.replay(trace)
        assert conservation_violations(result, len(trace.records)) == []
        assert result.redelivered_records == 0
        assert topology.metrics.count("replay.redundant_records") == 0

    def test_chaos_crash_is_respawned_and_conserved(self):
        """Queriers crash deterministically on their first incarnation;
        the respawned incarnation finishes the shard and the merge
        accounts for every record exactly once."""
        trace = fixed_interval_trace(interval=0.002, duration=0.4,
                                     client_count=8)
        chaos = ChaosConfig(seed=7, crash_rate=1.0, crash_after_frames=30,
                            crash_incarnations=(0,))
        with LiveDnsServer() as echo:
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
        with LiveDnsServer() as echo:
            topology = ProcessTopology((echo.address, echo.port),
                                       _recovering_config(chaos=chaos))
            result = topology.replay(trace)
        queries_seen = echo.counters["hosting.responses_sent"]
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
        with LiveDnsServer() as echo:
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
        # A respawned worker is not a lost one.
        assert result.workers_lost == 0
        answered = sum(1 for q in result.sent if q.answered_at is not None)
        assert answered == len(trace.records)

    @staticmethod
    def _crash_both_shards_while_reporting(telemetry_config=None):
        chaos = ChaosConfig(seed=3, crash_rate=1.0, kinds=(MSG_RESULT,),
                            crash_incarnations=(0,))
        factory = {"query_count": 400, "client_count": 16,
                   "server": "10.0.0.2"}
        topology = ShardTopology(
            2, trace_factory=("repro.trace.synthetic", "zipf_trace", factory),
            recovery=RecoveryConfig(chaos=chaos),
            collect_timeout=60.0, telemetry_config=telemetry_config)
        result = topology.replay()
        assert len(result.sent) == 400
        # Every entry names its record by position in the factory trace.
        records = zipf_trace(**factory).records
        assert [(entry.index, entry.source, entry.trace_time, entry.qname)
                for entry in result.sent] \
            == [(index, record.src, record.timestamp,
                 record.question()[0].to_text().lower())
                for index, record in enumerate(records)]
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
