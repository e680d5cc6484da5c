"""The recovery ledger on its own: events in, actions out, no process,
no socket and no clock but the ``now`` each call is given."""

import pytest

from repro.replay.recovery import (REDELIVERY_GRACE, REDELIVERY_ROUNDS,
                                   RESPAWNS_PER_WORKER, RESPAWNS_TOTAL,
                                   CheckpointStore, RecoveryLedger,
                                   respawn_backoff)
from repro.replay.result import ReplayResult, SentQuery

LIVE = [(("q", 0), 0)]      # one live querier incarnation


def _report(store, indices, answered=True, incarnation=0, seq=1):
    """Querier 0 reports ``indices`` sent in one checkpoint frame."""
    shard = ReplayResult()
    for index in indices:
        shard.add(SentQuery(index, "c0", float(index), float(index),
                            float(index), "udp", "q.example.com.",
                            querier_id=0, answered_at=float(index) + 0.5
                            if answered else None))
    store.offer(("q", 0), incarnation, seq,
                {"name": "querier-0", "sent": shard.to_dict()["sent"]})


def _ledger(dues=(0.0, 0.0, 0.0)):
    ledger = RecoveryLedger(CheckpointStore())
    ledger.route(dues)
    ledger.stop_routing(len(dues))
    return ledger


class TestRedelivery:
    def test_records_not_yet_due_are_not_redelivered(self):
        """Records 1 s apart, and no frame after the first: the store
        is quiet for longer than the grace, but the ledger redelivers
        only what is past its due instant + the grace, and says when
        the next record could be lost."""
        ledger = _ledger((0.0, 1.0, 2.0))
        assert ledger.tick(0.0, LIVE, True) == ("wait", REDELIVERY_GRACE)
        _report(ledger.store, [0])
        assert ledger.tick(0.1, LIVE, True) \
            == ("wait", 0.1 + REDELIVERY_GRACE)
        assert ledger.tick(0.1 + REDELIVERY_GRACE, LIVE, True) \
            == ("wait", 1.0 + REDELIVERY_GRACE)
        assert ledger.redelivered == 0
        assert ledger.tick(1.0 + REDELIVERY_GRACE, LIVE, True) \
            == ("redeliver", [1])
        _report(ledger.store, [1, 2], seq=2)
        assert ledger.tick(2.5, LIVE, True) == ("end", "complete")
        assert ledger.redelivered == 1 and ledger.rounds == 1

    def test_a_moving_store_restarts_the_quiet_period(self):
        ledger = _ledger()
        assert ledger.tick(0.0, LIVE, True) == ("wait", REDELIVERY_GRACE)
        _report(ledger.store, [0])
        assert ledger.tick(0.5, LIVE, True) \
            == ("wait", 0.5 + REDELIVERY_GRACE)
        assert ledger.tick(0.5 + REDELIVERY_GRACE, LIVE, True) \
            == ("redeliver", [1, 2])

    def test_no_round_is_spent_without_a_route(self):
        """No route while a respawn is in flight: the drain waits for
        it and spends no round."""
        ledger = _ledger()
        ledger.tick(0.0, [], False, respawning=True)
        assert ledger.tick(5.0, [], False, respawning=True)[0] == "wait"
        assert ledger.rounds == 0

    def test_stranded_unanswered_send_is_redelivered(self):
        """Every index is reported, but index 2's only send belongs to an
        incarnation that is dead: END waits for its redelivery."""
        ledger = _ledger()
        _report(ledger.store, [0, 1])
        _report(ledger.store, [2], answered=False, incarnation=1)
        assert ledger.tick(0.0, LIVE, True) == ("wait", REDELIVERY_GRACE)
        assert ledger.tick(REDELIVERY_GRACE, LIVE, True) \
            == ("redeliver", [2])
        _report(ledger.store, [2], seq=2)
        assert ledger.tick(1.0, LIVE, True) == ("end", "complete")


class TestEnd:
    def test_end_once_the_store_covers_every_routed_index(self):
        ledger = _ledger()
        _report(ledger.store, [0, 1, 2])
        assert ledger.tick(0.0, LIVE, True) == ("end", "complete")
        assert ledger.ended == "complete" and ledger.redelivered == 0

    def test_end_after_the_rounds_with_holes_left(self):
        ledger = _ledger()
        now = 0.0
        ledger.tick(now, LIVE, True)
        for _round in range(REDELIVERY_ROUNDS):
            now += REDELIVERY_GRACE
            assert ledger.tick(now, LIVE, True) == ("redeliver", [0, 1, 2])
        now += REDELIVERY_GRACE
        assert ledger.tick(now, LIVE, True) == ("end", "rounds")
        assert ledger.redelivered == 3 * REDELIVERY_ROUNDS


class TestUnroutable:
    """No route and no respawn coming: nothing the drain waits for can
    happen, so END goes out at once instead of at the drain's cap."""

    def test_end_at_once_when_no_querier_is_left(self):
        """Inside the quiet period, with records missing: still END."""
        ledger = _ledger()
        _report(ledger.store, [0])
        assert ledger.tick(0.0, [], False, respawning=False) \
            == ("end", "unroutable")
        assert ledger.rounds == 0 and ledger.redelivered == 0

    def test_a_failed_respawn_ends_the_wait(self):
        ledger = _ledger()
        assert ledger.tick(0.0, [], False, respawning=True) \
            == ("wait", REDELIVERY_GRACE)
        assert ledger.tick(1.0, [], False, respawning=True)[0] == "wait"
        # The respawn died before its HELLO, past the budget.
        assert ledger.tick(1.1, [], False, respawning=False) \
            == ("end", "unroutable")

    def test_complete_outranks_unroutable(self):
        ledger = _ledger()
        _report(ledger.store, [0, 1, 2])
        assert ledger.tick(0.0, [], False) == ("end", "complete")

    def test_zero_budget_still_redelivers_to_a_survivor(self):
        """A run without respawns loses a querier: the survivor is a
        route, so the lost records are redelivered as usual."""
        ledger = RecoveryLedger(CheckpointStore(), respawns=False)
        ledger.route([0.0, 0.0])
        ledger.stop_routing(2)
        assert ledger.died(("q", 1)) is None
        _report(ledger.store, [0])
        assert ledger.tick(0.0, LIVE, True) == ("wait", REDELIVERY_GRACE)
        assert ledger.tick(REDELIVERY_GRACE, LIVE, True) \
            == ("redeliver", [1])


class TestDeadline:
    def test_deadline_sheds_the_unrouted_and_stops_redelivery(self):
        ledger = RecoveryLedger(CheckpointStore())
        ledger.route([0.0, 0.0])
        ledger.expire()
        ledger.stop_routing(5)
        assert ledger.shed == 3 and ledger.routed == 2
        # Record 1 is lost and long past due: still no redelivery.
        _report(ledger.store, [0])
        assert ledger.tick(10.0, LIVE, True) == ("end", "deadline")
        assert ledger.redelivered == 0

    def test_end_reason_is_the_first_one(self):
        ledger = _ledger()
        _report(ledger.store, [0, 1, 2])
        ledger.tick(0.0, LIVE, True)
        ledger.expire()
        assert ledger.tick(1.0, LIVE, True) == ("end", "complete")


class TestRespawnBudget:
    def test_respawn_backoff_is_exponential_and_capped(self):
        assert respawn_backoff(0) == pytest.approx(0.05)
        assert respawn_backoff(1) == pytest.approx(0.10)
        assert respawn_backoff(4) == pytest.approx(0.80)
        assert respawn_backoff(5) == pytest.approx(1.0)   # capped
        assert respawn_backoff(10) == pytest.approx(1.0)

    def test_per_worker_budget(self):
        ledger = RecoveryLedger(CheckpointStore())
        assert [ledger.died("w0") for _ in range(RESPAWNS_PER_WORKER + 1)] \
            == list(range(RESPAWNS_PER_WORKER)) + [None]
        assert ledger.died("w1") == 0
        assert ledger.respawns == RESPAWNS_PER_WORKER + 1
        assert ledger.lost == 1

    def test_run_budget(self):
        ledger = RecoveryLedger(CheckpointStore())
        attempts = [ledger.died(f"w{slot}") for slot in range(10)]
        assert attempts == [0] * RESPAWNS_TOTAL + [None, None]
        assert ledger.respawns == RESPAWNS_TOTAL and ledger.lost == 2

    def test_a_run_without_recovery_respawns_nothing(self):
        ledger = RecoveryLedger(CheckpointStore(), respawns=False)
        assert ledger.died("w0") is None
        assert ledger.respawns == 0 and ledger.lost == 1
