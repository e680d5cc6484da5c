"""Tests for the distribution tree: sticky routing, controller input."""

import pytest

from repro.replay import (Controller, DistributionStats, Distributor,
                          StickyAssigner)


class TestStickyAssigner:
    def test_same_source_same_entity(self):
        assigner = StickyAssigner(["q1", "q2", "q3"])
        first = assigner.assign("10.0.0.1")
        for _ in range(10):
            assert assigner.assign("10.0.0.1") == first

    def test_new_sources_round_robin(self):
        assigner = StickyAssigner(["a", "b"])
        assignments = [assigner.assign(f"10.0.0.{i}") for i in range(4)]
        assert assignments == ["a", "b", "a", "b"]

    def test_non_sticky_ignores_source(self):
        assigner = StickyAssigner(["a", "b"], sticky=False)
        assignments = [assigner.assign("10.0.0.1") for _ in range(4)]
        assert assignments == ["a", "b", "a", "b"]

    def test_empty_entities_rejected(self):
        with pytest.raises(ValueError):
            StickyAssigner([])

    def test_assignment_count(self):
        assigner = StickyAssigner(["a", "b"])
        for i in range(5):
            assigner.assign(f"10.0.0.{i}")
        assert assigner.assignment_count() == 5


class TestDistributor:
    def test_routes_and_counts(self):
        stats = DistributionStats()
        distributor = Distributor(0, ["q1", "q2"], stats=stats)
        querier = distributor.route("10.0.0.1")
        assert querier in ("q1", "q2")
        assert distributor.records_routed == 1
        assert stats.distributor_to_querier == 1

    def test_source_affinity_through_distributor(self):
        distributor = Distributor(0, ["q1", "q2", "q3"])
        picks = {distributor.route("10.0.0.7") for _ in range(20)}
        assert len(picks) == 1


class TestController:
    def make_tree(self, sticky=True, window=10, delay=0.001):
        stats = DistributionStats()
        distributors = [Distributor(i, [f"d{i}q{j}" for j in range(2)],
                                    sticky=sticky, stats=stats)
                        for i in range(3)]
        return Controller(distributors, sticky=sticky, input_window=window,
                          input_delay_per_record=delay), stats

    def test_same_source_same_querier_end_to_end(self):
        controller, _stats = self.make_tree()
        first = controller.dispatch("10.0.0.42")
        for _ in range(20):
            assert controller.dispatch("10.0.0.42") == first

    def test_different_sources_spread(self):
        controller, _stats = self.make_tree()
        queriers = {controller.dispatch(f"10.0.1.{i}") for i in range(30)}
        assert len(queriers) > 1

    def test_window_records_available_immediately(self):
        controller, _stats = self.make_tree(window=10, delay=0.5)
        assert controller.availability_time(0, 100.0) == 100.0
        assert controller.availability_time(9, 100.0) == 100.0

    def test_beyond_window_pays_input_delay(self):
        controller, _stats = self.make_tree(window=10, delay=0.5)
        assert controller.availability_time(10, 100.0) == \
            pytest.approx(100.5)
        assert controller.availability_time(19, 100.0) == \
            pytest.approx(105.0)

    def test_time_sync_broadcast_counted(self):
        controller, stats = self.make_tree()
        controller.broadcast_time_sync()
        assert stats.time_sync_broadcasts == 3

    def test_message_counts(self):
        controller, stats = self.make_tree()
        for i in range(10):
            controller.dispatch(f"10.0.2.{i}")
        assert stats.controller_to_distributor == 10
        assert stats.distributor_to_querier == 10
        assert controller.records_read == 10


class TestQnameMemo:
    """The querier's qname memo must not pair a question-less record
    with a real query whose bytes after the header it repeats."""

    @pytest.mark.parametrize("real_first", [True, False],
                             ids=["real-first", "empty-first"])
    def test_question_count_is_part_of_the_key(self, real_first):
        from repro.dns import Message, Name, RRType
        from repro.netsim import EventLoop, Network
        from repro.replay import SimQuerier
        from repro.dns import wire as wire_module
        from repro.replay.result import ReplayResult
        from repro.trace import QueryRecord

        wire = Message.make_query(Name.from_text("a.example."), RRType.A,
                                  msg_id=7).to_wire()
        empty = wire[:4] + b"\x00\x00" + wire[6:]   # QDCOUNT = 0
        records = [QueryRecord(0.0, "192.0.2.1", 5000, "10.0.0.2", 53,
                               "udp", body) for body in (wire, empty)]
        if not real_first:
            records.reverse()
        wire_module._QUESTIONS.clear()
        network = Network(EventLoop())
        result = ReplayResult()
        querier = SimQuerier(0, network.add_host("client", "10.0.0.1"),
                             result)
        for index, record in enumerate(records):
            querier.send(index, record, 0.0)
        reported = {records[entry.index].wire: entry.qname
                    for entry in result.sent}
        assert reported == {wire: "a.example.", empty: "-"}
