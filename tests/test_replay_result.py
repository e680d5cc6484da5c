"""Tests for ReplayResult analysis and the wire reader/writer edges."""

import pytest

from repro.replay import ReplayResult, SentQuery
from repro.dns.wire import WireError, WireReader, WireWriter


def query(index, source, trace_time, sent_at, answered_at=None,
          protocol="udp", fresh=False):
    return SentQuery(index=index, source=source, trace_time=trace_time,
                     scheduled_at=trace_time, sent_at=sent_at,
                     protocol=protocol, qname="q.example.com.",
                     answered_at=answered_at, fresh_connection=fresh)


class TestReplayResult:
    def make_result(self):
        result = ReplayResult()
        result.start_clock = 100.0
        result.trace_start = 0.0
        result.add(query(0, "10.0.0.1", 0.0, 100.0, answered_at=100.01))
        result.add(query(1, "10.0.0.2", 1.0, 101.002,
                         answered_at=101.05, protocol="tcp", fresh=True))
        result.add(query(2, "10.0.0.1", 2.0, 101.999, protocol="tcp"))
        result.add(query(3, "10.0.0.2", 3.0, 103.0, answered_at=103.2,
                         protocol="tls", fresh=False))
        return result

    def test_send_time_errors(self):
        result = self.make_result()
        errors = result.send_time_errors()
        assert errors[0] == pytest.approx(0.0)
        assert errors[1] == pytest.approx(0.002)
        assert errors[2] == pytest.approx(-0.001)

    def test_skip_seconds(self):
        result = self.make_result()
        errors = result.send_time_errors(skip_seconds=1.5)
        assert len(errors) == 2  # trace times 2.0 and 3.0 survive

    def test_latency_properties(self):
        result = self.make_result()
        latencies = result.latencies()
        assert len(latencies) == 3  # one query unanswered
        assert result.sent[2].latency is None
        assert result.answered_fraction() == pytest.approx(0.75)

    def test_latency_filter_by_source(self):
        result = self.make_result()
        only = result.latencies(sources={"10.0.0.2"})
        assert len(only) == 2

    def test_reuse_fraction_counts_stream_only(self):
        result = self.make_result()
        # stream queries: tcp fresh, tcp (non-fresh), tls (non-fresh)
        assert result.reuse_fraction() == pytest.approx(2 / 3)

    def test_interarrivals_sorted(self):
        result = self.make_result()
        gaps = result.interarrivals()
        assert len(gaps) == 3
        assert all(g >= 0 for g in gaps)

    def test_per_second_rates(self):
        result = self.make_result()
        rates = dict(result.per_second_rates())
        assert rates[0] == 1
        assert rates[1] == 2  # 101.002 and 101.999

    def test_empty_result(self):
        result = ReplayResult()
        assert result.send_time_errors() == []
        assert result.answered_fraction() == 0.0
        assert result.reuse_fraction() == 0.0
        assert result.error_summary() == {}
        assert len(result) == 0


class TestMergeAndSerialization:
    def make_shard(self, name, offset, count):
        shard = ReplayResult(name)
        for i in range(count):
            shard.add(query(i, f"10.1.0.{offset + i}", float(i),
                            200.0 + i, answered_at=200.5 + i))
        return shard

    def test_merge_reindexes_and_sums(self):
        a = self.make_shard("querier-0", 0, 3)
        a.udp_timeouts = 2
        a.deadline_shed = 1
        b = self.make_shard("querier-1", 10, 2)
        b.udp_timeouts = 5
        b.reassigned_queries = 3
        merged = a.merge(b)
        assert merged is a
        assert len(a) == 5
        assert [q.index for q in a.sent] == [0, 1, 2, 3, 4]
        assert a.udp_timeouts == 7
        assert a.deadline_shed == 1
        assert a.reassigned_queries == 3

    def test_merge_keeps_earliest_clocks(self):
        a, b = ReplayResult(), ReplayResult()
        a.start_clock, a.trace_start = 105.0, 3.0
        b.start_clock, b.trace_start = 100.0, 1.0
        a.merge(b)
        assert a.start_clock == 100.0
        assert a.trace_start == 1.0
        # None on either side never wins over a real clock.
        c = ReplayResult()
        a.merge(c)
        assert a.start_clock == 100.0

    def test_merge_covers_every_counter(self):
        from repro.replay.result import _COUNTER_FIELDS
        a, b = ReplayResult(), ReplayResult()
        for i, name in enumerate(_COUNTER_FIELDS):
            setattr(b, name, i + 1)
        a.merge(b)
        for i, name in enumerate(_COUNTER_FIELDS):
            assert getattr(a, name) == i + 1

    def test_counter_fields_exhaustive(self):
        """Every integer attribute a fresh ReplayResult carries must be
        merge-summed — a counter added later but left out of
        _COUNTER_FIELDS would silently vanish in process mode.

        Aggregate-mode accumulators are merged by _merge_aggregate
        (sum/min/max/histogram folds) rather than the counter sweep;
        test_aggregate_merge_commutes covers those.
        """
        from repro.replay.result import _COUNTER_FIELDS
        aggregate_attrs = {"aggregate", "sent_count", "answered_count",
                           "error_count", "fresh_connections"}
        fresh = ReplayResult()
        int_attrs = {name for name, value in vars(fresh).items()
                     if isinstance(value, int)}
        assert int_attrs - aggregate_attrs == set(_COUNTER_FIELDS)
        # Any new aggregate accumulator must be wired into
        # _merge_aggregate and to_dict/from_dict, not silently added.
        assert aggregate_attrs <= set(vars(fresh))

    def test_dict_roundtrip_exact(self):
        import json
        shard = self.make_shard("querier-2", 0, 2)
        shard.sent[1].answered_at = None
        shard.sent[1].retries = 2
        shard.sent[1].gave_up = True
        shard.watchdog_stalls = 1
        shard.start_clock, shard.trace_start = 99.5, 0.25
        wire = json.dumps(shard.to_dict())   # must be JSON-safe
        restored = ReplayResult.from_dict(json.loads(wire))
        assert restored.name == "querier-2"
        assert restored.start_clock == 99.5
        assert restored.trace_start == 0.25
        assert restored.watchdog_stalls == 1
        assert len(restored) == 2
        assert restored.sent[0].to_dict() == shard.sent[0].to_dict()
        assert restored.sent[1].gave_up is True
        assert restored.sent[1].latency is None

    def test_sent_query_roundtrip(self):
        from repro.replay import SentQuery
        original = query(4, "10.0.0.9", 1.5, 101.5, answered_at=101.6,
                         protocol="tls", fresh=True)
        restored = SentQuery.from_dict(original.to_dict())
        assert restored == original

    def test_sent_query_wire_shape_is_the_dataclass_field_order(self):
        """to_dict is written out by hand; the RESULT frame it feeds
        must stay byte-identical to the dataclass's own field order."""
        import dataclasses
        import json
        for original in (query(4, "10.0.0.9", 1.5, 101.5),
                         query(7, "10.0.0.1", 2.5, 102.5, answered_at=102.6,
                               protocol="tcp", fresh=True)):
            original.retries, original.gave_up = 2, True
            assert json.dumps(original.to_dict()) \
                == json.dumps(dataclasses.asdict(original))


class TestAggregateMode:
    """Aggregate (O(1)-per-query) accounting: the 10⁸-scale result."""

    def fold(self, name, offset, count, answered_every=1):
        result = ReplayResult(name, aggregate=True)
        result.start_clock, result.trace_start = 200.0, 0.0
        for i in range(count):
            result.count_send("udp", float(i), 200.0 + i + 0.001)
            if i % answered_every == 0:
                result.count_answer(0.0005 * (offset + i + 1))
        return result

    def test_counts_and_summaries(self):
        result = self.fold("agg", 0, 10, answered_every=2)
        assert len(result) == 10
        assert result.sent_count == 10
        assert result.answered_count == 5
        assert result.answered_fraction() == 0.5
        assert result.unanswered() == 5
        assert not result.sent          # nothing retained per query
        latency = result.latency_summary()
        assert latency["count"] == 5.0
        assert latency["min"] <= latency["median"] <= latency["max"]
        errors = result.error_summary()
        assert errors["count"] == 10.0
        assert abs(errors["mean"] - 0.001) < 1e-9
        assert errors["stddev"] < 1e-9

    def test_aggregate_merge_commutes(self):
        a1, b1 = self.fold("a", 0, 7, 2), self.fold("b", 100, 5, 3)
        a2, b2 = self.fold("a", 0, 7, 2), self.fold("b", 100, 5, 3)
        ab = a1.merge(b1)
        ba = b2.merge(a2)
        for field in ("sent_count", "answered_count", "latency_sum",
                      "latency_min", "latency_max", "latency_hist",
                      "error_count", "error_sum", "error_sumsq",
                      "protocol_counts", "rate_buckets",
                      "fresh_connections", "first_sent_at",
                      "last_sent_at"):
            assert getattr(ab, field) == getattr(ba, field), field

    def test_dict_roundtrip(self):
        import json
        result = self.fold("agg-wire", 3, 9, answered_every=2)
        result.udp_timeouts = 4
        wire = json.dumps(result.to_dict())
        restored = ReplayResult.from_dict(json.loads(wire))
        assert restored.aggregate
        assert restored.sent_count == 9
        assert restored.answered_count == result.answered_count
        assert restored.latency_hist == result.latency_hist
        assert restored.rate_buckets == result.rate_buckets
        assert restored.udp_timeouts == 4
        assert restored.latency_summary() == result.latency_summary()

    def test_list_shard_folds_into_aggregate(self):
        aggregate = ReplayResult("controller", aggregate=True)
        shard = ReplayResult("querier-0")
        for i in range(4):
            shard.add(query(i, f"10.0.0.{i}", float(i), 100.0 + i,
                            answered_at=100.0 + i + 0.002))
        aggregate.merge(shard)
        assert aggregate.sent_count == 4
        assert aggregate.answered_count == 4
        assert not aggregate.sent

    def test_aggregate_into_list_rejected(self):
        with pytest.raises(ValueError):
            ReplayResult("list").merge(ReplayResult("agg", aggregate=True))

    def test_add_folds_final_entries(self):
        result = ReplayResult("fold", aggregate=True)
        result.add(query(0, "10.0.0.1", 0.0, 50.0, answered_at=50.01))
        result.add(query(1, "10.0.0.2", 0.5, 50.5))
        assert result.sent_count == 2
        assert result.answered_count == 1
        assert result.protocol_counts == {"udp": 2}


class TestWireReaderWriter:
    def test_patch_u16(self):
        writer = WireWriter(compress=False)
        writer.write_u16(0)
        writer.write_bytes(b"abc")
        writer.patch_u16(0, 3)
        assert writer.getvalue() == b"\x00\x03abc"

    def test_reader_bounds(self):
        reader = WireReader(b"\x01\x02")
        assert reader.read_u16() == 0x0102
        with pytest.raises(WireError):
            reader.read_u8()

    def test_seek_bounds(self):
        reader = WireReader(b"abcd")
        reader.seek(2)
        assert reader.read_bytes(2) == b"cd"
        with pytest.raises(WireError):
            reader.seek(5)
        with pytest.raises(WireError):
            reader.seek(-1)

    def test_remaining(self):
        reader = WireReader(b"abcd")
        reader.read_u8()
        assert reader.remaining() == 3

    def test_u32_roundtrip(self):
        writer = WireWriter(compress=False)
        writer.write_u32(0xDEADBEEF)
        assert WireReader(writer.getvalue()).read_u32() == 0xDEADBEEF

    def test_tell_tracks_position(self):
        writer = WireWriter(compress=False)
        assert writer.tell() == 0
        writer.write_bytes(b"12345")
        assert writer.tell() == 5
