"""Tests for ReplayResult analysis and the wire reader/writer edges."""

import pytest
from hypothesis import given, strategies as st

from repro.replay import ReplayResult, SentQuery
from repro.replay.result import _log_bin
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

    def test_merge_upserts_by_index_and_sums(self):
        """Reports carry global trace indices: two shards holding the
        same indices merge to one entry per index — the answered copy,
        whichever shard held it — and each collision is counted."""
        a = self.make_shard("querier-0", 0, 3)      # indices 0-2, answered
        a.sent[1].answered_at = None
        a.udp_timeouts = 2
        a.deadline_shed = 1
        b = ReplayResult("querier-1")
        b.add(query(1, "10.1.0.11", 1.0, 201.5, answered_at=201.7))
        b.add(query(2, "10.1.0.12", 2.0, 202.5))
        b.add(query(5, "10.1.0.15", 5.0, 205.0, answered_at=205.5))
        b.udp_timeouts = 5
        b.reassigned_queries = 3
        merged = a.merge(b)
        assert merged is a
        assert [q.index for q in a.sent] == [0, 1, 2, 5]
        assert [q.answered_at is not None for q in a.sent] == [True] * 4
        assert [q.source for q in a.sent] == [
            "10.1.0.0", "10.1.0.11", "10.1.0.2", "10.1.0.15"]
        assert a.duplicate_merged == 2
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
        shard.workers_lost = 1
        shard.start_clock, shard.trace_start = 99.5, 0.25
        wire = json.dumps(shard.to_dict())   # must be JSON-safe
        restored = ReplayResult.from_dict(json.loads(wire))
        assert restored.name == "querier-2"
        assert restored.start_clock == 99.5
        assert restored.trace_start == 0.25
        assert restored.workers_lost == 1
        assert len(restored) == 2
        assert restored.sent == shard.sent
        assert restored.sent[1].gave_up is True
        assert restored.sent[1].latency is None

    def test_sent_query_roundtrip(self):
        original = query(4, "10.0.0.9", 1.5, 101.5, answered_at=101.6,
                         protocol="tls", fresh=True)
        shard = ReplayResult("querier-4")
        shard.add(original)
        assert ReplayResult.from_dict(shard.to_dict()).sent == [original]

    def test_sent_query_wire_shape_is_the_dataclass_field_order(self):
        """The ``sent`` table is one column per dataclass field, in the
        field order, row i of each column being entry i; an optional
        column all at its default is left out."""
        import dataclasses
        import json
        names = [field.name for field in dataclasses.fields(SentQuery)]
        plain = query(4, "10.0.0.9", 1.5, 101.5)
        full = query(7, "10.0.0.1", 2.5, 102.5, answered_at=102.6,
                     protocol="tcp", fresh=True)
        full.querier_id, full.timeouts, full.tcp_fallback = 3, 1, True
        full.retries, full.gave_up = 2, True
        shard = ReplayResult()
        shard.add(plain)
        shard.add(full)
        table = shard.to_dict()["sent"]
        assert json.dumps(table) == json.dumps(
            {name: [getattr(plain, name), getattr(full, name)]
             for name in names})
        alone = ReplayResult()
        alone.add(plain)
        assert list(alone.to_dict()["sent"]) == names[:7]
        assert json.dumps(alone.to_dict()["sent"]) == json.dumps(
            {name: [getattr(plain, name)] for name in names[:7]})


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


_ENTRIES = st.lists(st.builds(
    SentQuery,
    index=st.integers(min_value=0, max_value=1 << 31),
    source=st.text(max_size=16),
    trace_time=st.floats(allow_nan=False, allow_infinity=False),
    scheduled_at=st.floats(allow_nan=False, allow_infinity=False),
    sent_at=st.floats(allow_nan=False, allow_infinity=False),
    protocol=st.sampled_from(("udp", "tcp", "tls")),
    qname=st.text(max_size=40),
    answered_at=st.none() | st.floats(allow_nan=False, allow_infinity=False),
    fresh_connection=st.booleans(),
    querier_id=st.integers(min_value=-1, max_value=64),
    retries=st.integers(min_value=0, max_value=9),
    timeouts=st.integers(min_value=0, max_value=9),
    tcp_fallback=st.booleans(), gave_up=st.booleans()), max_size=24)


@given(entries=_ENTRIES, picks=st.lists(st.integers(min_value=0,
                                                    max_value=23)))
def test_sent_table_roundtrip(entries, picks):
    """to_dict -> JSON -> from_dict gives back every entry field by
    field (``repr`` tells True from 1 and -0.0 from 0.0), whole and in
    the delta form ``to_dict(entries)`` of a CHECKPOINT; both pass the
    protocol's table check."""
    import json
    from repro.replay.protocol import validate_result_payload
    shard = ReplayResult("querier-0")
    for entry in entries:
        shard.add(entry)
    delta = [entries[pick] for pick in picks if pick < len(entries)]
    for subset, payload in ((entries, shard.to_dict()),
                            (delta, shard.to_dict(delta))):
        payload = validate_result_payload(json.loads(json.dumps(payload)))
        restored = ReplayResult.from_dict(payload).sent
        assert [repr(query) for query in restored] \
            == [repr(query) for query in subset]


def _reference_send(result, trace_time, sent_at):
    """One send folded field by field, as the accumulator did before
    blocks: the reference the block fold is held to."""
    result.sent_count += 1
    result.protocol_counts["udp"] = result.protocol_counts.get("udp", 0) + 1
    result.first_sent_at = sent_at if result.first_sent_at is None \
        else min(result.first_sent_at, sent_at)
    result.last_sent_at = sent_at if result.last_sent_at is None \
        else max(result.last_sent_at, sent_at)
    bucket = int(sent_at)
    result.rate_buckets[bucket] = result.rate_buckets.get(bucket, 0) + 1
    base_clock = sent_at if result.start_clock is None else result.start_clock
    base_trace = trace_time if result.trace_start is None \
        else result.trace_start
    error = (sent_at - base_clock) - (trace_time - base_trace)
    result.error_count += 1
    result.error_sum += error
    result.error_sumsq += error * error
    result.error_min = error if result.error_min is None \
        else min(result.error_min, error)
    result.error_max = error if result.error_max is None \
        else max(result.error_max, error)


def _reference_answer(result, latency):
    result.answered_count += 1
    result.latency_sum += latency
    bin_ = _log_bin(latency)
    result.latency_hist[bin_] = result.latency_hist.get(bin_, 0) + 1
    result.latency_min = latency if result.latency_min is None \
        else min(result.latency_min, latency)
    result.latency_max = latency if result.latency_max is None \
        else max(result.latency_max, latency)


_FOLD_FIELDS = ("sent_count", "answered_count", "protocol_counts",
                "fresh_connections", "first_sent_at", "last_sent_at",
                "rate_buckets", "error_count", "error_sum", "error_sumsq",
                "error_min", "error_max", "latency_sum", "latency_min",
                "latency_max", "latency_hist")
_TIMES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(sends=st.lists(st.tuples(_TIMES, _TIMES), max_size=60),
       latencies=st.lists(st.floats(min_value=0.0, max_value=30.0),
                          max_size=60),
       cuts=st.lists(st.integers(min_value=0, max_value=60), max_size=8),
       anchored=st.booleans())
def test_block_fold_equals_per_call_fold(sends, latencies, cuts, anchored):
    """A querier folds a wake's sends and a drain's answers in one call;
    ``count_send`` / ``count_answer`` are the one-element case.  Bit for
    bit, every field equals one fold per event in the same order."""
    per_call, blocked, reference = (ReplayResult(aggregate=True)
                                    for _ in range(3))
    for result in (per_call, blocked, reference):
        if anchored:
            result.start_clock, result.trace_start = 200.0, 3.0
    for trace_time, sent_at in sends:
        per_call.count_send("udp", trace_time, sent_at)
        _reference_send(reference, trace_time, sent_at)
    for latency in latencies:
        per_call.count_answer(latency)
        _reference_answer(reference, latency)
    bounds = sorted(set(cuts))
    for events, fold in ((sends, lambda block: blocked.count_sends("udp",
                                                                   block)),
                         (latencies, blocked.count_answers)):
        edges = [0] + [b for b in bounds if b < len(events)] + [len(events)]
        for start, end in zip(edges, edges[1:]):
            fold(events[start:end])
    for field in _FOLD_FIELDS:
        want = getattr(reference, field)
        assert getattr(per_call, field) == want, field
        assert getattr(blocked, field) == want, field


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
