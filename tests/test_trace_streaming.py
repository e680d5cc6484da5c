"""The streaming trace pipeline: chunked binary v2, shard-file sets,
streaming generators, and the mutator timestamp clamps.

These are the constant-memory building blocks of the 10⁸-query replay:
every test here exercises a path that must never materialize a trace.
"""

import io
import struct

import pytest

from repro.netsim.shard import shard_of
from repro.trace import (BRootWorkload, ChunkedTraceWriter, QueryMutator,
                         ShardSetWriter, Trace, TraceFormatError, iter_binary,
                         iter_shard_file, make_query_record, read_binary,
                         read_manifest, scale_stream, scale_time, shard_path,
                         shift_time, split_shards, write_binary,
                         write_binary_stream)
from repro.trace.binfmt import (MAX_CHUNK, MAX_RECORD, _CHUNK_HEADER,
                                _HEADER, MAGIC)


def records_for(count, start=0.0, step=0.01, clients=7):
    return [make_query_record(start + i * step, f"10.0.{i % clients}.1",
                              f"q{i}.example.com.")
            for i in range(count)]


def v2_bytes(records, chunk_records=4096):
    stream = io.BytesIO()
    write_binary_stream(records, stream, chunk_records=chunk_records)
    return stream.getvalue()


class TestChunkedRoundTrip:
    @pytest.mark.parametrize("count,chunk_records", [
        (0, 4096), (1, 4096), (1, 1), (5, 2), (100, 7), (1000, 4096),
    ])
    def test_round_trip(self, count, chunk_records):
        records = records_for(count)
        data = v2_bytes(records, chunk_records)
        restored = list(iter_binary(io.BytesIO(data)))
        assert len(restored) == count
        for original, copy in zip(records, restored):
            assert copy.timestamp == original.timestamp
            assert copy.src == original.src
            assert copy.wire == original.wire

    def test_chunk_boundary_exact_multiple(self):
        # Record count an exact multiple of the chunk size: the final
        # chunk is full, and the trailer still follows it cleanly.
        records = records_for(12)
        data = v2_bytes(records, chunk_records=4)
        assert len(list(iter_binary(io.BytesIO(data)))) == 12

    def test_read_binary_materializes(self):
        records = records_for(9)
        trace = read_binary(io.BytesIO(v2_bytes(records)), name="t")
        assert isinstance(trace, Trace)
        assert len(trace) == 9
        assert trace.name == "t"

    def test_write_binary_accepts_trace(self):
        trace = Trace(records_for(4), name="via-trace")
        stream = io.BytesIO()
        assert write_binary(trace, stream) == 4
        assert len(list(iter_binary(io.BytesIO(stream.getvalue())))) == 4

    def test_writer_is_streaming(self):
        # A pure generator flows through: nothing requires len() or
        # a second pass.
        def generate():
            for record in records_for(50):
                yield record
        stream = io.BytesIO()
        assert write_binary_stream(generate(), stream, chunk_records=8) == 50

class TestTruncationDetection:
    """The v1 blind spot, closed: every truncation raises."""

    def test_abandoned_writer_detected(self):
        # An exception mid-write leaves no trailer; readers refuse it.
        stream = io.BytesIO()
        with pytest.raises(RuntimeError):
            with ChunkedTraceWriter(stream, chunk_records=2) as writer:
                for record in records_for(5):
                    writer.write(record)
                raise RuntimeError("simulated crash")
        with pytest.raises(TraceFormatError, match="trunc|trailer"):
            list(iter_binary(io.BytesIO(stream.getvalue())))

    @pytest.mark.parametrize("drop", [1, 4, 7, 11, 12])
    def test_truncated_tail_detected(self, drop):
        data = v2_bytes(records_for(10), chunk_records=3)
        with pytest.raises(TraceFormatError):
            list(iter_binary(io.BytesIO(data[:-drop])))

    def test_truncation_at_chunk_boundary_detected(self):
        # Cut exactly between two chunks: no partial record, no partial
        # chunk — only the missing trailer gives it away.
        records = records_for(6)
        one_chunk = v2_bytes(records[:3], chunk_records=3)
        two_chunks = v2_bytes(records, chunk_records=3)
        # Strip the first file's trailer to find the boundary offset.
        boundary = len(one_chunk) - 12   # u32 0 + u64 count
        with pytest.raises(TraceFormatError, match="trailer"):
            list(iter_binary(io.BytesIO(two_chunks[:boundary])))

    def test_lying_trailer_detected(self):
        data = bytearray(v2_bytes(records_for(4), chunk_records=2))
        data[-8:] = struct.pack("!Q", 9999)
        with pytest.raises(TraceFormatError, match="trailer declares"):
            list(iter_binary(io.BytesIO(bytes(data))))

    def test_trailing_garbage_detected(self):
        data = v2_bytes(records_for(2)) + b"junk"
        with pytest.raises(TraceFormatError, match="after end-of-trace"):
            list(iter_binary(io.BytesIO(data)))

    def test_lying_chunk_record_count(self):
        data = bytearray(v2_bytes(records_for(3), chunk_records=3))
        # chunk record_count field sits right after the file header + u32.
        offset = _HEADER.size + 4
        data[offset:offset + 4] = struct.pack("!I", 7)
        with pytest.raises(TraceFormatError, match="declared 7"):
            list(iter_binary(io.BytesIO(bytes(data))))


class TestHostileLengths:
    def test_hostile_chunk_length(self):
        data = _HEADER.pack(MAGIC, 2, 0) \
            + _CHUNK_HEADER.pack(MAX_CHUNK + 1, 1)
        with pytest.raises(TraceFormatError, match="exceeds maximum"):
            list(iter_binary(io.BytesIO(data)))

    def test_hostile_record_length(self):
        payload = struct.pack("!I", MAX_RECORD + 1) + b"\x00" * 16
        data = _HEADER.pack(MAGIC, 2, 0) \
            + _CHUNK_HEADER.pack(len(payload), 1) + payload
        with pytest.raises(TraceFormatError, match="exceeds maximum"):
            list(iter_binary(io.BytesIO(data)))

    def test_bad_magic_and_version(self):
        with pytest.raises(TraceFormatError, match="magic"):
            list(iter_binary(io.BytesIO(b"NOPE" + b"\x00" * 16)))
        with pytest.raises(TraceFormatError, match="version"):
            list(iter_binary(io.BytesIO(_HEADER.pack(MAGIC, 99, 0))))

    def test_hostile_wire_corpus_never_crashes(self):
        # Adversarial byte soup from the fuzz generators must fail as
        # TraceFormatError (or read cleanly), never anything else.
        from repro.verify.generators import hostile_wires
        for blob in hostile_wires(seed=7, count=200):
            try:
                list(iter_binary(io.BytesIO(MAGIC + b"\x00\x02\x00\x00"
                                            + blob)))
            except TraceFormatError:
                pass

    def test_v1_header_is_rejected(self):
        from repro.trace.binfmt import _pack_record
        data = _HEADER.pack(MAGIC, 1, 0) \
            + b"".join(_pack_record(r) for r in records_for(2))
        with pytest.raises(TraceFormatError, match="version 1"):
            list(iter_binary(io.BytesIO(data)))

class TestShardSets:
    def split(self, tmp_path, count=60, num_shards=4, chunk_records=8):
        records = records_for(count, clients=11)
        manifest = split_shards(iter(records), str(tmp_path), num_shards,
                                chunk_records=chunk_records)
        return records, manifest

    def test_split_and_manifest(self, tmp_path):
        records, manifest = self.split(tmp_path)
        assert manifest["total_records"] == len(records)
        assert manifest["num_shards"] == 4
        assert manifest["first_timestamp"] == records[0].timestamp
        assert manifest["last_timestamp"] == records[-1].timestamp
        assert sum(s["records"] for s in manifest["shards"]) == len(records)
        assert read_manifest(str(tmp_path)) == manifest

    def test_sticky_by_source(self, tmp_path):
        self.split(tmp_path)
        manifest = read_manifest(str(tmp_path))
        for index, entry in enumerate(manifest["shards"]):
            shard = list(iter_shard_file(
                str(tmp_path / entry["file"]), read_ahead=0))
            assert len(shard) == entry["records"]
            for record in shard:
                assert shard_of(record.src, 4) == index

    @pytest.mark.parametrize("read_ahead", [0, 16, 4096])
    def test_iter_shards_round_trip(self, tmp_path, read_ahead):
        records, manifest = self.split(tmp_path)
        streamed = [record for index in range(manifest["num_shards"])
                    for record in iter_shard_file(
                        shard_path(str(tmp_path), index, manifest),
                        read_ahead=read_ahead)]
        # Concatenated shards are a permutation of the input.
        assert sorted(r.wire for r in streamed) \
            == sorted(r.wire for r in records)

    def test_per_shard_order_preserved(self, tmp_path):
        records, manifest = self.split(tmp_path)
        for index in range(manifest["num_shards"]):
            shard = list(iter_shard_file(
                str(tmp_path / manifest["shards"][index]["file"])))
            expected = [r for r in records if shard_of(r.src, 4) == index]
            assert [r.wire for r in shard] == [r.wire for r in expected]
            assert all(a.timestamp <= b.timestamp
                       for a, b in zip(shard, shard[1:]))

    def test_missing_manifest_refused(self, tmp_path):
        with pytest.raises(TraceFormatError, match="incomplete"):
            read_manifest(str(tmp_path))

    def test_abandoned_split_refused(self, tmp_path):
        with pytest.raises(RuntimeError):
            with ShardSetWriter(str(tmp_path), 2) as writer:
                writer.write_all(records_for(5))
                raise RuntimeError("simulated crash")
        with pytest.raises(TraceFormatError, match="incomplete"):
            read_manifest(str(tmp_path))

    def test_reader_failure_propagates(self, tmp_path):
        self.split(tmp_path)
        path = tmp_path / "shard-0000.bin"
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(TraceFormatError):
            list(iter_shard_file(str(path)))

    def test_empty_split(self, tmp_path):
        manifest = split_shards(iter(()), str(tmp_path), 3)
        assert manifest["total_records"] == 0
        assert manifest["first_timestamp"] is None
        assert read_manifest(str(tmp_path)) == manifest
        for index in range(3):
            assert list(iter_shard_file(
                shard_path(str(tmp_path), index, manifest))) == []


class TestStreamingGenerators:
    def test_generate_stream_matches_generate(self):
        for seed in (1, 42):
            workload = BRootWorkload(duration=3.0, mean_rate=300.0,
                                     client_count=40, seed=seed)
            eager = list(workload.generate())
            streamed = list(workload.generate_stream())
            assert len(streamed) == len(eager)
            for a, b in zip(eager, streamed):
                assert (a.timestamp, a.src, a.sport, a.protocol, a.wire) \
                    == (b.timestamp, b.src, b.sport, b.protocol, b.wire)

    def test_generate_stream_monotonic(self):
        workload = BRootWorkload(duration=2.0, mean_rate=500.0, seed=9)
        last = -1.0
        for record in workload.generate_stream():
            assert record.timestamp >= last
            last = record.timestamp

    def test_scale_stream_shape(self):
        records = list(scale_stream(2000, mean_rate=100_000.0,
                                    client_count=500, seed=3))
        assert len(records) == 2000
        assert all(a.timestamp <= b.timestamp
                   for a, b in zip(records, records[1:]))
        # Message ids spliced in: nonzero, and varying.
        ids = {r.wire[:2] for r in records[:500]}
        assert b"\x00\x00" not in ids and len(ids) > 400
        protocols = {r.protocol for r in records}
        assert protocols == {"udp", "tcp"}
        tcp = sum(1 for r in records if r.protocol == "tcp")
        assert abs(tcp / len(records) - 0.03) < 0.01

    def test_scale_stream_deterministic(self):
        a = [(r.timestamp, r.src, r.wire)
             for r in scale_stream(300, seed=11)]
        b = [(r.timestamp, r.src, r.wire)
             for r in scale_stream(300, seed=11)]
        assert a == b

    def test_scale_stream_is_lazy(self):
        from itertools import islice
        # 10¹² queries declared; taking 5 must return instantly.
        head = list(islice(scale_stream(10 ** 12), 5))
        assert len(head) == 5


class TestMutatorTimestampClamps:
    def records(self):
        return [make_query_record(t, "10.0.0.1", "q.example.com.")
                for t in (5.0, 6.0, 8.0)]

    def test_scale_time_zero_collapses_monotonic(self):
        mutated = list(QueryMutator([scale_time(0.0)])
                       .stream(self.records()))
        assert [r.timestamp for r in mutated] == [5.0, 5.0, 5.0]

    def test_scale_time_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            scale_time(-1.0)

    def test_shift_time_clamps_at_zero(self):
        mutated = list(QueryMutator([shift_time(-6.5)])
                       .stream(self.records()))
        assert [r.timestamp for r in mutated] == [0.0, 0.0, 1.5]
        assert all(a.timestamp <= b.timestamp
                   for a, b in zip(mutated, mutated[1:]))

    def test_apply_goes_through_stream(self):
        trace = Trace(self.records(), name="t")
        mutator = QueryMutator([shift_time(-10.0)])
        out = mutator.apply(trace)
        assert isinstance(out, Trace)
        assert [r.timestamp for r in out.records] == [0.0, 0.0, 0.0]
        assert out.name == "t:mutated"

    def test_stream_is_lazy(self):
        consumed = []

        def source():
            for record in self.records():
                consumed.append(record.timestamp)
                yield record

        stream = QueryMutator([shift_time(1.0)]).stream(source())
        next(stream)
        assert len(consumed) == 1   # nothing materialized ahead
