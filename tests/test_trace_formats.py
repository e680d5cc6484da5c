"""Tests for trace formats: record model, text, binary, pcap."""

import dataclasses
import io
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.dns import Message, Name, RRType
from repro.trace import (PcapError, QueryMutator, QueryRecord,
                         TextFormatError, Trace, TraceFormatError,
                         fixed_interval_trace, shift_time,
                         iter_binary, line_to_record, make_query_record,
                         read_binary, read_pcap, read_text, record_to_line,
                         write_binary, write_pcap, write_text)
from repro.trace import record as record_module


@pytest.fixture
def trace():
    return fixed_interval_trace(0.01, 0.5, client_count=5, name="fmt")


class TestRecordModel:
    def test_question_extraction(self):
        record = make_query_record(1.5, "10.0.0.1", "a.example.com.",
                                   RRType.AAAA)
        name, rrtype, _rrclass = record.question()
        assert name == Name.from_text("a.example.com.")
        assert rrtype == RRType.AAAA

    def test_is_response_flag(self):
        record = make_query_record(0, "10.0.0.1", "x.example.com.")
        assert not record.is_response()
        message = record.message()
        message.set_flag(message.flags.__class__.QR)
        assert record.with_(wire=message.to_wire()).is_response()

    def test_bad_protocol_rejected(self):
        with pytest.raises(ValueError):
            QueryRecord(0, "1.2.3.4", 1, "5.6.7.8", 53, "sctp", b"x" * 12)

    def test_trace_split_and_shift(self):
        records = [make_query_record(float(i) + 100, "10.0.0.1",
                                     f"q{i}.example.com.")
                   for i in range(5)]
        trace = Trace(records)
        shifted = QueryMutator([shift_time(-100.0)]).apply(trace)
        assert shifted[0].timestamp == 0.0
        assert shifted.duration() == trace.duration()

    def test_queries_responses_partition(self):
        query = make_query_record(0, "10.0.0.1", "q.example.com.")
        message = query.message()
        message.set_flag(message.flags.__class__.QR)
        response = query.with_(wire=message.to_wire())
        trace = Trace([query, response])
        assert len(trace.queries()) == 1
        assert len(trace.responses()) == 1

    def test_clients(self, trace):
        assert len(trace.clients()) == 5


class TestRecordContract:
    """``QueryRecord`` is a frozen dataclass whatever builds it: its
    constructor and ``with_`` keep that contract and its size."""

    RECORD = make_query_record(1.5, "10.0.0.1", "a.example.com.")
    CHANGES = [{"timestamp": 2.0}, {"src": "10.0.0.9", "sport": 7},
               {"dst": "192.0.2.1", "dport": 853, "protocol": "tls"},
               {"wire": make_query_record(0, "x", "b.example.").wire}, {}]

    @pytest.mark.parametrize("name", [field.name for field in
                                      dataclasses.fields(QueryRecord)]
                             + ["extra"])
    def test_assignment_is_refused(self, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.RECORD, name, 0)

    def test_equal_records_hash_equal(self):
        record = self.RECORD
        twin = QueryRecord(*(getattr(record, field.name)
                             for field in dataclasses.fields(record)))
        assert twin == record and hash(twin) == hash(record)
        assert twin is not record
        assert record.with_(sport=record.sport + 1) != record

    @pytest.mark.parametrize("changes", CHANGES)
    def test_with_is_replace(self, changes):
        changed = self.RECORD.with_(**changes)
        assert changed == dataclasses.replace(self.RECORD, **changes)
        assert type(changed) is QueryRecord
        for name, value in changes.items():
            assert getattr(changed, name) == value

    def test_bad_protocol_and_unknown_field_are_refused(self):
        with pytest.raises(ValueError, match="sctp"):
            QueryRecord(0, "1.2.3.4", 1, "5.6.7.8", 53, "sctp", b"x" * 12)
        with pytest.raises(ValueError, match="sctp"):
            self.RECORD.with_(protocol="sctp")
        with pytest.raises(TypeError, match="qname"):
            self.RECORD.with_(qname="x")
        with pytest.raises(TypeError, match="qname"):
            dataclasses.replace(self.RECORD, qname="x")

    def test_post_init_runs_through_the_class(self, monkeypatch):
        calls = []
        monkeypatch.setattr(QueryRecord, "__post_init__",
                            lambda record: calls.append(record))
        built = [QueryRecord(0, "a", 1, "b", 53, "udp", b""),
                 self.RECORD.with_(dport=54),
                 dataclasses.replace(self.RECORD, dport=55)]
        assert calls == built

    def test_question_is_parsed_once(self, monkeypatch):
        record = self.RECORD.with_()
        parses = []
        parse = record_module.parse_question
        monkeypatch.setattr(record_module, "parse_question",
                            lambda wire: parses.append(wire) or parse(wire))
        first = record.question()
        assert record.question() is first
        assert parses == [record.wire]
        assert record.with_(sport=9).question() == first
        assert len(parses) == 2

    def test_bytes_per_record(self):
        """144 B a record, as with the dataclass's generated
        constructor: one object with its attribute values inline and no
        materialized ``__dict__`` (which would cost 336 B).  The 1 KiB
        is for allocations that do not grow with the count."""
        count = 4096
        wire = self.RECORD.wire
        slots = [None] * count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for index in range(count):
                slots[index] = QueryRecord(0.5, "10.0.0.1", 40000,
                                           "10.0.0.2", 53, "udp", wire)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown <= 144 * count + 1024


class TestTextFormat:
    def test_roundtrip(self, trace):
        buffer = io.StringIO()
        count = write_text(trace, buffer)
        assert count == len(trace)
        again = read_text(buffer.getvalue())
        assert len(again) == len(trace)
        for a, b in zip(trace, again):
            assert a.question() == b.question()
            assert abs(a.timestamp - b.timestamp) < 1e-6
            assert (a.src, a.sport, a.dst, a.dport, a.protocol) == \
                (b.src, b.sport, b.dst, b.dport, b.protocol)

    def test_line_human_readable(self):
        record = make_query_record(12.5, "10.0.0.9", "www.example.com.",
                                   protocol="tcp")
        line = record_to_line(record)
        assert "www.example.com." in line
        assert "tcp" in line
        assert "10.0.0.9" in line

    def test_editability(self):
        # The paper's point: edit a field in a text editor, reconvert.
        record = make_query_record(1.0, "10.0.0.9", "www.example.com.")
        line = record_to_line(record).replace(" udp ", " tls ")
        edited = line_to_record(line)
        assert edited.protocol == "tls"

    def test_bad_column_count(self):
        with pytest.raises(TextFormatError):
            line_to_record("1.0 10.0.0.1 53")

    def test_bad_flag(self):
        record = make_query_record(1.0, "10.0.0.9", "w.example.com.")
        line = record_to_line(record).replace(" rd ", " zz ")
        if " zz " in line:
            with pytest.raises(TextFormatError):
                line_to_record(line)

    def test_comments_ignored(self, trace):
        buffer = io.StringIO()
        write_text(trace, buffer)
        assert len(read_text(buffer.getvalue())) == len(trace)


class TestBinaryFormat:
    def test_roundtrip_exact(self, trace):
        buffer = io.BytesIO()
        write_binary(trace, buffer)
        buffer.seek(0)
        again = read_binary(buffer)
        assert [r.wire for r in again] == [r.wire for r in trace]
        assert [r.timestamp for r in again] == [r.timestamp for r in trace]

    def test_streaming_iterator(self, trace):
        buffer = io.BytesIO()
        write_binary(trace, buffer)
        buffer.seek(0)
        count = sum(1 for _ in iter_binary(buffer))
        assert count == len(trace)

    def test_bad_magic(self):
        with pytest.raises(TraceFormatError):
            list(iter_binary(io.BytesIO(b"NOPE\x00\x01\x00\x00")))

    def test_truncated_record(self, trace):
        buffer = io.BytesIO()
        write_binary(trace, buffer)
        data = buffer.getvalue()[:-3]
        with pytest.raises(TraceFormatError):
            list(iter_binary(io.BytesIO(data)))

    def test_empty_trace(self):
        buffer = io.BytesIO()
        write_binary(Trace(), buffer)
        buffer.seek(0)
        assert len(read_binary(buffer)) == 0


class TestPcapFormat:
    def test_udp_roundtrip(self, trace):
        buffer = io.BytesIO()
        write_pcap(trace, buffer)
        buffer.seek(0)
        again = read_pcap(buffer)
        assert [r.wire for r in again] == [r.wire for r in trace]
        assert all(r.protocol == "udp" for r in again)

    def test_tcp_and_tls_classification(self):
        records = [
            make_query_record(0.0, "10.0.0.1", "a.example.com.",
                              protocol="tcp"),
            make_query_record(0.1, "10.0.0.1", "b.example.com.",
                              protocol="tls", dport=853),
        ]
        buffer = io.BytesIO()
        write_pcap(Trace(records), buffer)
        buffer.seek(0)
        again = read_pcap(buffer)
        assert [r.protocol for r in again] == ["tcp", "tls"]

    def test_timestamps_preserved_to_microsecond(self, trace):
        buffer = io.BytesIO()
        write_pcap(trace, buffer)
        buffer.seek(0)
        again = read_pcap(buffer)
        for a, b in zip(trace, again):
            assert abs(a.timestamp - b.timestamp) < 2e-6

    def test_interoperable_global_header(self, trace):
        buffer = io.BytesIO()
        write_pcap(trace, buffer)
        header = buffer.getvalue()[:24]
        assert header[:4] == b"\xd4\xc3\xb2\xa1"  # little-endian magic

    def test_bad_magic_rejected(self):
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(b"\x00" * 24))


WIRE = st.builds(
    lambda labels, mid: Message.make_query(
        Name([l.encode() for l in labels]), RRType.A, msg_id=mid).to_wire(),
    st.lists(st.text(alphabet="abcdef", min_size=1, max_size=8),
             min_size=1, max_size=3),
    st.integers(1, 0xFFFF))

RECORDS = st.builds(
    QueryRecord,
    timestamp=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    src=st.builds(lambda b, c: f"10.{b}.{c}.1",
                  st.integers(0, 255), st.integers(0, 255)),
    sport=st.integers(1, 65535),
    dst=st.just("10.0.0.2"),
    dport=st.integers(1, 65535),
    protocol=st.sampled_from(["udp", "tcp", "tls"]),
    wire=WIRE)


@given(st.lists(RECORDS, min_size=0, max_size=12))
def test_property_binary_roundtrip(records):
    trace = Trace(records)
    buffer = io.BytesIO()
    write_binary(trace, buffer)
    buffer.seek(0)
    again = read_binary(buffer)
    assert [(r.src, r.sport, r.dst, r.dport, r.protocol, r.wire)
            for r in again] == \
        [(r.src, r.sport, r.dst, r.dport, r.protocol, r.wire)
         for r in records]


@given(st.lists(RECORDS, min_size=1, max_size=8))
def test_property_text_preserves_question(records):
    trace = Trace(records)
    buffer = io.StringIO()
    write_text(trace, buffer)
    again = read_text(buffer.getvalue())
    assert [r.question() for r in again] == [r.question() for r in records]


class TestTraceUtilities:
    def test_merge_sorts_by_time(self):
        a = Trace([make_query_record(2.0, "10.0.0.1", "a.example.com."),
                   make_query_record(5.0, "10.0.0.1", "b.example.com.")])
        b = Trace([make_query_record(1.0, "10.0.0.2", "c.example.com."),
                   make_query_record(3.0, "10.0.0.2", "d.example.com.")])
        merged = a.merge(b)
        assert len(merged) == 4
        assert [r.timestamp for r in merged] == [1.0, 2.0, 3.0, 5.0]
        assert len(a) == 2  # originals untouched

    def test_merge_multiple(self):
        parts = [Trace([make_query_record(float(i), "10.0.0.1",
                                          f"q{i}.example.com.")])
                 for i in range(4)]
        merged = parts[0].merge(*parts[1:])
        assert len(merged) == 4

