"""Tests for the query mutator and its built-in mutations."""

import pytest

from repro.dns import DNS_OVER_TLS_PORT, RRType
from repro.trace import (QueryMutator, Trace, all_protocol,
                         fixed_interval_trace, make_query_record,
                         prepend_unique, retarget, sample_clients,
                         scale_time, set_dnssec_fraction, shift_time)


@pytest.fixture
def trace():
    return fixed_interval_trace(0.1, 2.0, client_count=4, name="mut")


class TestPipeline:
    def test_mutations_compose_in_order(self, trace):
        mutator = QueryMutator([all_protocol("tcp"),
                                retarget("192.0.2.99")])
        out = mutator.apply(trace)
        assert all(r.protocol == "tcp" and r.dst == "192.0.2.99"
                   for r in out)
        assert mutator.processed == len(trace)
        assert mutator.dropped == 0

    def test_drop_counted(self, trace):
        mutator = QueryMutator([lambda r: None])
        out = mutator.apply(trace)
        assert len(out) == 0
        assert mutator.dropped == len(trace)

    def test_streaming_mode(self, trace):
        mutator = QueryMutator([all_protocol("tls")])
        out = list(mutator.stream(iter(trace.records)))
        assert len(out) == len(trace)
        assert all(r.protocol == "tls" for r in out)

    def test_original_trace_untouched(self, trace):
        before = [r.protocol for r in trace]
        QueryMutator([all_protocol("tcp")]).apply(trace)
        assert [r.protocol for r in trace] == before


class TestProtocolMutation:
    def test_udp_to_tls_changes_port(self, trace):
        out = QueryMutator([all_protocol("tls")]).apply(trace)
        assert all(r.dport == DNS_OVER_TLS_PORT for r in out)

    def test_tls_back_to_udp_restores_port(self, trace):
        out = QueryMutator([all_protocol("tls"),
                            all_protocol("udp")]).apply(trace)
        assert all(r.dport == 53 for r in out)

    def test_payload_untouched(self, trace):
        out = QueryMutator([all_protocol("tcp")]).apply(trace)
        assert out[0].wire == trace[0].wire


class TestDnssecMutation:
    def test_full_fraction_sets_do_everywhere(self, trace):
        out = QueryMutator([set_dnssec_fraction(1.0)]).apply(trace)
        assert all(r.message().dnssec_ok for r in out)

    def test_zero_fraction_clears_do(self, trace):
        out = QueryMutator([set_dnssec_fraction(1.0),
                            set_dnssec_fraction(0.0)]).apply(trace)
        assert not any(r.message().dnssec_ok for r in out)

    def test_selection_is_per_client(self, trace):
        out = QueryMutator([set_dnssec_fraction(0.5)]).apply(trace)
        by_client = {}
        for record in out:
            by_client.setdefault(record.src, set()).add(
                record.message().dnssec_ok)
        # Every client is consistently DO or consistently not.
        assert all(len(values) == 1 for values in by_client.values())

    def test_deterministic(self, trace):
        a = QueryMutator([set_dnssec_fraction(0.5)]).apply(trace)
        b = QueryMutator([set_dnssec_fraction(0.5)]).apply(trace)
        assert [r.wire for r in a] == [r.wire for r in b]


class TestNameMutation:
    def test_prepend_unique_labels(self, trace):
        out = QueryMutator([prepend_unique("u")]).apply(trace)
        names = [str(r.question()[0]) for r in out]
        assert names[0].startswith("u1.")
        assert len(set(names)) == len(names)

    def test_original_suffix_kept(self, trace):
        out = QueryMutator([prepend_unique()]).apply(trace)
        original = str(trace[3].question()[0])
        mutated = str(out[3].question()[0])
        assert mutated.endswith(original)


class TestTimeMutations:
    def test_scale_time_halves_rate(self, trace):
        out = QueryMutator([scale_time(2.0)]).apply(trace)
        original_span = trace[-1].timestamp - trace[0].timestamp
        scaled_span = out[-1].timestamp - out[0].timestamp
        assert scaled_span == pytest.approx(2.0 * original_span)

    def test_scale_keeps_first_timestamp(self, trace):
        out = QueryMutator([scale_time(3.0)]).apply(trace)
        assert out[0].timestamp == trace[0].timestamp

    def test_shift(self, trace):
        out = QueryMutator([shift_time(100.0)]).apply(trace)
        assert out[0].timestamp == trace[0].timestamp + 100.0


class TestSampling:
    def test_sample_keeps_whole_clients(self):
        records = []
        for i in range(200):
            records.append(make_query_record(
                float(i), f"10.0.{i % 20}.1", f"q{i}.example.com."))
        trace = Trace(records)
        out = QueryMutator([sample_clients(0.5)]).apply(trace)
        kept_clients = {r.src for r in out}
        for client in kept_clients:
            original = sum(1 for r in trace if r.src == client)
            sampled = sum(1 for r in out if r.src == client)
            assert original == sampled  # all of a kept client's queries

    def test_sample_fraction_reasonable(self):
        records = [make_query_record(0.0, f"10.{i // 256}.{i % 256}.1",
                                     "q.example.com.")
                   for i in range(2000)]
        out = QueryMutator([sample_clients(0.3)]).apply(Trace(records))
        assert 0.2 < len(out) / 2000 < 0.4

    def test_salt_changes_selection(self):
        records = [make_query_record(0.0, f"10.0.{i}.1", "q.example.com.")
                   for i in range(100)]
        a = QueryMutator([sample_clients(0.5, salt="a")]).apply(
            Trace(records))
        b = QueryMutator([sample_clients(0.5, salt="b")]).apply(
            Trace(records))
        assert {r.src for r in a} != {r.src for r in b}
