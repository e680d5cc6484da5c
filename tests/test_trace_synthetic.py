"""Tests for synthetic workloads and zone generators."""

import hashlib
import os
import struct
import subprocess
import sys

import pytest

from repro.dns import AnswerKind, Name, RRType
from repro.hierarchy import nameserver_addresses
from repro.trace import (BRootWorkload, RecursiveWorkload, SYNTHETIC_SPECS,
                         fixed_interval_trace, inactive_client_fraction,
                         interarrivals, make_hierarchy_zones, make_root_zone,
                         summarize, table1_synthetic, top_client_share)


class TestFixedInterval:
    def test_exact_count_and_spacing(self):
        trace = fixed_interval_trace(0.01, 1.0)
        assert len(trace) == 100
        gaps = interarrivals(trace)
        assert all(abs(g - 0.01) < 1e-12 for g in gaps)

    def test_unique_names(self):
        trace = fixed_interval_trace(0.1, 5.0)
        names = {str(r.question()[0]) for r in trace}
        assert len(names) == len(trace)

    def test_client_rotation(self):
        trace = fixed_interval_trace(0.01, 1.0, client_count=7)
        assert len(trace.clients()) == 7

    def test_table1_specs(self):
        for name, (interval, clients) in SYNTHETIC_SPECS.items():
            trace = table1_synthetic(name, duration=interval * 20)
            assert len(trace) == 20
            summary = summarize(trace)
            assert summary.interarrival_mean == pytest.approx(interval)


class TestBRootWorkload:
    @pytest.fixture(scope="class")
    def trace(self):
        return BRootWorkload(duration=30.0, mean_rate=400,
                             client_count=8000, seed=11).generate()

    def test_rate_near_target(self, trace):
        rate = len(trace) / 30.0
        assert 300 < rate < 500

    def test_sorted_timestamps(self, trace):
        times = [r.timestamp for r in trace]
        assert times == sorted(times)
        assert all(0 <= t <= 30.0 for t in times)

    def test_heavy_tailed_clients(self, trace):
        assert top_client_share(trace, 0.01) > 0.3
        assert inactive_client_fraction(trace, 10) > 0.6

    def test_protocol_mix(self, trace):
        tcp = sum(1 for r in trace if r.protocol == "tcp") / len(trace)
        assert 0.015 < tcp < 0.05  # ~3 %

    def test_do_fraction(self, trace):
        do = sum(1 for r in trace if r.message().dnssec_ok) / len(trace)
        assert 0.65 < do < 0.80  # ~72.3 %

    def test_burst_companions_share_source_and_port(self, trace):
        # Companion queries reuse the initial query's source and sport.
        by_key = {}
        for record in trace:
            by_key.setdefault((record.src, record.sport), []).append(record)
        bursts = [records for records in by_key.values() if len(records) > 1]
        assert bursts, "expected burst companions"

    def test_deterministic(self):
        a = BRootWorkload(duration=5.0, mean_rate=100, seed=2).generate()
        b = BRootWorkload(duration=5.0, mean_rate=100, seed=2).generate()
        assert [r.wire for r in a] == [r.wire for r in b]
        assert [r.timestamp for r in a] == [r.timestamp for r in b]

    def test_seed_changes_trace(self):
        a = BRootWorkload(duration=5.0, mean_rate=100, seed=2).generate()
        b = BRootWorkload(duration=5.0, mean_rate=100, seed=3).generate()
        assert [r.wire for r in a] != [r.wire for r in b]

    @staticmethod
    def fingerprint(seed, with_sport=False):
        digest = hashlib.sha256()
        for r in BRootWorkload(mean_rate=2000.0, duration=2.0,
                               seed=seed).generate_stream():
            digest.update(struct.pack("!d", r.timestamp)
                          + f"{r.src}|{r.protocol}|".encode() + r.wire
                          + (struct.pack("!H", r.sport) if with_sport
                             else b""))
        return digest.hexdigest()

    @pytest.mark.parametrize("seed,digest", [
        (1, "784aad10ba3e10641e33d8da399dbc61"
            "d31b95eefaf8178eeec8e87cb84177f2"),
        (7, "6f0634969797158edeb8e203707dcd42"
            "a64f61e55af3ef87f9e885e6973ab2a5"),
        (12345, "8e6bfad6a3bb66f34998331dd1a20817"
                "f40896202e57e94dc0ffffe4a6ae248a"),
    ])
    def test_wires_and_timestamps_pinned(self, seed, digest):
        # Recorded with the Message-codec generator that preceded the
        # direct encoder: same RNG call sequence, same bytes.
        assert self.fingerprint(seed) == digest

    def test_direct_encoding_is_what_the_codec_would_write(self, trace):
        for record in trace.records[:2000]:
            assert record.message().to_wire() == record.wire

    def test_generate_is_the_materialised_stream(self):
        workload = BRootWorkload(duration=3.0, mean_rate=300.0, seed=5)
        records = workload.generate().records
        assert records == list(workload.generate_stream())
        # ...in the order a stable sort by timestamp gives.
        assert records == sorted(records, key=lambda r: r.timestamp)

    def test_same_seed_same_trace_in_every_process(self):
        # Source ports once came from hash(client), salted per process.
        import repro
        script = ("import sys; sys.path[:0] = sys.argv[1:];"
                  "from test_trace_synthetic import TestBRootWorkload as T;"
                  "print(T.fingerprint(3, with_sport=True))")
        outputs = set()
        for hash_seed in ("1", "2", "random"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            outputs.add(subprocess.run(
                [sys.executable, "-c", script, os.path.dirname(__file__),
                 os.path.dirname(os.path.dirname(repro.__file__))],
                env=env, check=True, capture_output=True,
                text=True).stdout.strip())
        assert outputs == {self.fingerprint(3, with_sport=True)}

    def test_rate_varies_over_time(self):
        trace = BRootWorkload(duration=600.0, mean_rate=200,
                              swing_period=300.0, seed=4).generate()
        from repro.trace import per_second_rates
        rates = [count for _s, count in per_second_rates(trace)]
        assert max(rates) > 1.1 * (sum(rates) / len(rates))


class TestRecursiveWorkload:
    def test_shape(self):
        zones = make_hierarchy_zones(3, 4)
        trace = RecursiveWorkload(duration=120, total_queries=1000,
                                  zones=zones).generate()
        assert len(trace) == 1000
        assert len(trace.clients()) <= 91
        times = [r.timestamp for r in trace]
        assert times == sorted(times)

    def test_names_within_hierarchy(self):
        zones = make_hierarchy_zones(2, 3)
        origins = {z.origin for z in zones}
        trace = RecursiveWorkload(duration=10, total_queries=100,
                                  zones=zones).generate()
        for record in trace:
            qname = record.question()[0]
            assert any(qname.is_subdomain_of(origin) for origin in origins
                       if len(origin) >= 2)


class TestZoneGenerators:
    def test_root_zone_valid(self):
        zone = make_root_zone(25)
        zone.validate()
        assert zone.origin.is_root()

    def test_root_delegations_with_glue(self):
        zone = make_root_zone(10)
        result = zone.lookup(Name.from_text("www.example.com."), RRType.A)
        assert result.kind == AnswerKind.REFERRAL
        assert zone.glue_for(result.rrsets[0])

    def test_hierarchy_zones_consistent(self):
        zones = make_hierarchy_zones(2, 3)
        for zone in zones:
            zone.validate()
        # Every zone must have resolvable nameserver addresses.
        addresses = nameserver_addresses(zones)
        assert all(addresses[z.origin] for z in zones)

    def test_hierarchy_delegations_line_up(self):
        zones = make_hierarchy_zones(2, 2)
        root = zones[0]
        tlds = [z for z in zones if len(z.origin) == 1]
        assert tlds
        for tld in tlds:
            result = root.lookup(tld.origin, RRType.A)
            assert result.kind == AnswerKind.REFERRAL

    def test_scaling_parameters(self):
        zones = make_hierarchy_zones(3, 5)
        slds = [z for z in zones if len(z.origin) == 2]
        assert len(slds) == 15
