"""Tests for the response-wire cache and the serve_wire fast path.

The load-bearing property is *differential*: for any query, the cached
``serve_wire`` bytes must equal the uncached
``handle_query`` + ``encode_response`` bytes once the 2-byte message ID
is zeroed — the optimization may never change what the paper's pipeline
would have sent.  The comparison runs on the shared
:class:`repro.verify.Oracle` library.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.dns import (Edns, Flag, Message, Name, RRClass, RRType, Rcode,
                       read_zone)
from repro.dns import rdata as rd
from repro.dns.dnssec import sign_zone
from repro.dns.rrset import RR
from repro.dns import wire as wire_module
from repro.dns.wire import WireError, parse_question
from repro.experiments.topology import build_evaluation_topology
from repro.replay import ReplayConfig, SimReplayEngine
from repro.replay.querier import match_key
from repro.telemetry import MetricsRegistry
from repro.server import (AuthoritativeServer, CdnPolicy, DynamicOverlay,
                          HostedDnsServer, ResponseWireCache, View,
                          WireCacheEntry, ZoneSet)
from repro.trace import (BRootWorkload, QueryMutator, make_hierarchy_zones,
                         make_root_zone, retarget, zipf_trace)
from repro.verify import Observation, Oracle, generators, zero_msg_id

ZONE_TEXT = """
$ORIGIN example.com.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 192.0.2.53
www 300 IN A 192.0.2.80
alias 300 IN CNAME www
sub 172800 IN NS ns.sub
ns.sub 172800 IN A 192.0.2.54
*.wild 60 IN A 192.0.2.99
""" + "\n".join(f"big 60 IN A 10.7.{i // 200}.{i % 200 + 1}"
                for i in range(60))


def example_zone():
    return read_zone(ZONE_TEXT, origin=Name.from_text("example.com."))


def make_pair():
    """(cached server, reference server without a cache) over equal data."""
    cached = AuthoritativeServer.single_view([example_zone()])
    reference = AuthoritativeServer.single_view([example_zone()])
    reference.wire_cache = None
    return cached, reference


def zero_id(wire: bytes) -> bytes:
    return b"\x00\x00" + wire[2:]


def query_for(qname, qtype=RRType.A, msg_id=1, edns=None):
    return Message.make_query(Name.from_text(qname), qtype, msg_id=msg_id,
                              edns=edns)


INTERESTING_QUERIES = [
    ("www.example.com.", RRType.A, None),            # positive answer
    ("WWW.Example.COM.", RRType.A, None),            # 0x20-style case echo
    ("alias.example.com.", RRType.A, None),          # CNAME chain
    ("www.example.com.", RRType.NS, None),           # NODATA
    ("nope.example.com.", RRType.A, None),           # NXDOMAIN
    ("foo.sub.example.com.", RRType.A, None),        # referral
    ("a.wild.example.com.", RRType.A, None),         # wildcard synthesis
    ("other.test.", RRType.A, None),                 # REFUSED (no zone)
    ("big.example.com.", RRType.A, None),            # truncated at 512
    ("big.example.com.", RRType.A, Edns()),          # fits under EDNS
    ("www.example.com.", RRType.A, Edns(dnssec_ok=True)),  # DO bit
]


def serve_all(server, queries):
    """Run ``(query, source, transport)`` triples through one engine and
    capture what it sent plus where its stats ended up."""
    wires = [server.serve_wire(query, source=source, transport=transport)
             for query, source, transport in queries]
    return Observation.capture(wires, facts=dict(vars(server.stats)))


def wire_cache_oracle():
    cached, reference = make_pair()
    return cached, Oracle(
        "wire-cache",
        baseline=lambda queries: serve_all(reference, queries),
        candidate=lambda queries: serve_all(cached, queries),
        normalize_wire=zero_msg_id)


class TestDifferential:
    @pytest.mark.parametrize("qname,qtype,edns", INTERESTING_QUERIES)
    @pytest.mark.parametrize("transport", ["udp", "tcp"])
    def test_cached_matches_uncached(self, qname, qtype, edns, transport):
        cached, oracle = wire_cache_oracle()
        workload = [(query_for(qname, qtype, msg_id=msg_id, edns=edns),
                     None, transport)
                    for msg_id in (7, 4242)]  # second ask is a cache hit
        report = oracle.check(workload)
        # The oracle masks IDs for comparison, but the real reply must
        # still echo the client's message ID.
        for (query, _src, _tp), wire in zip(workload,
                                            report.candidate.wires):
            raw = cached.serve_wire(query, transport=_tp)
            assert raw[:2] == query.msg_id.to_bytes(2, "big")

    def test_every_query_of_a_zipf_replay_matches(self):
        # The acceptance-criterion sweep: a whole synthetic trace, every
        # response byte-compared against the uncached engine, twice so
        # the second pass is served almost entirely from the cache.
        cached, oracle = wire_cache_oracle()
        trace = zipf_trace(400, population=30, domain="wild.example.com.",
                           server="192.0.2.1")
        workload = [(Message.from_wire(record.wire), record.src, "udp")
                    for _pass in range(2) for record in trace.records]
        oracle.check(workload)
        assert cached.wire_cache.hit_rate() > 0.5

    def test_stats_match_uncached_engine(self):
        # Replaying stat deltas on hits must leave ServerStats exactly
        # where the uncached engine would have put them; the oracle's
        # facts channel compares the two ServerStats snapshots.
        _cached, oracle = wire_cache_oracle()
        workload = [(query_for(qname, qtype, edns=edns), None, "udp")
                    for _pass in range(3)
                    for qname, qtype, edns in INTERESTING_QUERIES]
        oracle.check(workload)


class TestCacheBehaviour:
    def test_hits_and_misses_counted(self):
        server, _ = make_pair()
        for _ in range(5):
            server.serve_wire(query_for("www.example.com."))
        assert server.wire_cache.hits == 4
        assert server.wire_cache.misses == 1
        assert server.wire_cache.hit_rate() == 0.8

    def test_distinct_limits_cached_separately(self):
        server, reference = make_pair()
        plain = query_for("big.example.com.")
        edns = query_for("big.example.com.", edns=Edns())
        truncated = server.serve_wire(plain)
        full = server.serve_wire(edns)
        assert Message.from_wire(truncated).flags & Flag.TC
        assert not Message.from_wire(full).flags & Flag.TC
        assert server.wire_cache.misses == 2

    def test_case_variants_are_distinct_entries(self):
        # The question section echoes the query's case, so the wire
        # differs; keying on exact-case labels keeps both correct.
        server, reference = make_pair()
        lower = server.serve_wire(query_for("www.example.com."))
        upper = server.serve_wire(query_for("WWW.EXAMPLE.COM."))
        assert lower != upper
        assert server.wire_cache.misses == 2
        assert zero_id(upper) == zero_id(
            reference.serve_wire(query_for("WWW.EXAMPLE.COM.")))

    def test_multi_question_bypasses_cache(self):
        server, _ = make_pair()
        query = query_for("www.example.com.")
        query.question.append(query.question[0])
        wire = server.serve_wire(query)
        assert Message.from_wire(wire).rcode == Rcode.NOERROR
        assert len(server.wire_cache) == 0

    def test_unknown_view_bypasses_cache(self):
        zone = example_zone()
        server = AuthoritativeServer(
            [View("internal", ZoneSet([zone]), match_clients=("10.0.0.1",))])
        wire = server.serve_wire(query_for("www.example.com."),
                                 source="203.0.113.9")
        assert Message.from_wire(wire).rcode == Rcode.REFUSED
        assert len(server.wire_cache) == 0

    def test_disabled_cache_still_serves(self):
        server = AuthoritativeServer.single_view([example_zone()])
        server.wire_cache = None
        wire = server.serve_wire(query_for("www.example.com.", msg_id=77))
        message = Message.from_wire(wire)
        assert message.msg_id == 77
        assert message.rcode == Rcode.NOERROR


class TestInvalidation:
    def test_zone_mutation_evicts(self):
        server, _ = make_pair()
        query = query_for("www.example.com.")
        before = server.serve_wire(query)
        zone = server.views[0].zones.find(Name.from_text("www.example.com."))
        zone.remove(Name.from_text("www.example.com."), RRType.A)
        zone.add_rr(RR(Name.from_text("www.example.com."), 300, RRClass.IN,
                       rd.A("192.0.2.81")))
        after = server.serve_wire(query)
        assert after != before
        assert Message.from_wire(after).answer[0].rdata.address == "192.0.2.81"
        assert server.wire_cache.invalidations == 1

    def test_refused_entries_invalidated_by_new_zone(self):
        server = AuthoritativeServer.single_view([])
        query = query_for("www.example.com.")
        assert Message.from_wire(server.serve_wire(query)).rcode == \
            Rcode.REFUSED
        server.views[0].zones.add(example_zone())
        response = Message.from_wire(server.serve_wire(query))
        assert response.rcode == Rcode.NOERROR
        assert response.answer


class TestResponseWireCacheUnit:
    def entry(self, wire=b"\x00\x00payload"):
        return WireCacheEntry(wire, zones_version=1, zone=None,
                              zone_generation=-1, stat_deltas=(0,) * 5)

    def test_lru_eviction(self):
        cache = ResponseWireCache(max_entries=2)
        cache.put("a", self.entry())
        cache.put("b", self.entry())
        cache.get("a", 1)                 # refresh a
        cache.put("c", self.entry())      # evicts b
        assert cache.get("a", 1) is not None
        assert cache.get("b", 1) is None
        assert cache.evictions == 1

    def test_stale_version_dropped(self):
        cache = ResponseWireCache()
        cache.put("a", self.entry())
        assert cache.get("a", zones_version=2) is None
        assert cache.invalidations == 1
        assert len(cache) == 0

    def test_clear_counts_invalidations(self):
        cache = ResponseWireCache()
        cache.put("a", self.entry())
        cache.put("b", self.entry())
        cache.clear()
        assert cache.invalidations == 2
        assert len(cache) == 0

    def test_hit_rate_empty_is_none(self):
        assert ResponseWireCache().hit_rate() is None

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResponseWireCache(max_entries=0)

    def test_counters_dict(self):
        cache = ResponseWireCache()
        cache.put("a", self.entry())
        cache.get("a", 1)
        cache.get("missing", 1)
        assert cache.counters() == {"entries": 1, "hits": 1,
                                    "template_hits": 0, "misses": 1,
                                    "evictions": 0, "invalidations": 0}


# ---------------------------------------------------------------------------
# The template tier: responses keyed by zone cut / closest encloser
# ---------------------------------------------------------------------------

DO = Edns(dnssec_ok=True)


def root_zone(servers_per_tld=2):
    """Four cuts with in-cut glue, a DS, a wildcard, an empty non-terminal."""
    zone = make_root_zone(tld_count=4, servers_per_tld=servers_per_tld)
    for name, rdata in (("*.wild.", rd.TXT((b"synthesized",))),
                        ("deep.ent.", rd.A("192.0.2.7")),
                        ("com.", rd.DS(4711, 8, 2, b"\x5a" * 32))):
        zone.add_rr(RR(Name.from_text(name), 300, RRClass.IN, rdata))
    return zone


def signed_root_zone():
    return sign_zone(root_zone())


class Engines:
    """Two cached ≡ uncached oracles over equal zone data: one drives the
    cached engine through ``serve_wire``, the other the way the hosting
    layer does — ``serve_wire_fast`` first, decode + ``serve_wire`` when
    it declines.  Bytes must be equal modulo message ID, and
    ``ServerStats`` identical."""

    def __init__(self, build_zones, **server_args):
        def engine(cache=True):
            server = AuthoritativeServer(
                [View("default", ZoneSet(build_zones()))], **server_args)
            if not cache:
                server.wire_cache = None
            return server
        self.cached, self.hosted = engine(), engine()
        self.references = [engine(cache=False), engine(cache=False)]
        self.servers = [self.cached, self.hosted] + self.references
        self.oracles = [
            Oracle("wire-cache-template",
                   baseline=self.runner(reference, False),
                   candidate=self.runner(candidate, fast),
                   normalize_wire=zero_msg_id)
            for reference, candidate, fast in (
                (self.references[0], self.cached, False),
                (self.references[1], self.hosted, True))]

    @staticmethod
    def runner(server, fast):
        def serve(wire, transport):
            response = server.serve_wire_fast(wire, transport=transport) \
                if fast else None
            if response is None:
                response = server.serve_wire(Message.from_wire(wire),
                                             transport=transport)
            assert bytes(response[:2]) == wire[:2]   # the client's own ID
            return bytes(response)
        return lambda workload: Observation.capture(
            [serve(wire, transport) for wire, transport in workload],
            facts=dict(vars(server.stats)))

    def check(self, workload):
        """``workload``: ``(query wire, transport)`` pairs; returns the
        responses (decoded) once all engines agree on them."""
        reports = [oracle.check(workload) for oracle in self.oracles]
        return [Message.from_wire(wire) for wire in reports[-1].candidate.wires]

    def check_slow(self, wire, transport="udp"):
        """``wire`` matches the reference *and* no template served it."""
        before = [(s.wire_cache.template_hits, s.wire_cache.misses)
                  for s in (self.cached, self.hosted)]
        self.check([(wire, transport)])
        after = [(s.wire_cache.template_hits, s.wire_cache.misses)
                 for s in (self.cached, self.hosted)]
        assert after == [(hits, misses + 1) for hits, misses in before]

    def check_templated(self, wire, transport="udp"):
        before = [s.wire_cache.template_hits
                  for s in (self.cached, self.hosted)]
        self.check([(wire, transport)])
        assert [s.wire_cache.template_hits
                for s in (self.cached, self.hosted)] \
            == [hits + 1 for hits in before]


def wire_for(qname, qtype=RRType.A, edns=None, msg_id=0x1234, rd_bit=False):
    name = qname if isinstance(qname, Name) else Name.from_text(qname)
    return Message.make_query(name, qtype, msg_id=msg_id, edns=edns,
                              recursion_desired=rd_bit).to_wire()


ROOT_QNAMES = [
    "com.", "example.com.", "example-longer-77.com.", "a.b.c.com.",
    "x.nic.com.", "ns1.nic.com.", "nic.com.", "NIC.CoM.", "eXaMpLe.CoM.",
    "net.", "www.example.net.", "org.", "x.org.", "edu.", "ns2.nic.edu.",
    "junk-000000001.invalid7.", "invalid.", "x.fake-soa.invalid.",
    "hostmaster.fake-soa.invalid.", "ns.fake-soa.invalid.", "JUNK.",
    "wild.", "foo.wild.", "a.b.wild.", "*.wild.", "ent.", "deep.ent.",
    "x.ent.", "x.deep.ent.", "a.root-servers.net.", "root-servers.net.",
    ".", "x." * 126, "y." * 127, ("x" * 63 + ".") * 3 + "x" * 57 + ".com.",
    ("x" * 63 + ".") * 3 + "x" * 61 + ".",
]


class TestTemplateDifferential:
    @pytest.mark.parametrize("build", [root_zone, signed_root_zone])
    def test_root_sweep_matches_uncached(self, build):
        engines = Engines(lambda: [build()])
        workload = [
            (wire_for(qname, qtype, edns, msg_id=index, rd_bit=index % 3 == 0),
             transport)
            for _pass in range(2)
            for index, (qname, qtype, edns, transport) in enumerate(
                (qname, qtype, edns, transport)
                for qname in ROOT_QNAMES
                for qtype in (RRType.A, RRType.DS, RRType.NS, RRType.ANY)
                for edns in (None, Edns(), DO, Edns(payload_size=600))
                for transport in ("udp", "tcp"))]
        engines.check(workload)
        for server in (engines.cached, engines.hosted):
            cache = server.wire_cache
            assert 0 < cache.template_hits < cache.hits
            assert cache.hits + cache.misses == len(workload)

    def test_templates_are_shared_across_names_not_stored_per_name(self):
        engines = Engines(lambda: [root_zone()])
        engines.check([(wire_for(f"example{i:03d}.com.", edns=DO), "udp")
                       for i in range(50)]
                      + [(wire_for(f"junk-{i}.invalid{i % 7}.", edns=DO),
                          "udp") for i in range(50)])
        for server in (engines.cached, engines.hosted):
            assert len(server.wire_cache) == 2       # one per node
            assert server.wire_cache.template_hits == 98

    def test_two_zones_in_one_view_answer_from_the_deeper_origin(self):
        engines = Engines(lambda: make_hierarchy_zones(tld_count=2))
        names = ["x.com.", "y.com.", "com.", "domain000.com.",
                 "x.domain000.com.", "y.domain000.com.", "x.net.", "junk.",
                 "other."]
        engines.check([(wire_for(qname, edns=DO), transport)
                       for _pass in range(2) for qname in names
                       for transport in ("udp", "tcp")])
        response = engines.check([(wire_for("z.com.", edns=DO), "udp")])[0]
        assert response.rcode == Rcode.NXDOMAIN          # from com., not a
        assert response.authority[0].rrtype == RRType.SOA     # root referral

    @given(st.integers(min_value=0, max_value=1 << 30))
    @settings(max_examples=25, deadline=None)
    def test_hostile_names_property(self, seed):
        rng = random.Random(seed)
        engines = Engines(lambda: [generators.hostile_root_zone()])
        engines.check([
            (wire_for(generators.hostile_qname(rng),
                      rng.choice(generators.QTYPES),
                      rng.choice((None, DO, Edns(), Edns(payload_size=700))),
                      msg_id=rng.randrange(1 << 16),
                      rd_bit=rng.random() < 0.5),
             rng.choice(("udp", "udp", "tcp")))
            for _query in range(60)])


class TestTemplateGuards:
    """Every fall-through takes the slow path and still matches."""

    def warmed(self):
        engines = Engines(lambda: [root_zone()])
        for qname in ("example.com.", "junk."):
            engines.check([(wire_for(qname, edns=DO), "udp")])   # builds
            engines.check_templated(wire_for("other-" + qname, edns=DO))
        return engines

    def test_label_below_the_cut_shared_with_glue(self):
        engines = self.warmed()
        engines.check_slow(wire_for("x.nic.com.", edns=DO))
        engines.check_slow(wire_for("x.NIC.com.", edns=DO))
        engines.check_templated(wire_for("x.nic2.com.", edns=DO))
        # ...and such a name never *builds* the template either.
        fresh = Engines(lambda: [root_zone()])
        fresh.check_slow(wire_for("y.nic.net.", edns=DO))
        fresh.check_slow(wire_for("example.net.", edns=DO))    # builds now
        fresh.check_templated(wire_for("example2.net.", edns=DO))

    def test_wildcard_at_the_closest_encloser(self):
        engines = self.warmed()
        engines.check_slow(wire_for("foo.wild.", RRType.TXT, edns=DO))
        engines.check_slow(wire_for("foo.wild.", RRType.A, edns=DO))

    def test_empty_non_terminal_and_its_neighbours(self):
        engines = self.warmed()
        engines.check_slow(wire_for("ent.", edns=DO))            # NODATA
        engines.check([(wire_for("x.ent.", edns=DO), "udp")])    # new node
        engines.check_templated(wire_for("y.ent.", edns=DO))

    def test_ds_at_the_cut_is_answered_by_the_parent(self):
        engines = self.warmed()
        engines.check_slow(wire_for("com.", RRType.DS, edns=DO))
        engines.check_templated(wire_for("com.", RRType.A, edns=DO))
        engines.check_templated(wire_for("x.com.", RRType.DS, edns=DO))

    def test_spliced_response_over_the_payload_limit_truncates(self):
        engines = Engines(lambda: [root_zone(servers_per_tld=8)])
        engines.check([(wire_for("example.com."), "udp")])
        engines.check_templated(wire_for("example2.com."))
        long_name = ("x" * 63 + ".") * 3 + "x" * 57 + ".com."
        engines.check_slow(wire_for(long_name))
        assert engines.check([(wire_for(long_name), "udp")])[0].flags & Flag.TC
        engines.check([(wire_for("example.com."), "tcp")])
        engines.check_templated(wire_for(long_name), "tcp")

    def test_spliced_response_over_the_pointer_range(self):
        # ~16 KiB of NS + glue under one cut: whether a name lands below
        # 0x3FFF, and so becomes a compression target, depends on the
        # qname's length.
        engines = Engines(lambda: [make_root_zone(1, servers_per_tld=335)])
        engines.check([(wire_for("a.com."), "tcp")])
        engines.check_templated(wire_for("b.com."), "tcp")
        long_name = ("x" * 63 + ".") * 3 + "x" * 57 + ".com."
        engines.check_slow(wire_for(long_name), "tcp")
        short, long = (len(engines.cached.serve_wire(
            Message.from_wire(wire_for(qname)), transport="tcp"))
            for qname in ("b.com.", long_name))
        assert short <= 0x3FFF < long

    def test_dynamic_overlay_disables_templates(self):
        def overlay():
            dynamic = DynamicOverlay()
            dynamic.add(Name.from_text("cdn.junk."), CdnPolicy(["192.0.2.1"]))
            return dynamic
        engines = Engines(lambda: [root_zone()], dynamic=overlay())
        engines.check([(wire_for(qname, edns=DO), "udp")
                       for _pass in range(2)
                       for qname in ("a.junk.", "cdn.junk.", "b.junk.",
                                     "x.com.", "y.com.")])
        for server in (engines.cached, engines.hosted):
            assert server.wire_cache.template_hits == 0
            assert server.wire_cache.hits == 4     # exact-qname repeats

    def test_wires_the_decoder_rejects_are_never_served(self):
        engines = self.warmed()
        good = wire_for("whatever.com.", edns=DO)
        engines.check_templated(good)
        undefined_rcode = good[:3] + b"\x0b" + good[4:]
        ragged_option = good[:-2] + b"\x00\x03" + b"\x00\x08\x00"
        for wire in (undefined_rcode, ragged_option):
            with pytest.raises(Exception):
                Message.from_wire(wire)
            assert engines.hosted.serve_wire_fast(wire) is None


class TestTemplateInvalidation:
    def test_nxdomain_tld_becomes_a_delegation_and_back(self):
        engines = Engines(lambda: [root_zone()])
        servers = engines.servers
        queries = [(wire_for(qname, edns=DO), "udp")
                   for qname in ("a.newtld.", "b.newtld.", "newtld.")]

        def rcodes():
            return {response.rcode for response in engines.check(queries)}

        assert rcodes() == {Rcode.NXDOMAIN}
        ns = RR(Name.from_text("newtld."), 172800, RRClass.IN,
                rd.NS(Name.from_text("ns.elsewhere.")))
        for server in servers:
            server.views[0].zones.find(Name.from_text(".")).add_rr(ns)
        assert rcodes() == {Rcode.NOERROR}                   # referrals
        assert engines.hosted.stats.referrals \
            == engines.cached.stats.referrals > 0
        for server in servers:
            server.views[0].zones.find(Name.from_text(".")).remove(ns.name)
        assert rcodes() == {Rcode.NXDOMAIN}
        for server in servers:                               # AXFR reload
            server.views[0].zones.replace(root_zone(servers_per_tld=3))
        engines.check([(wire_for("x.com.", edns=DO), "udp")] * 2)
        assert engines.hosted.wire_cache.invalidations > 0


class TestTemplateObservability:
    def test_template_hits_are_counted_mirrored_and_rendered(self):
        perf = MetricsRegistry()
        server = AuthoritativeServer.single_view([root_zone()])
        server.perf = perf
        for index in range(10):
            wire = wire_for(f"name{index}.com.", edns=DO)
            if server.serve_wire_fast(wire) is None:
                server.serve_wire(Message.from_wire(wire))
        server.serve_wire(Message.from_wire(wire_for("com.", RRType.DS)))
        server.serve_wire(Message.from_wire(wire_for("com.", RRType.DS)))
        counters = server.wire_cache.counters()
        assert counters["template_hits"] == 9
        assert counters["hits"] == 10 and counters["misses"] == 2
        assert perf.count("server.wire_cache_template_hits") == 9
        assert perf.count("server.wire_cache_hits") == 10


MEMO_WIRES = [wire_for(qname, qtype, edns, rd_bit=rd_bit)
              for qname in ROOT_QNAMES[:6] + ["www.example.com."]
              for qtype in (RRType.A, RRType.DS)
              for edns in (None, DO, Edns(payload_size=600))
              for rd_bit in (False, True)]


def _poke(wire, at, byte):
    at %= len(wire)
    return wire[:at] + bytes([byte]) + wire[at + 1:]


# Well-formed queries, each with one byte overwritten, raw bytes and the
# wire fuzzer's stream: every shape the question reader accepts or
# rejects.
memo_wires = st.one_of(
    st.sampled_from(MEMO_WIRES),
    st.builds(_poke, st.sampled_from(MEMO_WIRES), st.integers(0, 511),
              st.integers(0, 255)),
    st.binary(max_size=64),
    st.sampled_from(list(generators.hostile_wires(46, 400))))


class TestQueryKeyMemo:
    """Querier and server read a question through one memo keyed past
    the ID, and every reader agrees with the decoder."""

    def setup_method(self):
        wire_module._QUESTIONS.clear()

    @given(memo_wires, st.binary(min_size=2, max_size=2))
    @settings(max_examples=400, deadline=None)
    def test_memo_hit_is_what_parsing_returns(self, wire, ident):
        first = wire_module.read_question(wire)
        assert first == wire_module._question_entry(wire)
        other = ident + wire[2:]
        assert wire_module.read_question(other) \
            == wire_module._question_entry(other)
        try:
            question = parse_question(wire)
        except WireError:
            question = None
        assert first.qname == (question[0].to_text().lower()
                               if question else "-")
        if question and wire_module.scan_question(wire) is not None:
            assert match_key(wire) == (
                int.from_bytes(wire[:2], "big"),
                question[0].to_wire().lower(), int(question[1]))
        for key in (first.udp_key, first.stream_key):
            if key is not None:
                assert Message.from_wire(wire).question[0].rrtype == key[1]

    def test_serve_wire_fast_parses_through_the_memo(self):
        server = AuthoritativeServer.single_view([example_zone()])
        wire = wire_for("www.example.com.", edns=DO)
        for transport in ("udp", "tcp"):
            server.serve_wire(Message.from_wire(wire), transport=transport)
            for msg_id in (1, 2, 0xBEEF):
                ident = msg_id.to_bytes(2, "big")
                response = server.serve_wire_fast(ident + wire[2:],
                                                  transport=transport)
                assert response is not None and response[:2] == ident
        assert list(wire_module._QUESTIONS) == [wire[2:]]
        rejected = _poke(wire, 5, 2)                        # QDCOUNT 2
        assert server.serve_wire_fast(rejected) is None
        assert wire_module._QUESTIONS[rejected[2:]].udp_key is None

    def test_memo_stays_under_its_cap(self):
        server = AuthoritativeServer.single_view([example_zone()])
        for index in range(10_000):
            for transport in ("udp", "tcp"):
                server.serve_wire_fast(wire_for(f"n{index}.example.com."),
                                       transport=transport)
        assert 0 < len(wire_module._QUESTIONS) \
            <= wire_module._QUESTIONS_LIMIT

    def test_a_sim_replay_walks_each_question_once(self, monkeypatch):
        """The sim querier's send fills the entry the server keys its
        cache with: an untraced UDP replay of a B-Root-shaped trace
        walks each distinct question section once, not once per side."""
        records = [record.with_(protocol="udp", dport=53)
                   for record in QueryMutator([retarget("10.0.0.2")]).stream(
                       BRootWorkload(mean_rate=2000.0, duration=1.5,
                                     seed=1).generate_stream())]
        distinct = {record.wire[2:] for record in records}
        assert len(distinct) < wire_module._QUESTIONS_LIMIT
        scanned = []
        walk = wire_module._name_end
        monkeypatch.setattr(
            wire_module, "_name_end",
            lambda wire, labels=None: scanned.append(wire[2:])
            or walk(wire, labels))
        testbed = build_evaluation_topology()
        HostedDnsServer(testbed.server_host,
                        AuthoritativeServer.single_view([make_root_zone()]))
        result = SimReplayEngine(testbed.network, ReplayConfig()) \
            .replay_stream(records)
        assert len(result) == len(records) and result.unanswered() == 0
        assert len(scanned) == len(distinct) and set(scanned) == distinct
