"""Tests for the resolver TTL cache."""

import pytest

from repro.dns import Name, RRClass, RRType, RRset
from repro.dns import rdata as rd
from repro.server import CacheOutcome, DnsCache


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def a_rrset(name="www.example.com.", ttl=300, address="192.0.2.1"):
    return RRset(Name.from_text(name), RRClass.IN, RRType.A, ttl,
                 [rd.A(address)])


def ns_rrset(name, targets, ttl=3600):
    return RRset(Name.from_text(name), RRClass.IN, RRType.NS, ttl,
                 [rd.NS(Name.from_text(t)) for t in targets])


@pytest.fixture
def cache():
    clock = FakeClock()
    return clock, DnsCache(clock)


class TestPositive:
    def test_hit_before_expiry(self, cache):
        clock, c = cache
        c.put(a_rrset())
        outcome, entry = c.get(Name.from_text("www.example.com."), RRType.A)
        assert outcome == CacheOutcome.HIT
        assert entry.rrset.rdatas[0].address == "192.0.2.1"

    def test_miss_after_ttl(self, cache):
        clock, c = cache
        c.put(a_rrset(ttl=300))
        clock.now = 301.0
        outcome, _entry = c.get(Name.from_text("www.example.com."), RRType.A)
        assert outcome == CacheOutcome.MISS

    def test_case_insensitive_key(self, cache):
        clock, c = cache
        c.put(a_rrset("WWW.Example.COM."))
        outcome, _ = c.get(Name.from_text("www.example.com."), RRType.A)
        assert outcome == CacheOutcome.HIT

    def test_max_ttl_clamped(self, cache):
        clock, c = cache
        c.max_ttl = 100.0
        c.put(a_rrset(ttl=99999))
        clock.now = 101.0
        outcome, _ = c.get(Name.from_text("www.example.com."), RRType.A)
        assert outcome == CacheOutcome.MISS


class TestNegative:
    def test_negative_hit(self, cache):
        clock, c = cache
        c.put_negative(Name.from_text("no.example.com."), RRType.A, 60, 3)
        outcome, entry = c.get(Name.from_text("no.example.com."), RRType.A)
        assert outcome == CacheOutcome.NEGATIVE_HIT
        assert entry.negative_rcode == 3

    def test_negative_expiry(self, cache):
        clock, c = cache
        c.put_negative(Name.from_text("no.example.com."), RRType.A, 60, 3)
        clock.now = 61.0
        outcome, _ = c.get(Name.from_text("no.example.com."), RRType.A)
        assert outcome == CacheOutcome.MISS


class TestEviction:
    def test_eviction_at_capacity(self, cache):
        clock, c = cache
        c.max_entries = 3
        for i in range(4):
            c.put(a_rrset(f"h{i}.example.com.", ttl=100 + i))
        assert len(c) == 3
        assert c.evictions == 1
        # The soonest-to-expire (h0, ttl 100) was evicted.
        outcome, _ = c.get(Name.from_text("h0.example.com."), RRType.A)
        assert outcome == CacheOutcome.MISS

    def test_flush(self, cache):
        clock, c = cache
        c.put(a_rrset())
        c.flush()
        assert len(c) == 0


class TestBestNameservers:
    def test_deepest_wins(self, cache):
        clock, c = cache
        c.put(ns_rrset(".", ["a.root-servers.net."]))
        c.put(ns_rrset("com.", ["a.gtld-servers.net."]))
        c.put(ns_rrset("example.com.", ["ns1.example.com."]))
        best = c.best_nameservers(Name.from_text("www.example.com."))
        assert best.name == Name.from_text("example.com.")

    def test_falls_back_up_the_tree(self, cache):
        clock, c = cache
        c.put(ns_rrset(".", ["a.root-servers.net."]))
        c.put(ns_rrset("com.", ["a.gtld-servers.net."], ttl=10))
        clock.now = 11.0  # com NS expired
        best = c.best_nameservers(Name.from_text("www.example.com."))
        assert best.name == Name(())

    def test_none_when_empty(self, cache):
        clock, c = cache
        assert c.best_nameservers(Name.from_text("x.")) is None


class TestStats:
    def test_stat_counts(self, cache):
        clock, c = cache
        c.put(a_rrset())
        c.get(Name.from_text("www.example.com."), RRType.A)
        c.get(Name.from_text("other.example.com."), RRType.A)
        c.put_negative(Name.from_text("neg.example.com."), RRType.A, 60, 0)
        c.get(Name.from_text("neg.example.com."), RRType.A)
        stats = c.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["negative_hits"] == 1
        assert stats["insertions"] == 2
