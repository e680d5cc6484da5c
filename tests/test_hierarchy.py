"""Tests for hierarchy utilities, the simulated Internet, and emulation."""

import pytest

from repro.dns import DNS_PORT, Message, Name, RRType, Rcode
from repro.hierarchy import (HierarchyEmulation, SimulatedInternet,
                             address_to_zones, apex_nameservers,
                             nameserver_addresses, root_hints_for)
from repro.netsim import EventLoop, Network
from repro.trace import make_hierarchy_zones


@pytest.fixture(scope="module")
def zones():
    return make_hierarchy_zones(3, 4)


class TestZoneUtil:
    def test_apex_nameservers(self, zones):
        root = zones[0]
        assert Name.from_text("a.root-servers.net.") in \
            apex_nameservers(root)

    def test_nameserver_addresses_complete(self, zones):
        addresses = nameserver_addresses(zones)
        for zone in zones:
            assert addresses[zone.origin], f"no address for {zone.origin}"

    def test_root_hints(self, zones):
        hints = root_hints_for(zones)
        assert hints[Name.from_text("a.root-servers.net.")] == ["198.41.0.4"]

    def test_root_hints_require_root_zone(self, zones):
        with pytest.raises(ValueError):
            root_hints_for(zones[1:])

    def test_address_grouping(self, zones):
        grouped = address_to_zones(zones)
        # TLD nameservers are shared across TLDs in make_hierarchy_zones?
        # Every address maps to at least one zone; every zone is served.
        served = {z.origin for zl in grouped.values() for z in zl}
        assert served == {z.origin for z in zones}


class TestSimulatedInternet:
    def test_one_host_per_address(self, zones):
        loop = EventLoop()
        network = Network(loop)
        internet = SimulatedInternet(network, zones)
        assert internet.server_count() == len(address_to_zones(zones))

    def test_servers_answer_directly(self, zones):
        loop = EventLoop()
        network = Network(loop)
        internet = SimulatedInternet(network, zones)
        stub = network.add_host("stub", "10.8.0.1")
        answers = []
        sock = stub.bind_udp("10.8.0.1", 0,
                             lambda s, d, a, p: answers.append(
                                 Message.from_wire(d)))
        # Ask the root server for a TLD delegation.
        query = Message.make_query(Name.from_text("com."), RRType.NS,
                                   msg_id=1, recursion_desired=False)
        sock.sendto(query.to_wire(), "198.41.0.4", DNS_PORT)
        loop.run(max_time=2)
        assert answers and answers[0].rcode == Rcode.NOERROR


class TestHierarchyEmulation:
    def test_view_per_address(self, zones):
        loop = EventLoop()
        network = Network(loop)
        emulation = HierarchyEmulation(network, zones)
        assert emulation.view_count() == len(address_to_zones(zones))
        assert emulation.zone_count() == len(zones)

    def test_resolves_through_emulated_hierarchy(self, zones):
        loop = EventLoop()
        network = Network(loop)
        emulation = HierarchyEmulation(network, zones)
        stub = network.add_host("stub", "10.8.0.1")
        answers = []
        sock = stub.bind_udp("10.8.0.1", 0,
                             lambda s, d, a, p: answers.append(
                                 Message.from_wire(d)))
        query = Message.make_query(
            Name.from_text("host0.domain000.com."), RRType.A, msg_id=2)
        sock.sendto(query.to_wire(), emulation.recursive_address, DNS_PORT)
        loop.run(max_time=30)
        assert answers and answers[0].rcode == Rcode.NOERROR
        assert answers[0].answer

    def test_proxies_saw_traffic(self, zones):
        loop = EventLoop()
        network = Network(loop)
        emulation = HierarchyEmulation(network, zones)
        stub = network.add_host("stub", "10.8.0.1")
        sock = stub.bind_udp("10.8.0.1", 0, lambda *a: None)
        query = Message.make_query(
            Name.from_text("host1.domain001.net."), RRType.A, msg_id=3)
        sock.sendto(query.to_wire(), emulation.recursive_address, DNS_PORT)
        loop.run(max_time=30)
        # Root -> TLD -> SLD: three upstream queries through each proxy.
        assert emulation.recursive_proxy.stats.packets_rewritten == 3
        assert emulation.authoritative_proxy.stats.packets_rewritten == 3

    def test_flush_caches_forces_rewalk(self, zones):
        loop = EventLoop()
        network = Network(loop)
        emulation = HierarchyEmulation(network, zones)
        stub = network.add_host("stub", "10.8.0.1")
        sock = stub.bind_udp("10.8.0.1", 0, lambda *a: None)
        query = Message.make_query(
            Name.from_text("host0.domain000.com."), RRType.A, msg_id=4)
        sock.sendto(query.to_wire(), emulation.recursive_address, DNS_PORT)
        loop.run(max_time=30)
        first = emulation.resolver.stats.upstream_queries
        emulation.resolver.cache.flush()
        query2 = Message.make_query(
            Name.from_text("host0.domain000.com."), RRType.A, msg_id=5)
        sock.sendto(query2.to_wire(), emulation.recursive_address, DNS_PORT)
        loop.run(max_time=60)
        assert emulation.resolver.stats.upstream_queries == first * 2
