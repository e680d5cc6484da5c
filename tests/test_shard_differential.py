"""Differential tests for sharded simulation.

A sharded run is replicated worlds (netsim/shard.py): every shard owns
a sticky slice of the trace's sources and its own server replica, and
no packet crosses shards.  The property held here is **partition
invariance**: replaying a trace through 1, 2 or 4 shard slices, with
the shards run in any order, yields the same per-query facts and
byte-identical response wires.  ``ShardTopology`` runs exactly these
slices in worker processes.

Plus the zero-copy aliasing guard: serving wire-cache hits as
:class:`WireView` slices must never mutate the shared cached buffer,
no matter how many message IDs are patched over it.
"""

import pytest

from repro.dns import Edns, Message, Name, RRType
from repro.experiments.fig6_timing import wildcard_example_zone
from repro.netsim.shard import shard_of
from repro.replay import shard_slice
from repro.replay.multiproc import default_shard_scenario
from repro.server import AuthoritativeServer
from repro.trace import table1_synthetic

SERVER = "10.0.0.2"


# ---------------------------------------------------------------------------
# shard_slice partitioning
# ---------------------------------------------------------------------------

class TestShardSlice:
    def test_slices_partition_the_trace(self):
        trace = table1_synthetic("syn-1", duration=30.0, server=SERVER)
        for num_shards in (1, 2, 4):
            slices = [shard_slice(trace, index, num_shards)
                      for index in range(num_shards)]
            assert sum(len(s.records) for s in slices) == len(trace.records)
            seen = [record for s in slices for record in s.records]
            assert sorted(id(r) for r in seen) \
                == sorted(id(r) for r in trace.records)

    def test_sticky_by_source(self):
        trace = table1_synthetic("syn-1", duration=30.0, server=SERVER)
        for num_shards in (2, 4):
            owner = {}
            for index in range(num_shards):
                for record in shard_slice(trace, index, num_shards).records:
                    assert owner.setdefault(record.src, index) == index

    def test_shard_of_is_stable_and_bounded(self):
        for n in (1, 2, 4, 7):
            for address in ("10.1.2.3", "192.0.2.77", "10.128.0.42"):
                first = shard_of(address, n)
                assert 0 <= first < n
                assert shard_of(address, n) == first


# ---------------------------------------------------------------------------
# Partition invariance: slices through per-shard engines
# ---------------------------------------------------------------------------

def _replay_sliced(num_shards, order):
    """Replay syn-1 sliced ``num_shards`` ways, engines run in ``order``.

    Returns partition-invariant facts: per-query rows aligned to trace
    time (absolute clocks differ per slice, trace-relative ones cannot)
    and the multiset of response wires each server replica emitted.
    """
    trace = table1_synthetic("syn-1", duration=30.0, server=SERVER)
    rows = []
    wires = []
    for index in order:
        engine = default_shard_scenario(batch_window=2.5e-4)
        engine.network.host("server").capture_hooks.append(
            lambda direction, packet, sink=wires:
            sink.append(bytes(packet.segment.data))
            if direction == "out" and packet.protocol == "udp" else None)
        result = engine.replay(shard_slice(trace, index, num_shards))
        for query in result.sent:
            latency = (query.answered_at - query.sent_at
                       if query.answered_at is not None else None)
            rows.append((query.qname, query.source, query.trace_time,
                         round(latency, 12), query.retries, query.timeouts))
    return sorted(rows), sorted(wires)


class TestReplicatedShardDifferential:
    @pytest.fixture(scope="class")
    def single_shard(self):
        return _replay_sliced(1, [0])

    @pytest.mark.parametrize("num_shards,order", [
        (2, [0, 1]), (2, [1, 0]),
        (4, [0, 1, 2, 3]), (4, [3, 1, 0, 2]),
    ], ids=["2-forward", "2-reversed", "4-forward", "4-permuted"])
    def test_merged_results_match_single_shard(self, single_shard,
                                               num_shards, order):
        rows, wires = _replay_sliced(num_shards, order)
        base_rows, base_wires = single_shard
        assert rows == base_rows
        # Byte-identical responses: same wires regardless of which
        # replica served them or in which order the shards ran.
        assert wires == base_wires
        assert len(wires) == len(base_rows)


# ---------------------------------------------------------------------------
# Zero-copy aliasing guard
# ---------------------------------------------------------------------------

class TestZeroCopyAliasing:
    def _server(self):
        server = AuthoritativeServer.single_view([wildcard_example_zone()])
        return server

    def _query_wire(self, msg_id):
        return Message.make_query(Name.from_text("alias.example.com."),
                                  RRType.A, msg_id=msg_id,
                                  edns=Edns()).to_wire()

    def test_two_hits_patch_ids_without_touching_the_cache(self):
        server = self._server()
        # Populate the cache through the slow path.
        first = server.serve_wire(Message.from_wire(self._query_wire(0x1111)))
        assert server.serve_wire_fast(self._query_wire(0x2222)) is not None
        (entry,) = server.wire_cache._entries.values()
        snapshot = bytes(entry.wire)

        view_a = server.serve_wire_fast(self._query_wire(0xAAAA))
        view_b = server.serve_wire_fast(self._query_wire(0xBBBB))
        assert view_a is not None and view_b is not None
        # Different patched IDs, shared body over one cached buffer.
        assert bytes(view_a)[:2] == b"\xaa\xaa"
        assert bytes(view_b)[:2] == b"\xbb\xbb"
        assert bytes(view_a)[2:] == bytes(view_b)[2:] == snapshot[2:]
        assert view_a.body.obj is entry.wire
        assert view_b.body.obj is entry.wire
        # The aliasing guard itself: the cached entry never moved.
        assert bytes(entry.wire) == snapshot
        assert entry.body_view.readonly
        # And the fast path answers exactly what the slow path would,
        # message ID aside.
        assert bytes(view_a)[2:] == first[2:]

    def test_fast_path_equals_slow_path_bytes(self):
        fast_server = self._server()
        slow_server = self._server()
        for msg_id in (0x0101, 0x0202, 0x0303):
            wire = self._query_wire(msg_id)
            slow = slow_server.serve_wire(Message.from_wire(wire))
            fast = fast_server.serve_wire_fast(wire)
            if fast is None:      # first call populates the cache
                fast = fast_server.serve_wire(Message.from_wire(wire))
            assert bytes(fast) == bytes(slow)
