"""The simulation pinned by golden digests.

A hot-path change (a memo, a smaller row, a cheaper table) must leave
what the simulator computes exactly as it was.  Two small replays are
run on seeds 1-3 and reduced to sha256 digests:

* a Zipf-hot UDP replay (``zipf_trace``: 200 names, 100 clients) at
  200 k q/s with a 0.25 ms batch window against the wildcard
  ``example.com`` zone: the zero-copy and batched-datagram paths;
* a B-Root-shaped replay (``BRootWorkload``: 3 % TCP, junk TLDs, DO
  bits) on its own schedule against the root zone: the decode, miss and
  stream paths.

The result digest covers every ``sent`` row in result order and the
result's event counters; the server digest covers ``ServerStats``
(the first 16 hex digits of each sha256 are kept).
The expected values were computed at commit
``e98a5b0901c0322c8848ec4178de19d9be32129e``; a change that moves one
of them changes what the simulator does, and has to say so.
"""

import hashlib
from dataclasses import astuple

import pytest

from repro.experiments.fig6_timing import wildcard_example_zone
from repro.experiments.topology import build_evaluation_topology
from repro.netsim import UdpSocket
from repro.replay import ReplayConfig, SimReplayEngine
from repro.replay.result import _COUNTER_FIELDS, sent_row
from repro.server import AuthoritativeServer, HostedDnsServer
from repro.trace import BRootWorkload, QueryMutator, retarget, zipf_trace
from repro.trace.synthetic import make_root_zone

SERVER = "10.0.0.2"


def hot_replay(seed):
    return (wildcard_example_zone(),
            ReplayConfig(track_timing=False, fast_replay_rate=2e5,
                         batch_window=2.5e-4),
            zipf_trace(3000, server=SERVER, seed=seed))


def broot_replay(seed):
    workload = BRootWorkload(mean_rate=2000.0, duration=1.5, seed=seed)
    return (make_root_zone(), ReplayConfig(track_timing=True),
            QueryMutator([retarget(SERVER)]).stream(
                workload.generate_stream()))


def run(replay, seed):
    zone, config, records = replay(seed)
    testbed = build_evaluation_topology()
    server = AuthoritativeServer.single_view([zone])
    HostedDnsServer(testbed.server_host, server)
    engine = SimReplayEngine(testbed.network, config)
    return engine, server, engine.replay_stream(records)


def digests(server, result):
    rows = hashlib.sha256()
    for entry in result.sent:
        rows.update(repr(sent_row(entry)).encode())
    rows.update(repr([getattr(result, name)
                      for name in _COUNTER_FIELDS]).encode())
    stats = hashlib.sha256(repr(astuple(server.stats)).encode())
    return rows.hexdigest()[:16], stats.hexdigest()[:16]


# (replay, seed) -> (records, result digest, ServerStats digest)
GOLDEN = {
    ("broot", 1): (2942, "de7344ad24c3cdfa", "963dd53d23d490cb"),
    ("broot", 2): (2945, "080e6f98d39447f6", "5c95371a556f796d"),
    ("broot", 3): (3077, "ae39443acef4dc9a", "00e7a2a3c7b9f60b"),
    ("hot", 1): (3000, "fcf32e0d46fd3ead", "032f81b4c10fe2b8"),
    ("hot", 2): (3000, "6582fd044b4ce9e1", "032f81b4c10fe2b8"),
    ("hot", 3): (3000, "2866b0a6a012665c", "032f81b4c10fe2b8"),
}
REPLAYS = {"hot": hot_replay, "broot": broot_replay}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN))
def test_simulation_matches_golden_digest(name, seed):
    _engine, server, result = run(REPLAYS[name], seed)
    assert result.unanswered() == 0
    assert (len(result), *digests(server, result)) == GOLDEN[name, seed]


def test_client_batches_are_one_per_socket_and_instant(monkeypatch):
    # Each send instant's answers come back to as many per-source
    # sockets as the instant had sources, so a client host's batch has
    # no run of datagrams for one socket to coalesce: grouping the
    # client half per socket would save nothing.  The count pins that.
    calls = []
    deliver = UdpSocket.deliver_batch

    def counting(sock, datagrams):
        calls.append((sock, sock.host.network.loop.now))
        deliver(sock, datagrams)

    monkeypatch.setattr(UdpSocket, "deliver_batch", counting)
    engine, _server, result = run(hot_replay, 1)
    clients = set(engine.client_hosts)
    client_calls = [(sock, now) for sock, now in calls
                    if sock.host in clients]
    assert result.unanswered() == 0
    assert len(client_calls) == len(set(client_calls)) > 0
