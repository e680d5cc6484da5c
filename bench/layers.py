"""The traced run: per-layer numbers, taken from outside the program.

Three families (the README defines every metric):

1. *Layer drivers* call one layer's public functions directly, over a
   sample of the workload's own input.
2. *Boundary spans* wrap the public callables between layers while a
   simulated workload runs at a quarter of its size, next to an
   unwrapped run of the same size that prices the wrappers.
3. *Process accounting* reads, per worker process, the CPU time that
   ``bench.procstat`` sampled while a live workload ran at full size,
   then the sink's capture and the merged result's counters.

A traced run reports every per-layer metric; those whose layer does not
run on the workload stay 0 (``bench.metrics`` says which run where).
"""

from __future__ import annotations

import gc
import json
import os
from itertools import islice
from time import perf_counter, process_time
from typing import Callable, Dict, Iterable, List, Tuple

from repro.dns import Message
from repro.netsim.core import EventLoop
from repro.netsim.network import Host, Network, UdpSocket
from repro.replay.distributor import StickyAssigner
from repro.replay.engine import SimReplayEngine
from repro.replay.multiproc import ProcessTopology
from repro.replay.protocol import connected_pair
from repro.replay.querier import SimQuerier
from repro.replay.result import ReplayResult, SentQuery
from repro.server import AuthoritativeServer
from repro.telemetry import Telemetry, TelemetryConfig
from repro.trace import Trace
from repro.trace.mutator import QueryMutator, retarget
from repro.trace.stream import iter_shard_file, shard_path, split_shards
from repro.trace.synthetic import BRootWorkload, make_root_zone

from . import workloads as wl
from .metrics import PER_LAYER, SPAN_LAYERS
from .procstat import ProcessSampler
from .sink import SinkProcess
from .spans import Installed, SpanRecorder, self_times

HERE = os.path.dirname(os.path.abspath(__file__))

# Records per second of --seconds that a layer driver works through.
DRIVER_RECORDS = 5_000

# (class, public callables, layer) — the boundary list of the README.
BOUNDARIES = (
    (SimReplayEngine, ("replay_stream",), "replay.engine"),
    (SimQuerier, ("send", "send_batch"), "replay.querier"),
    (EventLoop, ("run_until",), "netsim.loop"),
    (UdpSocket, ("sendto", "sendto_batch"), "netsim.network"),
    (Host, ("send_packet", "send_packet_batch", "receive_packet",
            "receive_packet_batch"), "netsim.network"),
    (Network, ("transmit", "transmit_batch"), "netsim.network"),
    (AuthoritativeServer, ("serve_wire", "serve_wire_fast",
                           "handle_query"), "server.authoritative"),
    (Message, ("from_wire", "to_wire"), "dns.codec"),
    (ReplayResult, ("add",), "replay.result"),
)
# Socket delivery is one callable for both ends: port 53 is the server's
# (server.hosting), any other port a querier's (replay.querier).
DELIVERY = ("deliver", "deliver_batch")


def install_boundaries(recorder: SpanRecorder) -> Installed:
    ids = {name: index for index, name in enumerate(recorder.layers)}
    installed = Installed()
    for owner, names, layer in BOUNDARIES:
        for name in names:
            installed.replace(
                owner, name,
                lambda plain, layer=layer: recorder.wrap(plain, ids[layer]))
    hosting, querier = ids["server.hosting"], ids["replay.querier"]
    for name in DELIVERY:
        installed.replace(
            UdpSocket, name,
            lambda plain: recorder.wrap_by(
                plain, lambda sock: hosting if sock.port == 53 else querier))
    return installed


def per_op_us(operation: Callable, items: Iterable) -> float:
    """Mean microseconds of ``operation(item)``, the loop included."""
    count = 0
    began = perf_counter()
    for item in items:
        operation(item)
        count += 1
    return (perf_counter() - began) / max(1, count) * 1e6


def driver_records(seconds: float) -> int:
    return max(100, round(DRIVER_RECORDS * seconds))


# ---------------------------------------------------------------------------
# Family 2: boundary spans on the simulated workloads
# ---------------------------------------------------------------------------

def traced_sim(workload: wl.Workload, seed: int, seconds: float,
               workdir: str, values: Dict[str, float]) -> wl.Outcome:
    part = seconds / 4

    world = workload.setup(seed, part, workdir)
    gc.collect()
    began = perf_counter()
    result = workload.window(world)
    plain_wall = perf_counter() - began
    plain = workload.finish(world, result)
    del world, result
    gc.collect()

    recorder = SpanRecorder(SPAN_LAYERS)
    installed = install_boundaries(recorder)
    try:
        # Built under the wrappers: the hosted server binds its engine's
        # methods when it is constructed.
        world = workload.setup(seed, part, workdir)
        world.records = recorder.iterate(
            world.counted, recorder.layers.index("trace"))
        gc.collect()
        began = perf_counter()
        result = workload.window(world)
        traced_wall = perf_counter() - began
    finally:
        installed.restore()
    outcome = workload.finish(world, result)
    outcome.failures.extend(plain.failures)
    outcome.check(outcome.records == plain.records,
                  "traced and untraced runs replayed different traces")

    seconds_by_layer, calls = self_times(
        recorder.layer, recorder.parent, recorder.start, recorder.end,
        len(SPAN_LAYERS))
    for index, layer in enumerate(SPAN_LAYERS):
        values[f"{layer}.self_s"] = seconds_by_layer[index]
        values[f"{layer}.calls"] = calls[index]
    values["span.coverage"] = sum(seconds_by_layer) / traced_wall
    values["span.overhead_ratio"] = traced_wall / plain_wall
    values.update(outcome.detail)
    recorder.write(os.path.join(HERE, ".work",
                                f"spans-{workload.name}.tsv"))
    return outcome


# ---------------------------------------------------------------------------
# Family 3: process accounting on the live workloads
# ---------------------------------------------------------------------------

def traced_live(workload: wl.Workload, seed: int, seconds: float,
                workdir: str, values: Dict[str, float]
                ) -> Tuple[wl.Outcome, float]:
    world = workload.setup(seed, seconds, workdir)
    sampler = ProcessSampler()
    try:
        gc.collect()
        own_before = process_time()
        cpu_before = wl.cpu_seconds()
        sampler.start()
        began = perf_counter()
        try:
            result = workload.window(world)
            wall = perf_counter() - began
        finally:
            sampler.stop()
        cpu = wl.cpu_seconds() - cpu_before
        own = process_time() - own_before
        outcome = workload.finish(world, result)
    finally:
        workload.teardown(world)
    distributors = sampler.role("replay-distributor")
    queriers = sampler.role("replay-querier")
    values["replay.controller.cpu_s"] = own
    values["replay.distributor.cpu_s"] = sum(distributors)
    values["replay.querier.cpu_s"] = sum(queriers)
    values["replay.distributor.busy_frac"] = \
        max(distributors, default=0.0) / wall
    values["replay.querier.busy_frac"] = max(queriers, default=0.0) / wall
    values["replay.cpu_us_per_query"] = cpu / outcome.records * 1e6
    values.update(outcome.detail)
    return outcome, wall


# ---------------------------------------------------------------------------
# Family 1: layer drivers, grouped by the workload whose input they use
# ---------------------------------------------------------------------------

def drive_sim_broot(seed: int, seconds: float, _workdir: str,
                    values: Dict[str, float]) -> None:
    count = driver_records(seconds)
    generator = BRootWorkload(
        mean_rate=2000.0, duration=wl.BROOT_TRACE_SECONDS * seconds,
        seed=seed).generate_stream()
    raw: List = []
    values["trace.generate_us"] = per_op_us(raw.append,
                                            islice(generator, count))
    mutated: List = []
    values["trace.mutate_us"] = per_op_us(
        mutated.append,
        QueryMutator([retarget(wl.SIM_SERVER)]).stream(raw))
    # retarget() made new record objects, so no question is cached yet.
    values["dns.question_key_us"] = per_op_us(
        lambda record: record.question(), mutated)
    messages: List = []
    values["dns.decode_us"] = per_op_us(
        lambda record: messages.append(Message.from_wire(record.wire)),
        mutated)
    values["dns.encode_us"] = per_op_us(
        lambda message: message.to_wire(), messages)

    # A miss as the server layer sees it: the zero-copy probe fails, then
    # the decoded query is looked up, answered, encoded and cached.  The
    # first query for each distinct question is what misses in the window.
    server = AuthoritativeServer.single_view([make_root_zone()])
    seen = set()
    firsts = []
    for record, message in zip(mutated, messages):
        if record.protocol == "udp" and record.wire[2:] not in seen:
            seen.add(record.wire[2:])
            firsts.append((record, message))

    def serve_miss(pair) -> None:
        record, message = pair
        if server.serve_wire_fast(record.wire, record.src, "udp") is None:
            server.serve_wire(message, record.src, "udp")

    values["server.serve_miss_us"] = per_op_us(serve_miss, firsts)


def drive_sim_hot(seed: int, seconds: float, _workdir: str,
                  values: Dict[str, float]) -> None:
    count = driver_records(seconds)
    records = list(wl.hot_records(seed, count))

    server = AuthoritativeServer.single_view([wl.wildcard_example_zone()])
    for record in records:       # warm the 200 names
        if server.serve_wire_fast(record.wire, record.src, "udp") is None:
            server.serve_wire(record.message(), record.src, "udp")
    values["server.serve_hit_us"] = per_op_us(
        lambda record: server.serve_wire_fast(record.wire, record.src,
                                              "udp"), records)

    def nothing() -> None:
        pass

    loop = EventLoop()
    began = perf_counter()
    loop.call_at_many([(index * 1e-6, nothing, ()) for index in range(count)])
    loop.run_until(1.0 + count * 1e-6)
    values["netsim.loop_event_us"] = (perf_counter() - began) / count * 1e6

    for name, batch in (("netsim.udp_hop_us", 1),
                        ("netsim.udp_hop_batch_us", 50)):
        loop = EventLoop()
        network = Network(loop)
        near = network.add_host("near", "10.9.0.1")
        far = network.add_host("far", "10.9.0.2")
        arrived = []
        far.bind_udp("10.9.0.2", 53,
                     lambda _sock, data, _src, _sport: arrived.append(data))
        sender = near.bind_udp("10.9.0.1", 0)
        payload = records[0].wire
        began = perf_counter()
        for _round in range(count // 1000 + 1):
            if batch == 1:
                for _ in range(1000):
                    sender.sendto(payload, "10.9.0.2", 53)
            else:
                for _ in range(1000 // batch):
                    sender.sendto_batch([(payload, "10.9.0.2", 53)] * batch)
            loop.run_until(loop.now + 0.01)
        values[name] = (perf_counter() - began) / len(arrived) * 1e6

    # What list mode costs per query: build the entry and keep it.
    result = ReplayResult()
    values["replay.result.add_us"] = per_op_us(
        lambda record: result.add(SentQuery(
            index=0, source=record.src, trace_time=record.timestamp,
            scheduled_at=0.0, sent_at=0.0, protocol="udp", qname="n",
            querier_id=0)), records)

    walls = []
    for telemetry in (None, Telemetry(TelemetryConfig(trace=True,
                                                       metrics=True))):
        world = wl.hot_world(records, telemetry)
        gc.collect()
        began = perf_counter()
        wl.window_sim(world)
        walls.append(perf_counter() - began)
        if telemetry is not None:
            telemetry.stop()
    values["telemetry.traced_ratio"] = walls[1] / walls[0]


def _frame_us(send: Callable, records: List) -> float:
    """Frame a record, push it through a loopback TCP pair, parse it."""
    left, right = connected_pair()
    try:
        began = perf_counter()
        for start in range(0, len(records), 256):
            chunk = records[start:start + 256]
            for offset, record in enumerate(chunk):
                send(left, start + offset, record)
            for _ in chunk:
                right.receive()
        return (perf_counter() - began) / len(records) * 1e6
    finally:
        left.close()
        right.close()


def drive_live_flood(seed: int, seconds: float, workdir: str,
                     values: Dict[str, float]) -> None:
    count = driver_records(seconds)
    records = list(wl.unique_records(seed, count, 0.0, 64))
    directory = os.path.join(workdir, "driver-shards")
    began = perf_counter()
    manifest = split_shards(records, directory, 1)
    values["trace.encode_us"] = (perf_counter() - began) / count * 1e6
    path = shard_path(directory, 0, manifest)
    values["trace.bytes_per_record"] = os.path.getsize(path) / count
    values["trace.decode_us"] = per_op_us(
        lambda record: None, iter_shard_file(path, read_ahead=0))

    assigner = StickyAssigner(["querier-0", "querier-1"])
    values["replay.assign_us"] = per_op_us(
        lambda record: assigner.assign(record.src), records)
    values["replay.protocol.record_us"] = _frame_us(
        lambda sock, _index, record: sock.send_record(record), records)

    result = ReplayResult(aggregate=True)

    def count_one(record) -> None:
        result.count_send("udp", record.timestamp, 1.0)
        result.count_answer(0.0005)

    values["replay.result.count_us"] = per_op_us(count_one, records)

    # What a replay costs before the first and after the last record.
    world = wl.live_world(seed, 1, 0.0, 1, os.path.join(workdir, "one"),
                           shard_files=True, pace_lead=0.0)
    try:
        began = perf_counter()
        wl.window_live(world)
        values["replay.multiproc.fixed_s"] = perf_counter() - began
    finally:
        wl.teardown_live(world)


def drive_live_recovery(seed: int, seconds: float, workdir: str,
                        values: Dict[str, float], outcome: wl.Outcome,
                        recovery_wall: float) -> None:
    count = driver_records(seconds)
    records = list(wl.unique_records(seed, count, 0.0, 64))
    values["replay.protocol.record_seq_us"] = _frame_us(
        lambda sock, index, record: sock.send_record_seq(index, record),
        records)

    # A list-mode shard of the window's size: serialise, parse, merge.
    entries = outcome.records
    shard = ReplayResult("querier-0")
    for index in range(entries):
        shard.add(SentQuery(
            index=index, source="10.128.0.1", trace_time=0.0,
            scheduled_at=1.0, sent_at=1.0, protocol="udp",
            qname=f"q{index:09d}.example.com.", answered_at=1.001,
            querier_id=0))
    merged = ReplayResult("controller")
    began = perf_counter()
    merged.merge(ReplayResult.from_dict(
        json.loads(json.dumps(shard.to_dict()))))
    values["replay.result.wire_us"] = \
        (perf_counter() - began) / entries * 1e6

    # The same burst through the classic controller: recovery off.
    directory = os.path.join(workdir, "classic")
    os.makedirs(directory)
    sink = SinkProcess(entries, directory)
    try:
        trace = Trace(wl.unique_records(seed, entries, 0.0, 64))
        topology = ProcessTopology([sink.address], wl.tree_config())
        began = perf_counter()
        result = topology.replay(trace)
        classic_wall = perf_counter() - began
    finally:
        sink.stop()
    outcome.check(len(result) == entries,
                  f"classic replay sent {len(result)} of {entries} records")
    values["replay.multiproc.classic_12k_s"] = classic_wall
    values["replay.recovery.cost_ratio"] = recovery_wall / classic_wall


def traced_run(workload: wl.Workload, seed: int, seconds: float,
               workdir: str) -> Tuple[wl.Outcome, Dict[str, float]]:
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    if workload.name in ("sim-broot", "sim-hot"):
        outcome = traced_sim(workload, seed, seconds, workdir, values)
        drive = drive_sim_broot if workload.name == "sim-broot" \
            else drive_sim_hot
        drive(seed, seconds, workdir, values)
    else:
        outcome, wall = traced_live(workload, seed, seconds, workdir, values)
        if workload.name == "live-flood":
            drive_live_flood(seed, seconds, workdir, values)
        elif workload.name == "live-recovery":
            drive_live_recovery(seed, seconds, workdir, values, outcome,
                                wall)
    return outcome, {name: float(values[name]) for name in PER_LAYER}
