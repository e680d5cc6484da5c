"""The five workloads: seeded inputs, set-up, the measured window, checks.

Every size is a rate times ``--seconds``, chosen so that a window lasts
about ``--seconds`` on the 2-core reference box; at the benchmark's
``run_seconds = 10`` the sizes are the ones quoted in the README.  The
program under test receives only the generated inputs, never the seed.

A workload is three functions: ``setup`` builds inputs and whatever the
window needs, ``window`` is the single call into the replay entry point
that gets timed, and ``finish`` turns what it returned into an
:class:`Outcome`, verifying the outputs on the way.
"""

from __future__ import annotations

import bisect
import gc
import os
import random
import resource
import shutil
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

from repro.dns import Edns, Message, Name, RRType
from repro.experiments.fig6_timing import wildcard_example_zone
from repro.experiments.topology import build_evaluation_topology
from repro.perf import PerfCounters
from repro.replay import ReplayConfig, SimReplayEngine
from repro.replay.distributed import DistributedConfig
from repro.replay.multiproc import ProcessTopology
from repro.replay.recovery import RecoveryConfig
from repro.server import AuthoritativeServer, HostedDnsServer
from repro.trace import QueryRecord, Trace
from repro.trace.mutator import QueryMutator, retarget
from repro.trace.stream import split_shards
from repro.trace.synthetic import BRootWorkload, make_root_zone

from . import timing
from .sink import SinkProcess

SIM_SERVER = "10.0.0.2"

# Sizes per second of --seconds (see the module docstring).
BROOT_TRACE_SECONDS = 3.2       # of a 2000 q/s B-Root-like trace
HOT_RECORDS = 30_000
FLOOD_RECORDS = 40_000
PACED_RATE = 10_000             # also the replay rate: 0.1 ms interval
RECOVERY_RECORDS = 1_200


@dataclass
class Outcome:
    """What one window did, as the benchmark (not the program) saw it."""

    records: int                 # N, the records in the trace
    answered: int                # answers the program matched
    delivered: int               # sim: answered; live: arrived at the sink
    on_time: int                 # sent within 2.5 ms of when they were due
    failures: List[str] = field(default_factory=list)   # failed checks
    detail: Dict[str, float] = field(default_factory=dict)

    def check(self, holds: bool, what: str) -> None:
        if not holds:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, float, str], object]
    window: Callable[[object], object]
    finish: Callable[[object, object], Outcome]
    teardown: Callable[[object], None]


def cpu_seconds() -> float:
    """CPU used by this process and every child it has reaped so far.

    The sink is still running when this is read around a window, so its
    time is left out; the replay workers are reaped inside the window.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + reaped.ru_utime + reaped.ru_stime)


def peak_rss_mb() -> float:
    """Largest resident set so far of this process or any reaped child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


# ---------------------------------------------------------------------------
# Simulated workloads: one process, simulated time, open loop
# ---------------------------------------------------------------------------

class Counted:
    """Counts the records the program pulled: N without a second pass."""

    def __init__(self, records: Iterable[QueryRecord]):
        self._next = iter(records).__next__
        self.count = 0

    def __iter__(self) -> "Counted":
        return self

    def __next__(self) -> QueryRecord:
        record = self._next()
        self.count += 1
        return record


@dataclass
class SimWorld:
    engine: SimReplayEngine
    server: AuthoritativeServer
    perf: PerfCounters
    counted: Counted
    records: Iterable[QueryRecord]      # what the program is handed


def sim_world(zone, config: ReplayConfig, records: Iterable[QueryRecord],
              telemetry=None) -> SimWorld:
    testbed = build_evaluation_topology()
    perf = PerfCounters()
    server = AuthoritativeServer.single_view([zone])
    server.perf = perf
    HostedDnsServer(testbed.server_host, server, perf=perf,
                    telemetry=telemetry)
    engine = SimReplayEngine(testbed.network, config, perf=perf,
                             telemetry=telemetry)
    counted = Counted(records)
    return SimWorld(engine, server, perf, counted, counted)


def broot_records(seed: int, seconds: float) -> Iterator[QueryRecord]:
    """The ROADMAP pipeline's front half: generate, then mutate, lazily."""
    workload = BRootWorkload(mean_rate=2000.0,
                             duration=BROOT_TRACE_SECONDS * seconds,
                             seed=seed)
    return QueryMutator([retarget(SIM_SERVER)]).stream(
        workload.generate_stream())


def hot_records(seed: int, count: int, population: int = 200,
                exponent: float = 1.1, clients: int = 100,
                interval: float = 0.001) -> Iterator[QueryRecord]:
    """Zipf draws over pre-encoded names, the message ID spliced in.

    The shape of ``repro.trace.zipf_trace`` without its per-record
    encode, so that generation stays a small share of the window.
    """
    rng = random.Random(seed)
    bodies = [Message.make_query(
        Name.from_text(f"name{rank:05d}.example.com."), RRType.A,
        msg_id=1, edns=Edns()).to_wire()[2:] for rank in range(population)]
    cumulative: List[float] = []
    total = 0.0
    for rank in range(population):
        total += (rank + 1) ** -exponent
        cumulative.append(total)
    sources = [f"10.96.{index // 250}.{index % 250 + 1}"
               for index in range(clients)]
    pack_id = struct.Struct("!H").pack
    draw, find = rng.random, bisect.bisect_left
    for index in range(count):
        yield QueryRecord(
            index * interval, sources[index % clients],
            1024 + (index * 13) % 60000, SIM_SERVER, 53, "udp",
            pack_id(index % 0xFFFF + 1)
            + bodies[find(cumulative, draw() * total)])


def setup_sim_broot(seed: int, seconds: float, _workdir: str) -> SimWorld:
    return sim_world(make_root_zone(), ReplayConfig(track_timing=True),
                     broot_records(seed, seconds))


def hot_world(records: Iterable[QueryRecord], telemetry=None) -> SimWorld:
    return sim_world(
        wildcard_example_zone(),
        ReplayConfig(track_timing=False, fast_replay_rate=2e5,
                     batch_window=2.5e-4),
        records, telemetry)


def setup_sim_hot(seed: int, seconds: float, _workdir: str) -> SimWorld:
    return hot_world(hot_records(seed,
                                 max(1, round(HOT_RECORDS * seconds))))


def window_sim(world: SimWorld):
    return world.engine.replay_stream(world.records)


def finish_sim(world: SimWorld, result) -> Outcome:
    count = world.counted.count
    answered = sum(1 for entry in result.sent
                   if entry.answered_at is not None)
    # Simulated clock: how far each send left from the time its timer
    # aimed for.
    on_time = sum(1 for entry in result.sent
                  if abs(entry.sent_at - entry.scheduled_at)
                  <= timing.TOLERANCE_S)
    cache = world.server.wire_cache.counters()
    outcome = Outcome(count, answered, answered, on_time)
    outcome.check(count > 0, "the trace is empty")
    outcome.check(len(result) == count,
                  f"sent {len(result)} of {count} records")
    outcome.check(answered == count,
                  f"answered {answered} of {count} records")
    outcome.check(cache["hits"] + cache["misses"] == count,
                  f"wire cache saw {cache['hits'] + cache['misses']} "
                  f"lookups for {count} queries")
    outcome.detail = {
        "netsim.events": world.engine.loop.events_processed,
        "server.wirecache_hit_frac": cache["hits"] / max(1, count),
        "server.decodes": world.perf.count("hosting.decodes"),
    }
    return outcome


def teardown_sim(_world: SimWorld) -> None:
    pass


# ---------------------------------------------------------------------------
# Live workloads: 1 distributor x 2 querier processes over loopback
# ---------------------------------------------------------------------------

def unique_records(seed: int, count: int, interval: float,
                   clients: int) -> Iterator[QueryRecord]:
    """``count`` UDP queries, record *i* asking for ``q<i, 9 digits>``.

    The seed picks which client addresses there are and the order they
    rotate in, which is what decides the sticky routing.
    """
    rng = random.Random(seed)
    wire = Message.make_query(Name.from_text("q000000000.example.com."),
                              RRType.A, msg_id=1, edns=Edns()).to_wire()
    head, tail = wire[:14], wire[23:]
    sources = [f"10.128.{block // 250}.{block % 250 + 1}"
               for block in rng.sample(range(250 * 250), clients)]
    port_offset = rng.randrange(60000)
    for index in range(count):
        yield QueryRecord(
            index * interval, sources[index % clients],
            1024 + (index * 7 + port_offset) % 60000, "127.0.0.1", 53,
            "udp", head + b"%09d" % index + tail)


def tree_config(recovery: Optional[RecoveryConfig] = None
                ) -> DistributedConfig:
    """The smallest tree that still routes: 1 distributor, 2 queriers.

    ``settle_time`` only lengthens the controller's collection deadline
    (duration + pace_lead + settle_time + 10 s); at the default a flood,
    whose trace duration is zero, can hit it and lose a worker's shard.
    """
    return DistributedConfig(distributors=1, queriers_per_distributor=2,
                             settle_time=60.0, recovery=recovery)


@dataclass
class LiveWorld:
    count: int
    interval: float
    directory: str
    sink: SinkProcess
    topology: ProcessTopology
    shards: Optional[str] = None        # shard-file set, or
    trace: Optional[Trace] = None       # an in-memory trace
    pace_lead: float = 2.0


def live_world(seed: int, count: int, interval: float, clients: int,
                workdir: str, shard_files: bool,
                recovery: Optional[RecoveryConfig] = None,
                pace_lead: float = 2.0) -> LiveWorld:
    count = max(1, count)
    os.makedirs(workdir, exist_ok=True)
    records = unique_records(seed, count, interval, clients)
    shards = trace = None
    if shard_files:
        shards = os.path.join(workdir, "shards")
        split_shards(records, shards, 1)
    else:
        trace = Trace(records, name="burst")
    sink = SinkProcess(count, workdir)
    topology = ProcessTopology([sink.address], tree_config(recovery))
    return LiveWorld(count, interval, workdir, sink, topology, shards,
                     trace, pace_lead)


def setup_live_flood(seed: int, seconds: float, workdir: str) -> LiveWorld:
    return live_world(seed, round(FLOOD_RECORDS * seconds), 0.0, 64,
                       workdir, shard_files=True, pace_lead=0.0)


def setup_live_paced(seed: int, seconds: float, workdir: str) -> LiveWorld:
    return live_world(seed, round(PACED_RATE * seconds), 1.0 / PACED_RATE,
                       1000, workdir, shard_files=True)


def setup_live_recovery(seed: int, seconds: float,
                        workdir: str) -> LiveWorld:
    return live_world(seed, round(RECOVERY_RECORDS * seconds), 0.0, 64,
                       workdir, shard_files=False,
                       recovery=RecoveryConfig())


def window_live(world: LiveWorld):
    if world.shards is not None:
        return world.topology.replay_shard_files(
            world.shards, pace_lead=world.pace_lead)
    return world.topology.replay(world.trace)


def finish_live(world: LiveWorld, result) -> Outcome:
    count = world.count
    sink = world.sink.stop()
    arrivals, ports = world.sink.arrivals()
    delivered = sum(1 for arrival in arrivals if arrival > 0.0)
    if result.aggregate:
        answered = result.answered_count
    else:
        answered = sum(1 for entry in result.sent
                       if entry.answered_at is not None)
    detail = {
        "sink.cpu_s": sink["cpu_s"],
        "sink.arrived_frac": delivered / count,
        "sink.duplicates": sink["duplicates"],
    }
    for name in ("unmatched_responses", "send_failures", "deadline_shed"):
        detail[f"replay.result.{name}"] = getattr(result, name)
    for name in ("redelivered_records", "duplicate_merged"):
        detail[f"replay.recovery.{name}"] = getattr(result, name)
    if world.interval > 0.0:
        timestamps = [index * world.interval for index in range(count)]
        anchors = timing.fit_anchors(arrivals, ports, timestamps)
        errors = timing.send_errors(arrivals, ports, timestamps, anchors)
        on_time = timing.on_time_count(errors)
        late = sorted(abs(error) for error in errors)
        detail["replay.timing.anchor_skew_ms"] = (
            (max(anchors.values()) - min(anchors.values())) * 1e3
            if anchors else 0.0)
        detail["replay.timing.late_p50_ms"] = \
            timing.percentile(late, 0.50) * 1e3
        detail["replay.timing.late_p99_ms"] = \
            timing.percentile(late, 0.99) * 1e3
    else:
        # No schedule to miss: every record is due at once and the
        # window is the tolerance, so on time means it got there.
        on_time = delivered
    outcome = Outcome(count, answered, delivered, on_time, detail=detail)
    lost = world.topology.metrics.count("multiproc.lost_shards")
    outcome.check(lost == 0, f"{lost} worker result shards were lost")
    outcome.check(len(result) == count,
                  f"sent {len(result)} of {count} records")
    outcome.check(delivered == count,
                  f"{delivered} of {count} records reached the sink")
    outcome.check(sink["unparsed"] == 0,
                  f"the sink could not read {sink['unparsed']} query names")
    return outcome


def teardown_live(world: LiveWorld) -> None:
    world.sink.stop()
    shutil.rmtree(world.directory, ignore_errors=True)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "sim-broot",
        "B-Root-like trace generated, mutated and replayed in one "
        "simulated process; names outrun the wire cache, so codec and "
        "zone lookup dominate",
        setup_sim_broot, window_sim, finish_sim, teardown_sim),
    Workload(
        "sim-hot",
        "same engine on 200 hot names: zero-copy cache hits and batched "
        "datagrams, so the event loop and querier dominate and codec "
        "changes must not show",
        setup_sim_hot, window_sim, finish_sim, teardown_sim),
    Workload(
        "live-flood",
        "unique-name burst through 1 distributor x 2 querier processes "
        "over loopback as fast as the tree accepts: the real-socket "
        "throughput path",
        setup_live_flood, window_live, finish_live, teardown_live),
    Workload(
        "live-paced",
        "same tree on a 10 k q/s schedule: rate is pinned, so only "
        "send-time error, answers and CPU per query can move",
        setup_live_paced, window_live, finish_live, teardown_live),
    Workload(
        "live-recovery",
        "small burst through the recovering controller: RECORD_SEQ "
        "framing, checkpoints and exactly-once merge, the plane "
        "ROADMAP item 2 wants to fold away",
        setup_live_recovery, window_live, finish_live, teardown_live),
)}


# Set-ups per run; setup_s reports their median.
SETUP_REPEATS = 3


def measure(workload: Workload, seed: int, seconds: float, workdir: str
            ) -> Tuple[Outcome, float, float, float, float]:
    """Set up (several times), time the one window, verify.

    Returns the outcome, the window's wall and CPU seconds, the median
    set-up time, and the peak RSS at the end of the window (before the
    benchmark loads the sink's capture to check it).
    """
    setups = []
    world = None
    try:
        for _repeat in range(SETUP_REPEATS):
            if world is not None:
                workload.teardown(world)
            began = time.perf_counter()
            world = workload.setup(seed, seconds, workdir)
            setups.append(time.perf_counter() - began)
        gc.collect()
        cpu_before = cpu_seconds()
        began = time.perf_counter()
        result = workload.window(world)
        wall = time.perf_counter() - began
        cpu = cpu_seconds() - cpu_before
        peak = peak_rss_mb()
        outcome = workload.finish(world, result)
    finally:
        if world is not None:
            workload.teardown(world)
    return outcome, wall, cpu, statistics.median(setups), peak
