"""The fuzz driver: seeded campaigns, crash corpus, ddmin minimization.

``ldplayer fuzz --seed N --budget T`` runs every registered target
through its generator stream.  The input sequence is a pure function of
the seed, so a campaign is reproducible bit-for-bit; the budget only
decides how far down the same sequence the run gets.  A *crash* is any
escape from a target's contract (an exception outside the allowed
types, a differential divergence, a broken invariant).  Crashes are
minimized with a ddmin-style pass where the input is byte-shaped, then
persisted to the corpus directory as ``<target>/<sha12>.bin`` plus a
JSON sidecar holding the seed, example index, and traceback needed to
replay and debug the case.

Targets:

* ``wire-decode``     — hostile bytes into ``Message.from_wire``; only
  ``WireError`` may escape, and anything that decodes must re-encode
  and re-decode cleanly (codec closure);
* ``protocol-frames`` — hostile byte streams into
  ``MessageSocket.receive`` and ``receive_block``; only
  ``ProtocolError`` may escape, and the block reader must yield the
  messages and raise at the frame repeated ``receive()`` does;
* ``wire-cache``      — fuzz queries through the cached (decoded and
  decode-free paths) and uncached authoritative servers over a hostile
  root zone; bytes and ``ServerStats`` must match (the
  generated-workload version of the wire-cache oracle);
* ``tcp-schedule``    — seeded client action scripts + fault plans
  against a hosted server over the simulated network; every response
  that arrives must decode, and the stacks' counters stay sane;
* ``fault-replay``    — seeded fault plans under a small replay; every
  trace record must be accounted for in the ``ReplayResult``;
* ``recovery-schedule`` — random walks over the recovery model, which
  runs the production ledger and checkpoint store (worker crashes,
  frame reorder, duplicate delivery, frame loss, late answers): the
  merge must conserve every record exactly once at quiescence unless
  the ledger ran out of rounds.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import generators

DEFAULT_CORPUS_DIR = "fuzz-corpus"


@dataclass
class Crash:
    target: str
    seed: int
    example: int
    exception: str
    message: str
    trace: str
    data: Optional[bytes] = None          # byte-shaped inputs only
    original_size: Optional[int] = None
    case_repr: str = ""

    def digest(self) -> str:
        basis = self.data if self.data is not None \
            else f"{self.exception}:{self.case_repr}".encode()
        return hashlib.sha256(basis).hexdigest()[:12]


@dataclass
class TargetReport:
    target: str
    examples: int = 0
    crashes: List[Crash] = field(default_factory=list)


@dataclass
class FuzzReport:
    seed: int
    targets: List[TargetReport] = field(default_factory=list)

    @property
    def crashes(self) -> List[Crash]:
        return [crash for report in self.targets
                for crash in report.crashes]

    def summary(self) -> str:
        lines = [f"fuzz campaign seed={self.seed}"]
        for report in self.targets:
            verdict = ("ok" if not report.crashes
                       else f"{len(report.crashes)} CRASH(ES)")
            lines.append(f"  {report.target:16s} {report.examples:6d} "
                         f"examples  {verdict}")
        return "\n".join(lines)


# -- targets ----------------------------------------------------------------

def _run_wire_decode(data: bytes) -> None:
    from ..dns import Message, WireError
    try:
        message = Message.from_wire(data)
    except WireError:
        return
    wire = message.to_wire()       # whatever decodes must re-encode...
    Message.from_wire(wire)        # ...and the re-encoding must decode


class _ByteSocket:
    """A socket stub replaying one captured byte stream, at most
    ``chunk`` bytes per read."""

    def __init__(self, data: bytes, chunk: int = 65536):
        self._data = data
        self._offset = 0
        self._chunk = chunk

    def recv(self, size: int) -> bytes:
        size = min(size, self._chunk)
        chunk = self._data[self._offset:self._offset + size]
        self._offset += len(chunk)
        return chunk

    def sendall(self, data: bytes) -> None:
        pass

    def settimeout(self, timeout) -> None:
        pass

    def close(self) -> None:
        pass


def _frames_read(data: bytes, socket_class, chunk: int,
                 limit: Optional[int]) -> Tuple[str, Optional[str]]:
    """What a link replaying ``data`` yields until EOF or the first
    ``ProtocolError``: ``receive()`` calls when ``limit`` is None, else
    ``receive_block(limit)`` calls.  Returns the messages (as their
    repr, so a NaN TIME_SYNC compares equal) and the error text."""
    from ..replay.protocol import ProtocolError
    endpoint = socket_class(_ByteSocket(data, chunk))
    taken: list = []
    try:
        while True:
            if limit is None:
                message = endpoint.receive()
                block = [] if message is None else [message]
            else:
                block = endpoint.receive_block(limit)
            if not block:
                return repr(taken), None
            taken.extend(block)
    except ProtocolError as exc:
        return repr(taken), str(exc)


def _run_protocol_frames(data: bytes, socket_class=None) -> None:
    """Only ``ProtocolError`` may escape, and ``receive_block`` must
    agree with repeated ``receive()``: the same messages, then the same
    error at the same frame — whole streams and 7-byte trickles, blocks
    of 1, 3 and 256."""
    if socket_class is None:
        from ..replay.protocol import MessageSocket as socket_class
    want = _frames_read(data, socket_class, 65536, None)
    for chunk in (65536, 7):
        for limit in (1, 3, 256):
            got = _frames_read(data, socket_class, chunk, limit)
            if got != want:
                raise AssertionError(
                    f"receive_block({limit}) over {chunk}-byte reads "
                    f"diverges from receive(): {got!r} != {want!r}")


_WIRE_CACHE_SERVERS = None


def _run_wire_cache(data: bytes) -> None:
    """Cached == uncached, per transport, over three engines on
    :func:`generators.hostile_root_zone`: the reference without a cache,
    one driven through ``serve_wire`` and one the way the hosting layer
    drives it (``serve_wire_fast``, decoding only when that declines).
    A wire the decoder rejects must be declined by the fast path too."""
    global _WIRE_CACHE_SERVERS
    from ..dns import Message, WireError
    from ..server import AuthoritativeServer
    if _WIRE_CACHE_SERVERS is None:
        _WIRE_CACHE_SERVERS = tuple(
            AuthoritativeServer.single_view([generators.hostile_root_zone()])
            for _engine in range(3))
        _WIRE_CACHE_SERVERS[0].wire_cache = None
    reference, cached, hosted = _WIRE_CACHE_SERVERS
    try:
        query = Message.from_wire(data)
    except WireError:
        query = None
    if query is not None and (query.is_response or len(query.question) != 1):
        return

    def outcome(server, fast: bool, transport: str):
        try:
            wire = server.serve_wire_fast(data, transport=transport) \
                if fast else None
            if wire is None and query is not None:
                wire = server.serve_wire(query, transport=transport)
        except Exception as exc:             # noqa: BLE001 - differential
            return ("raise", type(exc).__name__, str(exc))
        return wire if wire is None else (
            bytes(wire[:2]) == data[:2], bytes(wire)[2:],
            dict(vars(server.stats)))

    for transport in ("udp", "tcp"):
        want = outcome(reference, False, transport)
        for server, fast in ((cached, False), (hosted, True)):
            got = outcome(server, fast, transport)
            if got != want:
                raise AssertionError(
                    f"wire-cache divergence ({transport}, fast={fast}): "
                    f"cached={got!r} uncached={want!r}")


def _run_tcp_schedule(schedule: "generators.TcpSchedule") -> None:
    from ..dns import DNS_PORT, Message, Name, RRType, read_zone
    from ..netsim import (EventLoop, FaultInjector, Network, NetworkError,
                          TcpOptions, TcpStack)
    from ..server import (AuthoritativeServer, HostedDnsServer,
                          StreamFramer, TransportConfig, frame_message)

    loop = EventLoop()
    network = Network(loop)
    server_host = network.add_host("server", "10.5.0.2")
    client_host = network.add_host("client", "10.5.0.1")
    zone = read_zone("""
$ORIGIN example.com.
@ 3600 IN SOA ns1 h. 1 1800 900 604800 86400
@ 3600 IN NS ns1
ns1 IN A 10.5.0.2
www 300 IN A 192.0.2.80
""", origin=Name.from_text("example.com."))
    HostedDnsServer(server_host, AuthoritativeServer.single_view([zone]),
                    config=TransportConfig(udp=False, tcp=True))
    if schedule.plan is not None:
        FaultInjector(network, schedule.plan, seed=schedule.seed & 0xFFFF)
    stack = TcpStack(client_host)
    framer = StreamFramer()
    responses: List[bytes] = []
    conn = stack.connect("10.5.0.1", "10.5.0.2", DNS_PORT,
                         TcpOptions(nagle=schedule.nagle))

    def on_response(wire: bytes) -> None:
        responses.append(wire)
        if (schedule.close_after is not None
                and len(responses) > schedule.close_after):
            return
        if (schedule.close_after is not None
                and len(responses) == schedule.close_after):
            conn.abort() if schedule.abort else conn.close()

    framer.on_message = on_response
    conn.on_data = lambda _conn, data: framer.feed(data)
    stream = b"".join(
        frame_message(Message.make_query(
            Name.from_text("www.example.com."), RRType.A,
            msg_id=index).to_wire())
        for index in range(schedule.query_count))
    def send_chunk(chunk: bytes) -> None:
        try:
            conn.send(chunk)
        except NetworkError:
            # The schedule may have closed/aborted its own end already;
            # the contract is a clean NetworkError, never corruption.
            pass

    offset, chunk_index = 0, 0
    while offset < len(stream):
        size = schedule.chunks[chunk_index % len(schedule.chunks)]
        chunk = stream[offset:offset + size]
        loop.call_at(0.01 * chunk_index, send_chunk, chunk)
        offset += size
        chunk_index += 1
    loop.run(max_time=30.0)
    # Contract: no escape above, every arrived response decodes, and
    # the stacks' books stay sane.
    for wire in responses:
        Message.from_wire(wire)
    if len(responses) > schedule.query_count:
        raise AssertionError(f"{len(responses)} responses for "
                             f"{schedule.query_count} queries")
    for tcp in (stack, server_host.tcp_stack):
        for name in ("total_accepted", "total_connected", "resets_sent",
                     "syn_drops", "retransmitted_segments"):
            if getattr(tcp, name) < 0:
                raise AssertionError(f"negative counter {name}")


def _run_fault_replay(seed: int) -> None:
    import random
    from ..netsim import FaultInjector, build_evaluation_topology
    from ..replay import ReplayConfig, SimReplayEngine
    from ..server import AuthoritativeServer, HostedDnsServer
    from ..trace import table1_synthetic, wildcard_example_zone

    testbed = build_evaluation_topology()
    server = AuthoritativeServer.single_view([wildcard_example_zone()])
    HostedDnsServer(testbed.server_host, server)
    plan = generators.fault_plan(random.Random(seed), duration=30.0)
    FaultInjector(testbed.network, plan, seed=seed & 0xFFFF)
    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(track_timing=False, fast_replay_rate=50000.0))
    trace = table1_synthetic("syn-1", duration=10.0, server="10.0.0.2")
    result = engine.replay(trace, extra_time=5.0)
    if len(result.sent) != len(trace.records):
        raise AssertionError(
            f"replay lost track of queries: {len(result.sent)} sent "
            f"entries for {len(trace.records)} records")
    for query in result.sent:
        if query.answered_at is not None \
                and query.answered_at < query.sent_at:
            raise AssertionError(
                f"query {query.index} answered before it was sent")


def _run_recovery_schedule(seed: int) -> None:
    import random
    from .explorer import RecoveryScenarioModel

    # Bigger budgets than the exhaustive explorer can afford: random
    # walks trade completeness for depth.
    model = RecoveryScenarioModel(
        "crash-reorder", workers=3, total=12, crashes=4,
        crashes_per_worker=2, dups=3, drops=3, late=tuple(range(1, 12, 2)))
    rng = random.Random(seed)
    for step in range(1000):
        choices = model.choices()
        if not choices:
            break
        model.apply(rng.randrange(len(choices)))
        bad = model.check()
        if bad:
            raise AssertionError(
                f"recovery invariant broken at step {step}: {bad}")
    else:
        raise AssertionError("recovery schedule did not quiesce "
                             "within 1000 steps")
    bad = model.check() + model.check_terminal()
    if bad:
        raise AssertionError(f"recovery schedule ended dirty: {bad}")


@dataclass
class FuzzTarget:
    name: str
    inputs: Callable[[int], Iterator]         # seed -> case stream
    execute: Callable[[object], None]
    byte_shaped: bool                         # ddmin applies
    default_examples: int


TARGETS: Dict[str, FuzzTarget] = {
    "wire-decode": FuzzTarget(
        "wire-decode", generators.hostile_wires, _run_wire_decode,
        True, 2000),
    "protocol-frames": FuzzTarget(
        "protocol-frames", generators.hostile_frames, _run_protocol_frames,
        True, 1000),
    "wire-cache": FuzzTarget(
        "wire-cache", generators.hostile_queries, _run_wire_cache,
        True, 1000),
    "tcp-schedule": FuzzTarget(
        "tcp-schedule", generators.tcp_schedules, _run_tcp_schedule,
        False, 40),
    "fault-replay": FuzzTarget(
        "fault-replay",
        lambda seed: iter(range(seed, seed + (1 << 20))),
        _run_fault_replay, False, 8),
    "recovery-schedule": FuzzTarget(
        "recovery-schedule",
        lambda seed: iter(range(seed, seed + (1 << 20))),
        _run_recovery_schedule, False, 25),
}


# -- minimization -----------------------------------------------------------

def ddmin(data: bytes, crashes: Callable[[bytes], bool],
          max_probes: int = 2000) -> bytes:
    """Classic delta debugging on a byte string.

    ``crashes`` must be deterministic; the returned input still crashes
    and is 1-minimal with respect to chunk removal at the granularity
    reached within the probe budget.
    """
    if not crashes(data):
        return data
    probes = 0
    chunks = 2
    while len(data) >= 2 and probes < max_probes:
        size = max(1, len(data) // chunks)
        reduced = False
        for start in range(0, len(data), size):
            candidate = data[:start] + data[start + size:]
            if not candidate:
                continue
            probes += 1
            if crashes(candidate):
                data = candidate
                chunks = max(chunks - 1, 2)
                reduced = True
                break
            if probes >= max_probes:
                break
        if not reduced:
            if size == 1:
                break
            chunks = min(chunks * 2, len(data))
    return data


def _crash_signature(execute: Callable[[object], None],
                     case) -> Optional[Tuple[str, str]]:
    try:
        execute(case)
    except Exception as exc:                   # noqa: BLE001 - fuzz oracle
        return (type(exc).__name__, str(exc)[:80])
    return None


# -- campaign ---------------------------------------------------------------

def _persist(crash: Crash, corpus_dir: str) -> str:
    directory = os.path.join(corpus_dir, crash.target)
    os.makedirs(directory, exist_ok=True)
    stem = os.path.join(directory, crash.digest())
    if crash.data is not None:
        with open(stem + ".bin", "wb") as handle:
            handle.write(crash.data)
    metadata = {
        "target": crash.target,
        "seed": crash.seed,
        "example": crash.example,
        "exception": crash.exception,
        "message": crash.message,
        "traceback": crash.trace,
        "case": crash.case_repr,
        "original_size": crash.original_size,
        "minimized_size": (len(crash.data)
                           if crash.data is not None else None),
        "replay": (f"ldplayer fuzz --seed {crash.seed} "
                   f"--targets {crash.target} "
                   f"--examples {crash.example + 1}"),
    }
    with open(stem + ".json", "w") as handle:
        json.dump(metadata, handle, indent=2)
    return stem


def fuzz_target(target: FuzzTarget, seed: int,
                examples: Optional[int] = None,
                budget: Optional[float] = None,
                corpus_dir: Optional[str] = None,
                max_crashes: int = 5) -> TargetReport:
    report = TargetReport(target.name)
    limit = examples if examples is not None else target.default_examples
    deadline = time.monotonic() + budget if budget is not None else None
    for index, case in enumerate(target.inputs(seed)):
        if index >= limit:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        report.examples += 1
        try:
            target.execute(case)
            continue
        except Exception as exc:               # noqa: BLE001 - fuzz oracle
            crash = Crash(
                target=target.name, seed=seed, example=index,
                exception=type(exc).__name__, message=str(exc),
                trace=traceback.format_exc(), case_repr=repr(case)[:200])
        if target.byte_shaped and isinstance(case, (bytes, bytearray)):
            signature = (crash.exception, crash.message[:80])
            crash.original_size = len(case)
            crash.data = ddmin(
                bytes(case),
                lambda data: _crash_signature(target.execute,
                                              data) == signature)
        if corpus_dir is not None:
            _persist(crash, corpus_dir)
        report.crashes.append(crash)
        if len(report.crashes) >= max_crashes:
            break
    return report


def run_fuzz(seed: int, targets: Optional[List[str]] = None,
             examples: Optional[int] = None,
             budget: Optional[float] = None,
             corpus_dir: Optional[str] = None) -> FuzzReport:
    report = FuzzReport(seed)
    names = targets if targets else sorted(TARGETS)
    share = budget / len(names) if budget is not None else None
    for name in names:
        if name not in TARGETS:
            raise ValueError(f"unknown fuzz target {name!r}; "
                             f"expected one of {sorted(TARGETS)}")
        report.targets.append(
            fuzz_target(TARGETS[name], seed, examples=examples,
                        budget=share, corpus_dir=corpus_dir))
    return report


# -- CLI --------------------------------------------------------------------

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="ldplayer fuzz",
        description="Seeded adversarial campaign against the protocol "
                    "stack (deterministic per seed).")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default 0); the input "
                             "sequence is a pure function of it")
    parser.add_argument("--budget", type=float, default=None,
                        help="wall-clock budget in seconds, split "
                             "across targets")
    parser.add_argument("--examples", type=int, default=None,
                        help="examples per target (overrides each "
                             "target's default)")
    parser.add_argument("--targets", default=None,
                        help="comma-separated target subset "
                             f"(default: all of {sorted(TARGETS)})")
    parser.add_argument("--corpus", default=DEFAULT_CORPUS_DIR,
                        help="crash-corpus directory "
                             f"(default {DEFAULT_CORPUS_DIR}/)")
    parser.add_argument("--explore", action="store_true",
                        help="also run the bounded state-space "
                             "explorer scenarios")
    args = parser.parse_args(argv)

    targets = args.targets.split(",") if args.targets else None
    report = run_fuzz(args.seed, targets=targets, examples=args.examples,
                      budget=args.budget, corpus_dir=args.corpus)
    print(report.summary())
    failed = bool(report.crashes)
    for crash in report.crashes:
        print(f"\ncrash in {crash.target} (example {crash.example}, "
              f"corpus {crash.digest()}):")
        print(f"  {crash.exception}: {crash.message}")

    if args.explore:
        from .explorer import explore_all
        print("\nbounded exploration:")
        for name, result in explore_all().items():
            print(f"  {name:28s} {result.summary()}")
            failed = failed or not result.ok or not result.exhausted
            for violation in result.violations[:5]:
                print(f"    {violation}")
    return 1 if failed else 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
