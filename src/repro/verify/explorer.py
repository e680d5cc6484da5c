"""Bounded state-space exploration of the simulator's state machines.

Re-execution depth-first search over nondeterministic event orderings:
a *model* exposes the enabled choices at its current state (packet
deliveries per flow, timer firings, application actions), the explorer
enumerates every ordering up to a depth bound, rebuilding the model
from scratch for each path prefix so no snapshot/restore support is
needed from the code under test.  Visited states are fingerprinted and
pruned — two orderings that converge on the same state share their
futures.

Two model families ship here, matching the subsystems whose bugs are
ordering-dependent:

* :class:`TcpScenarioModel` — small instances of the simulated TCP
  state machine in :mod:`repro.netsim.tcp`: the 2-connection close
  race, simultaneous close (FIN crossing FIN), the refuse-when-full
  RST path, and the TIME_WAIT timer lifecycle.  Packet deliveries
  across flows are explored in every order; timers fire when no
  deliveries are pending (the LAN regime, where nothing outlives an
  RTO).  Invariants: every observed state transition is an edge of the
  RFC 793 diagram as implemented, counters never go negative, the
  connection table only sheds connections in CLOSED, and quiescence
  means every connection closed.

* :class:`AdmissionScenarioModel` — the :class:`OverloadControl`
  admission/RRL pipeline: arrivals interleaved with service-timer
  drains under each queue policy, checked against counter conservation
  (``arrived == served + dropped + shed + queued``) after every step.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..netsim import EventLoop, Network, TcpOptions, TcpStack, TcpState
from ..perf import PerfCounters
from ..server.overload import OverloadConfig, OverloadControl, RrlConfig

# -- generic engine ---------------------------------------------------------


@dataclass
class Violation:
    invariant: str
    detail: str
    trace: Tuple[str, ...]

    def __str__(self) -> str:
        path = " -> ".join(self.trace) or "<initial>"
        return f"{self.invariant}: {self.detail}\n  after: {path}"


@dataclass
class ExplorationResult:
    paths: int = 0
    states: int = 0
    pruned: int = 0
    truncated_paths: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        """True when every interleaving ran to quiescence in bound."""
        return self.truncated_paths == 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "exhausted" if self.exhausted else "TRUNCATED"
        verdict = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (f"{self.paths} path(s), {self.states} state(s), "
                f"{self.pruned} pruned, {status}, {verdict}")


class Explorer:
    """DFS over a model's choice tree by prefix re-execution.

    ``model_factory`` must build a *deterministic* model: replaying the
    same choice indices always reproduces the same state, so a path
    prefix identifies a state and violations come with a replayable
    trace.
    """

    def __init__(self, model_factory: Callable[[], object],
                 max_depth: int = 60,
                 max_violations: int = 10):
        self.model_factory = model_factory
        self.max_depth = max_depth
        self.max_violations = max_violations

    def run(self) -> ExplorationResult:
        result = ExplorationResult()
        self._visited = set()
        self._dfs((), result)
        return result

    def _replay(self, prefix: Tuple[int, ...]):
        model = self.model_factory()
        labels = []
        for choice in prefix:
            labels.append(model.choices()[choice])
            model.apply(choice)
        return model, tuple(labels)

    def _dfs(self, prefix: Tuple[int, ...],
             result: ExplorationResult) -> None:
        if len(result.violations) >= self.max_violations:
            return
        model, labels = self._replay(prefix)
        result.states += 1
        bad = model.check()
        if bad:
            result.paths += 1
            result.violations += [Violation(name, detail, labels)
                                  for name, detail in bad]
            return  # do not explore beyond a broken state
        fingerprint = model.fingerprint()
        if fingerprint in self._visited:
            result.pruned += 1
            return
        self._visited.add(fingerprint)
        choices = model.choices()
        if not choices:
            result.paths += 1
            bad = model.check_terminal()
            result.violations += [Violation(name, detail, labels)
                                  for name, detail in bad]
            return
        if len(prefix) >= self.max_depth:
            result.paths += 1
            result.truncated_paths += 1
            return
        for index in range(len(choices)):
            self._dfs(prefix + (index,), result)


# -- TCP scenarios ----------------------------------------------------------

class _ChoiceNetwork(Network):
    """A Network whose transmissions park in per-flow FIFO queues.

    The explorer, not the latency model, decides delivery order; within
    one flow FIFO order is preserved (the simulated LAN never reorders
    a single flow — cross-flow order is the nondeterminism the real
    testbed exhibits)."""

    def __init__(self, loop: EventLoop):
        super().__init__(loop)
        self.pending: "OrderedDict[Tuple, Deque]" = OrderedDict()

    def transmit(self, packet, sender) -> None:
        receiver = self._hosts_by_address.get(packet.dst)
        if receiver is None:
            self.dropped_no_route += 1
            return
        segment = packet.segment
        key = (packet.src, segment.sport, packet.dst, segment.dport)
        self.pending.setdefault(key, deque()).append((receiver, packet))

    def deliver(self, key) -> None:
        queue = self.pending[key]
        receiver, packet = queue.popleft()
        if not queue:
            del self.pending[key]
        receiver.receive_packet(packet)

    def flow_keys(self) -> List[Tuple]:
        return list(self.pending)


# Legal edges of the TCP state diagram as implemented (no CLOSING state:
# simultaneous close jumps FIN_WAIT_1 -> TIME_WAIT directly).  RST and
# abort can take any live state to CLOSED.
_S = TcpState
LEGAL_TRANSITIONS = {
    _S.SYN_SENT: {_S.ESTABLISHED, _S.CLOSED},
    _S.SYN_RECEIVED: {_S.ESTABLISHED, _S.FIN_WAIT_1, _S.CLOSED},
    _S.ESTABLISHED: {_S.FIN_WAIT_1, _S.CLOSE_WAIT, _S.CLOSED},
    _S.FIN_WAIT_1: {_S.FIN_WAIT_2, _S.TIME_WAIT, _S.CLOSED},
    _S.FIN_WAIT_2: {_S.TIME_WAIT, _S.CLOSED},
    _S.CLOSE_WAIT: {_S.LAST_ACK, _S.CLOSED},
    _S.LAST_ACK: {_S.CLOSED},
    _S.TIME_WAIT: {_S.CLOSED},
    _S.CLOSED: set(),
    _S.LISTEN: set(),
}

_STACK_COUNTERS = ("total_accepted", "total_connected", "resets_sent",
                   "syn_drops", "syn_refused", "backlog_refusals",
                   "half_open_reaped", "retransmitted_segments")


class TcpScenarioModel:
    """One small TCP scenario under explorer control.

    ``scenario`` is one of:

    * ``"two-close"`` — two established client connections; both client
      apps close, server apps close once they see CLOSE_WAIT;
    * ``"simultaneous-close"`` — one established connection; both ends'
      apps may close at any point (FIN crossing FIN reaches the
      FIN_WAIT_1 -> TIME_WAIT shortcut);
    * ``"refuse-when-full"`` — server connection table capped at 1 with
      ``refuse_when_full``: of two racing SYNs, the loser must be
      refused with RST and fail fast.
    """

    def __init__(self, scenario: str):
        self.scenario = scenario
        self.loop = EventLoop()
        self.network = _ChoiceNetwork(self.loop)
        self.client_host = self.network.add_host("client", "10.0.0.1")
        self.server_host = self.network.add_host("server", "10.0.0.2")
        if scenario == "refuse-when-full":
            self.server_stack = TcpStack(self.server_host,
                                         max_connections=1,
                                         refuse_when_full=True)
        else:
            self.server_stack = TcpStack(self.server_host)
        self.client_stack = TcpStack(self.client_host)
        self.server_conns: List = []
        self.server_stack.listen(
            "10.0.0.2", 53, lambda conn: self.server_conns.append(conn),
            TcpOptions(nagle=False))
        count = 2 if scenario in ("two-close", "refuse-when-full") else 1
        self.client_conns = [
            self.client_stack.connect("10.0.0.1", "10.0.0.2", 53,
                                      TcpOptions(nagle=False))
            for _ in range(count)]
        self._closed_by_app = set()
        self._bad: List[Tuple[str, str]] = []
        if scenario != "refuse-when-full":
            # Deterministically establish every connection first; the
            # nondeterminism under test is the close race, not the
            # (already covered) handshake.
            self._settle()
            assert all(c.state == TcpState.ESTABLISHED
                       for c in self.client_conns)
        self._states = {}
        self._snapshot_states()

    # -- plumbing --------------------------------------------------------

    def _settle(self) -> None:
        while self.network.pending or self.loop.pending_events():
            while self.network.pending:
                self.network.deliver(self.network.flow_keys()[0])
            if self.loop.pending_events():
                self.loop.run(max_events=1)

    def _all_conns(self) -> List:
        return self.client_conns + self.server_conns

    def _snapshot_states(self) -> None:
        for conn in self._all_conns():
            self._states[id(conn)] = conn.state

    def _note_transitions(self) -> None:
        """Compare every connection against its pre-step state.

        Called after each :meth:`apply` so one explorer step maps to
        one observed transition per connection (a single segment may
        legally advance a state twice, e.g. FIN+ACK taking FIN_WAIT_1
        straight to TIME_WAIT — the legality table models that edge)."""
        for conn in self._all_conns():
            old = self._states.get(id(conn), conn.state)
            new = conn.state
            if new != old and new not in LEGAL_TRANSITIONS[old]:
                self._bad.append(("illegal-transition",
                                  f"{conn.key}: {old.value} -> "
                                  f"{new.value}"))
        self._snapshot_states()

    # -- the explorer interface ------------------------------------------

    def choices(self) -> List[str]:
        out = [f"deliver {src}:{sport}->{dst}:{dport}"
               for src, sport, dst, dport in self.network.flow_keys()]
        if self.scenario != "refuse-when-full":
            # In the SYN-race scenario nobody closes: the two SYNs must
            # contend for the single table slot, not inherit a slot a
            # finished connection vacated.
            for index, conn in enumerate(self.client_conns):
                if (id(conn) not in self._closed_by_app
                        and conn.state in (TcpState.ESTABLISHED,
                                           TcpState.CLOSE_WAIT)):
                    out.append(f"app-close client[{index}]")
            for index, conn in enumerate(self.server_conns):
                if id(conn) in self._closed_by_app:
                    continue
                if conn.state == TcpState.CLOSE_WAIT or (
                        self.scenario == "simultaneous-close"
                        and conn.state == TcpState.ESTABLISHED):
                    out.append(f"app-close server[{index}]")
        if not out and self.loop.pending_events():
            # The LAN regime: timers (delayed ACK, TIME_WAIT, RTO) only
            # outlast in-flight packets, never race them.
            out.append("timer")
        return out

    def apply(self, index: int) -> None:
        label = self.choices()[index]
        if label == "timer":
            self.loop.run(max_events=1)
        elif label.startswith("deliver "):
            for key in self.network.flow_keys():
                src, sport, dst, dport = key
                if label == f"deliver {src}:{sport}->{dst}:{dport}":
                    self.network.deliver(key)
                    break
        else:
            conns = (self.client_conns if "client[" in label
                     else self.server_conns)
            conn = conns[int(label[label.index("[") + 1:label.index("]")])]
            self._closed_by_app.add(id(conn))
            conn.close()
        self._note_transitions()

    def check(self) -> List[Tuple[str, str]]:
        bad: List[Tuple[str, str]] = list(self._bad)
        for stack in (self.client_stack, self.server_stack):
            for name in _STACK_COUNTERS:
                if getattr(stack, name) < 0:
                    bad.append(("negative-counter",
                                f"{stack.host.name}.{name} = "
                                f"{getattr(stack, name)}"))
            if (stack.max_connections is not None
                    and len(stack._connections) > stack.max_connections):
                bad.append(("table-overflow",
                            f"{stack.host.name}: "
                            f"{len(stack._connections)} conns "
                            f"> cap {stack.max_connections}"))
            for conn in self._all_conns():
                if (conn.stack is stack
                        and conn.key not in stack._connections
                        and conn.state != TcpState.CLOSED):
                    bad.append(("left-table-alive",
                                f"{conn.key} out of table in "
                                f"{conn.state.value}"))
        return bad

    def check_terminal(self) -> List[Tuple[str, str]]:
        bad: List[Tuple[str, str]] = []
        if self.network.pending:
            bad.append(("unquiescent", "packets still pending"))
        if self.scenario == "refuse-when-full":
            states = sorted(c.state.value for c in self.client_conns)
            if states != ["CLOSED", "ESTABLISHED"]:
                bad.append(("refusal-outcome",
                            f"client states {states}, expected one "
                            f"ESTABLISHED and one refused CLOSED"))
            if self.server_stack.syn_refused != 1:
                bad.append(("refusal-count",
                            f"syn_refused = "
                            f"{self.server_stack.syn_refused}, expected 1"))
            return bad
        for conn in self._all_conns():
            if conn.state != TcpState.CLOSED:
                bad.append(("terminal-not-closed",
                            f"{conn.key} ended in {conn.state.value}"))
        for stack in (self.client_stack, self.server_stack):
            if stack._connections:
                bad.append(("terminal-table-nonempty",
                            f"{stack.host.name} still tracks "
                            f"{len(stack._connections)} connection(s)"))
        return bad

    def fingerprint(self):
        conns = tuple(sorted(
            (conn.key, conn.state.value, id(conn) in self._closed_by_app)
            for conn in self._all_conns()))
        flows = tuple(
            (key, tuple((p.segment.flags, p.segment.seq, p.segment.ack,
                         len(p.segment.data))
                        for _recv, p in queue))
            for key, queue in self.network.pending.items())
        return (conns, flows, self.loop.pending_events() > 0)


# -- overload admission scenarios -------------------------------------------

class AdmissionScenarioModel:
    """The OverloadControl pipeline under explorer-chosen orderings.

    Arrivals (``total`` of them) interleave with service-timer drains;
    with ``rrl`` set, a response burst first puts one qname's key into
    debt so the early-drop path participates.  Counter conservation is
    checked after *every* step.
    """

    def __init__(self, policy: str = "drop-oldest", total: int = 4,
                 limit: int = 2, rrl: bool = False):
        from ..dns import Message, Name, RRType  # local: keep import light

        self.loop = EventLoop()
        self.perf = PerfCounters()
        config = OverloadConfig(
            queue_limit=limit, queue_policy=policy, service_rate=10.0,
            rrl=RrlConfig(responses_per_second=1.0, window=1.0)
            if rrl else None)
        self.control = OverloadControl(config, self.loop, self.perf)
        self.total = total
        self.arrived = 0
        self.executed: List[int] = []
        self.shed: List[int] = []
        self._make_query = lambda i: Message.make_query(
            Name.from_text("q.example.com."), RRType.A, msg_id=i)
        if rrl:
            from ..server.overload import minimal_wire
            query = self._make_query(0)
            for _ in range(4):  # exhaust the 1 q/s bucket: key in debt
                self.control.filter_response(
                    query, "10.9.9.9", "udp", minimal_wire(query))

    def choices(self) -> List[str]:
        out = []
        if self.arrived < self.total:
            out.append(f"arrive[{self.arrived}]")
        if self.loop.pending_events():
            out.append("drain")
        return out

    def apply(self, index: int) -> None:
        label = self.choices()[index]
        if label == "drain":
            self.loop.run(max_events=1)
            return
        seq = self.arrived
        self.arrived += 1
        self.control.admit(self._make_query(seq), "10.9.9.9", "udp",
                           lambda: self.executed.append(seq),
                           lambda: self.shed.append(seq))

    def check(self) -> List[Tuple[str, str]]:
        delta = self.control.conservation_delta()
        if delta:
            return [("conservation",
                     f"delta {delta:+d} after {self.arrived} arrivals")]
        queue = self.control.queue
        if queue is not None and queue.limit is not None \
                and queue.depth() > queue.limit:
            return [("queue-overflow",
                     f"depth {queue.depth()} > limit {queue.limit}")]
        return []

    def check_terminal(self) -> List[Tuple[str, str]]:
        bad = self.check()
        if self.arrived != self.total:
            bad.append(("arrivals-incomplete",
                        f"{self.arrived}/{self.total}"))
        outcomes = (len(self.executed) + len(self.shed)
                    + self.perf.count("overload.dropped_oldest")
                    + self.perf.count("overload.dropped_newest")
                    + self.perf.count("rrl.early_drops"))
        if outcomes != self.total:
            bad.append(("outcomes-incomplete",
                        f"{outcomes} callbacks/drops for "
                        f"{self.total} arrivals"))
        return bad

    def fingerprint(self):
        queue = self.control.queue
        return (self.arrived, tuple(self.executed), tuple(self.shed),
                queue.depth() if queue is not None else -1,
                self.loop.pending_events(),
                tuple(sorted(self.perf.to_state()["counts"].items())))


# -- crash-recovery scenarios -----------------------------------------------

class RecoveryScenarioModel:
    """Worker crash × checkpoint-frame reorder, duplication and loss
    against the *production* recovery code
    (:class:`repro.replay.recovery.CheckpointStore` /
    :func:`repro.replay.recovery.merge_recovered`).

    The model abstracts the process tree to its accounting skeleton:
    records are routed round-robin to workers, workers execute them and
    emit sequence-numbered *delta* checkpoint frames (the entries with
    news since the previous frame: first sends, answers that landed
    after shipping, re-reports) and one cumulative final frame; the
    controller folds delivered frames into a real ``CheckpointStore``.
    The explorer owns every source of nondeterminism the real control
    plane has: frame delivery order (reorder), bounded duplicate
    delivery, bounded frame loss, and bounded worker crashes (a crash
    wipes the worker's un-checkpointed state; the controller redelivers
    everything the store cannot account for to the respawned
    incarnation — and stale frames from the dead incarnation may still
    arrive afterwards).

    A lost delta leaves a hole no later delta fills by itself.  While
    it has redelivery rounds left the controller withholds END — no
    worker may send its final frame — and may instead redeliver the
    records the store is missing; a live worker that already executed
    one drops it and puts the entry back into its next frame.  With the
    rounds spent END goes out regardless and the cumulative finals
    close the hole.

    ``scenario`` is one of:

    * ``"crash-reorder"`` — 2 workers, 4 records, one crash allowed,
      frames deliverable in any order (the worker-crash × frame-reorder
      grid);
    * ``"dup-reorder"`` — no crashes, 2 duplicate deliveries allowed,
      record 1 answered only after its first frame left: pure
      idempotence and commutativity under at-least-once transport, a
      stale unanswered copy arriving after the answered one;
    * ``"double-crash"`` — both workers may crash once each (3
      records);
    * ``"drop-heal"`` — no crashes, 3 records, 2 checkpoint frames may
      be lost, one redelivery round: healing by re-report, and by the
      final frames when the re-report is lost too.

    Invariants: at every state ``merge_recovered`` over the store's
    snapshots holds no duplicate and no never-routed index, and no
    index the store reported answered ever reads unanswered again; at
    quiescence it accounts for every record exactly once
    (:func:`repro.replay.recovery.conservation_violations`), answered.
    """

    def __init__(self, scenario: str = "crash-reorder",
                 workers: int = 2, total: int = 4):
        from ..replay.recovery import CheckpointStore

        self.scenario = scenario
        self.workers = workers
        self.total = total
        self.crash_budget = [0] * workers
        self.crashes_max = 0
        self.dup_budget = 0
        self.drop_budget = 0
        self.redeliver_budget = 0
        self.late: Tuple[int, ...] = ()   # records answered after shipping
        if scenario == "crash-reorder":
            self.crash_budget = [1] * workers
            self.crashes_max = 1
        elif scenario == "dup-reorder":
            self.dup_budget = 2
            self.late = (1,)
        elif scenario == "double-crash":
            self.crash_budget = [1] * workers
            self.crashes_max = workers
            self.total = min(total, 3)
        elif scenario == "drop-heal":
            self.drop_budget = 2
            self.redeliver_budget = 1
            self.total = min(total, 3)
        else:
            raise ValueError(f"unknown recovery scenario {scenario!r}")
        self.store = CheckpointStore()
        self.routed = 0
        self.crashes = 0
        self.dups = 0
        self.drops = 0
        # Per-worker state, current incarnation only (a crash resets it).
        self.incarnation = [0] * workers
        self.assigned: List[List[int]] = [[] for _ in range(workers)]
        self.executed: List[List[int]] = [[] for _ in range(workers)]
        self.answered: List[set] = [set() for _ in range(workers)]
        self.news: List[List[int]] = [[] for _ in range(workers)]
        self.seq = [0] * workers
        self.finalized = [False] * workers
        # In-flight frames: (worker, payload) — delivery order is the
        # explorer's to choose, and dead incarnations' frames linger.
        self.pending: List[Tuple[int, dict]] = []
        self._answered_seen: set = set()
        self._regressions: List[Tuple[str, str]] = []

    # -- plumbing --------------------------------------------------------

    def _owner(self, index: int) -> int:
        return index % self.workers

    def _frame(self, worker: int, indices: List[int],
               final: bool = False) -> dict:
        self.seq[worker] += 1
        sent = [{"index": index, "source": f"c{self._owner(index)}",
                 "trace_time": float(index), "scheduled_at": float(index),
                 "sent_at": float(index), "protocol": "udp",
                 "qname": "q.example.com.",
                 "answered_at": (float(index) + 1
                                 if index in self.answered[worker]
                                 else None),
                 "querier_id": worker}
                for index in indices]
        return {"worker": worker,
                "incarnation": self.incarnation[worker],
                "seq": self.seq[worker], "final": final,
                "result": {"name": f"querier-{worker}", "sent": sent}}

    def _covered(self) -> bool:
        return self.store.covers(self.total)

    # -- the explorer interface ------------------------------------------

    def choices(self) -> List[str]:
        out: List[str] = []
        if self.routed < self.total:
            out.append(f"route[{self.routed}]")
        end_sent = (self.routed == self.total
                    and (self.redeliver_budget == 0 or self._covered()))
        for worker in range(self.workers):
            if self.finalized[worker]:
                continue
            if self.assigned[worker]:
                out.append(f"exec[w{worker}]")
            if self.news[worker]:
                out.append(f"ckpt[w{worker}]")
            if end_sent and not self.assigned[worker]:
                out.append(f"final[w{worker}]")
            if (self.crash_budget[worker] > 0
                    and self.crashes < self.crashes_max
                    and (self.assigned[worker] or self.executed[worker])):
                out.append(f"crash[w{worker}]")
        if (self.routed == self.total and self.redeliver_budget > 0
                and not self._covered()):
            out.append("redeliver[]")
        for slot, (_worker, payload) in enumerate(self.pending):
            out.append(f"deliver[{slot}]")
            if self.dups < self.dup_budget:
                out.append(f"dup[{slot}]")
            if self.drops < self.drop_budget and not payload["final"]:
                out.append(f"drop[{slot}]")
        return out

    def apply(self, index: int) -> None:
        label = self.choices()[index]
        action, _, arg = label.partition("[")
        arg = arg.rstrip("]")
        if action == "route":
            record = self.routed
            self.routed += 1
            self.assigned[self._owner(record)].append(record)
        elif action == "exec":
            worker = int(arg[1:])
            record = self.assigned[worker].pop(0)
            self.executed[worker].append(record)
            self.news[worker].append(record)
            if record not in self.late:
                self.answered[worker].add(record)
        elif action == "ckpt":
            worker = int(arg[1:])
            shipped = self.news[worker]
            self.pending.append((worker, self._frame(worker, shipped)))
            # Answers to entries that left unanswered land now: their
            # fate changed after shipping, so they are news again.
            self.news[worker] = [record for record in shipped
                                 if record not in self.answered[worker]]
            self.answered[worker].update(shipped)
        elif action == "final":
            worker = int(arg[1:])
            self.answered[worker].update(self.executed[worker])
            self.pending.append((worker, self._frame(
                worker, self.executed[worker], final=True)))
            self.finalized[worker] = True
        elif action == "crash":
            worker = int(arg[1:])
            self.crash_budget[worker] -= 1
            self.crashes += 1
            # Respawn: fresh incarnation, redeliver what the store
            # cannot account for — never reported, or reported
            # unanswered by an incarnation that is now dead.  Frames of
            # the dead incarnation stay in flight — late arrivals must
            # stay harmless.
            self.incarnation[worker] += 1
            accounted = self.store.sent_indices()
            stranded = self.store.stale_unanswered(
                ((1, live), self.incarnation[live])
                for live in range(self.workers))
            lost = [record for record in range(self.routed)
                    if self._owner(record) == worker
                    and (record not in accounted or record in stranded)]
            self.assigned[worker] = lost
            self.executed[worker] = []
            self.answered[worker] = set()
            self.news[worker] = []
            self.seq[worker] = 0
        elif action == "redeliver":
            self.redeliver_budget -= 1
            for record in self.store.missing(self.total):
                worker = self._owner(record)
                if self.finalized[worker] \
                        or record in self.assigned[worker]:
                    continue
                if record not in self.executed[worker]:
                    self.assigned[worker].append(record)
                elif record not in self.news[worker]:
                    # Already sent by the live incarnation: drop the
                    # copy, report the entry again.
                    self.news[worker].append(record)
        elif action == "drop":
            self.drops += 1
            self.pending.pop(int(arg))
        else:   # deliver | dup
            if action == "dup":
                self.dups += 1
                worker, payload = self.pending[int(arg)]
            else:
                worker, payload = self.pending.pop(int(arg))
            self.store.offer_frame((1, worker), payload)
            answered = self.store.answered_indices()
            if not self._answered_seen <= answered:
                self._regressions.append(
                    ("answer-regressed",
                     f"{sorted(self._answered_seen - answered)} read "
                     f"unanswered again after {label}"))
            self._answered_seen |= answered

    def check(self) -> List[Tuple[str, str]]:
        from ..replay.recovery import merge_recovered

        bad = list(self._regressions)
        # The merge must never invent records or duplicate an index, at
        # *every* intermediate state, not just at quiescence.
        merged = merge_recovered(self.store.snapshots())
        indices = [query.index for query in merged.sent]
        if len(indices) != len(set(indices)):
            bad.append(("merge-duplicates",
                        f"duplicate indices in {sorted(indices)}"))
        ghost = set(indices) - set(range(self.routed))
        if ghost:
            bad.append(("merge-ghosts",
                        f"indices never routed: {sorted(ghost)}"))
        if self.store.frames_stale > self.store.frames_offered:
            bad.append(("store-accounting",
                        f"{self.store.frames_stale} stale of "
                        f"{self.store.frames_offered} offered"))
        return bad

    def check_terminal(self) -> List[Tuple[str, str]]:
        from ..replay.recovery import conservation_violations, \
            merge_recovered

        merged = merge_recovered(self.store.snapshots())
        bad = [("conservation", problem)
               for problem in conservation_violations(merged, self.total)]
        unanswered = [query.index for query in merged.unanswered_queries()]
        if unanswered:
            bad.append(("answers-lost",
                        f"{unanswered} merged unanswered although every "
                        f"final frame reported them answered"))
        return bad

    def fingerprint(self):
        frames = tuple(sorted(
            (worker, payload["incarnation"], payload["seq"],
             payload["final"],
             tuple((q["index"], q["answered_at"] is not None)
                   for q in payload["result"]["sent"]))
            for worker, payload in self.pending))
        return (self.routed, self.crashes, self.dups, self.drops,
                self.redeliver_budget, tuple(self.incarnation),
                tuple(tuple(a) for a in self.assigned),
                tuple(tuple(e) for e in self.executed),
                tuple(tuple(sorted(a)) for a in self.answered),
                tuple(tuple(n) for n in self.news),
                tuple(self.finalized), frames,
                tuple(sorted(self._answered_seen)),
                self.store.fingerprint())


# -- canned sweeps ----------------------------------------------------------

TCP_SCENARIOS = ("two-close", "simultaneous-close", "refuse-when-full")
ADMISSION_POLICIES = ("drop-oldest", "drop-newest", "servfail-shed")
RECOVERY_SCENARIOS = ("crash-reorder", "dup-reorder", "double-crash",
                      "drop-heal")


def explore_tcp(scenario: str, max_depth: int = 60) -> ExplorationResult:
    return Explorer(lambda: TcpScenarioModel(scenario),
                    max_depth=max_depth).run()


def explore_admission(policy: str, total: int = 4, limit: int = 2,
                      rrl: bool = False,
                      max_depth: int = 40) -> ExplorationResult:
    return Explorer(
        lambda: AdmissionScenarioModel(policy, total=total, limit=limit,
                                       rrl=rrl),
        max_depth=max_depth).run()


def explore_recovery(scenario: str, workers: int = 2, total: int = 4,
                     max_depth: int = 80) -> ExplorationResult:
    return Explorer(
        lambda: RecoveryScenarioModel(scenario, workers=workers,
                                      total=total),
        max_depth=max_depth).run()


def explore_all(max_depth: int = 60) -> Dict[str, ExplorationResult]:
    """The CI sweep: every canned scenario, keyed by name."""
    out: Dict[str, ExplorationResult] = {}
    for scenario in TCP_SCENARIOS:
        out[f"tcp/{scenario}"] = explore_tcp(scenario, max_depth=max_depth)
    for policy in ADMISSION_POLICIES:
        out[f"admission/{policy}"] = explore_admission(
            policy, max_depth=max_depth)
    out["admission/drop-oldest+rrl"] = explore_admission(
        "drop-oldest", rrl=True, max_depth=max_depth)
    for scenario in RECOVERY_SCENARIOS:
        out[f"recovery/{scenario}"] = explore_recovery(
            scenario, max_depth=max(max_depth, 80))
    return out
