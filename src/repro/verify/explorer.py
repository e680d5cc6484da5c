"""Bounded state-space exploration of the simulator's state machines.

Re-execution depth-first search over nondeterministic event orderings:
a *model* exposes the enabled choices at its current state (packet
deliveries per flow, timer firings, application actions), the explorer
enumerates every ordering up to a depth bound, rebuilding the model
from scratch for each path prefix so no snapshot/restore support is
needed from the code under test.  Visited states are fingerprinted and
pruned — two orderings that converge on the same state share their
futures.

Three model families ship here, matching the subsystems whose bugs are
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

* :class:`RecoveryScenarioModel` — the controller's own
  :class:`~repro.replay.recovery.RecoveryLedger` and store, and one
  :class:`~repro.replay.recovery.QuerierLedger` per querier
  incarnation, under worker crash × frame reorder, duplication and
  loss × deadline schedules, with a respawn budget or (``no-respawn``)
  none.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..netsim import EventLoop, Network, TcpOptions, TcpStack, TcpState
from ..replay.recovery import (REDELIVERY_GRACE, REDELIVERY_ROUNDS,
                               CheckpointStore, QuerierLedger,
                               RecoveryLedger, conservation_violations,
                               merge_recovered)
from ..replay.result import ReplayResult
from ..server.overload import OverloadConfig, OverloadControl, RrlConfig
from ..telemetry.metrics import MetricsRegistry

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
        self.perf = MetricsRegistry()
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

# Scenario -> its record cap, due instants, deadline, respawns (on or
# off) and the budgets of what the explorer may do to the tree.
# ``late`` records are answered only after their first frame left.
_RECOVERY_SCENARIOS = {
    # one crash (a late answer left stranded), frames in any order
    "crash-reorder": dict(crashes=1, crashes_per_worker=1, late=(1,)),
    # at-least-once transport: a stale copy after the answered one
    "dup-reorder": dict(dups=2, late=(1,)),
    "double-crash": dict(cap=3, crashes=2, crashes_per_worker=1),
    # healing by redelivery + re-report, and by the final frames
    "drop-heal": dict(cap=3, drops=2),
    # one slot crashes twice: the second loss outlives the deadline
    "deadline-crash": dict(cap=3, crashes=2, crashes_per_worker=2,
                           deadline=1.0),
    # records due 0, 1 and 2 s: quiet spells longer than the grace
    "not-yet-due": dict(cap=3, drops=1, due=lambda index, total: index),
    # the deadline between the records due at once and at 1 s, which
    # the workers shed, x a crash, also while the last frames fly
    "shed-trailer": dict(crashes=1, crashes_per_worker=1, deadline=0.5,
                         due=lambda index, total: 2 * index >= total),
    # a run without a RecoveryConfig: a crash is lost for good, so the
    # survivor takes the redelivery, or, both gone, the drain ends
    "no-respawn": dict(respawns=False, crashes=2, crashes_per_worker=1),
}


class _Querier:
    """One querier incarnation: the production :class:`QuerierLedger`
    and a list-mode result, its send queue and what the deadline shed."""

    def __init__(self, worker: int, number: int, now: float,
                 ledger: Callable[..., QuerierLedger]):
        self.number, self.seq = number, 0
        self.result = ReplayResult(f"querier-{worker}")
        self.ledger = ledger(self.result.sent, now)
        self.queue: List[int] = []
        self.shed: List[int] = []
        # Once END is in and the queue is dry: the ledger's settle
        # instant, None for finish.
        self.until: Optional[float] = None


class RecoveryScenarioModel:
    """The recovering tree under explorer-chosen schedules, on the
    production code at both ends: every decision is a
    :class:`RecoveryLedger`'s or a :class:`QuerierLedger`'s, frames are
    :meth:`ReplayResult.to_dict` of a delta, a real
    :class:`CheckpointStore` folds them and :func:`merge_recovered`
    merges them.  The model keeps only what the tree leaves to chance:
    frame order, duplication and loss, worker crashes, when the
    checkpoint cadence fires, which records are answered ``late`` (once
    their first delta left), and a virtual clock.  END reaches every
    querier at once.  The clock moves only when no frame is in flight
    and no querier acts now — the premise of ``REDELIVERY_GRACE`` — to
    the next instant something is due.

    Invariants: the merge never holds a duplicate or a never-routed
    index, no answer regresses, nothing is redelivered before its due
    instant + the grace or past the deadline, the drain never waits with
    every worker lost for good, and time never passes for a querier with
    a dry queue that holds news (``idle-news``) or has read END with
    nothing in flight (``idle-settle``).  At quiescence ``len(merged) +
    deadline_shed`` never exceeds the trace; when the drain ended
    ``"complete"`` every record is accounted for exactly once and, but
    for a crash after END, answered; else the shortfall is at most what
    crashed workers held, and the rounds ran out only on more losses
    than there are rounds.
    """

    def __init__(self, scenario: str = "crash-reorder", workers: int = 2,
                 total: int = 4,
                 ledger: Callable[..., RecoveryLedger] = RecoveryLedger,
                 querier: Callable[..., QuerierLedger] = QuerierLedger, *,
                 crashes: Optional[int] = None,
                 crashes_per_worker: Optional[int] = None,
                 dups: Optional[int] = None, drops: Optional[int] = None,
                 late: Optional[Tuple[int, ...]] = None):
        """The budgets given (not None) override the scenario's."""
        if scenario not in _RECOVERY_SCENARIOS:
            raise ValueError(f"unknown recovery scenario {scenario!r}")
        spec = dict(cap=total, due=lambda index, total: 0, deadline=None,
                    respawns=True, crashes=0, crashes_per_worker=0, dups=0,
                    drops=0, late=())
        spec.update(_RECOVERY_SCENARIOS[scenario])
        given = dict(crashes=crashes, crashes_per_worker=crashes_per_worker,
                     dups=dups, drops=drops, late=late)
        spec.update((name, value) for name, value in given.items()
                    if value is not None)
        self.workers = workers
        self.total = min(total, spec["cap"])
        self.due = [float(spec["due"](index, self.total))
                    for index in range(self.total)]
        self.deadline: Optional[float] = spec["deadline"]
        self.crashes_left = spec["crashes"]
        self.crash_budget = [spec["crashes_per_worker"]] * workers
        self.dups_left, self.drops_left = spec["dups"], spec["drops"]
        self.late = spec["late"]
        self.store = CheckpointStore()
        self.ledger = ledger(self.store, respawns=spec["respawns"])
        self.querier = querier
        self.now = 0.0
        self.wait_until: Optional[float] = None  # the ledger's last wait
        self.stopped = False                     # routing is over
        self.queriers = [_Querier(worker, 0, self.now, querier)
                         for worker in range(workers)]
        self.dead = [False] * workers       # lost for good, or after END
        self.finalized = [False] * workers
        # In-flight frames: (worker, payload, digest) — delivery order is
        # the explorer's to choose, and dead incarnations' frames linger.
        self.pending: List[Tuple[int, dict, tuple]] = []
        self.held_by_crashed: set = set()
        self.losses = 0     # crashes before END and dropped frames
        self._answered_seen: set = set()
        self._bad: List[Tuple[str, str]] = []

    # -- plumbing --------------------------------------------------------

    def _owner(self, index: int) -> Optional[int]:
        """Round-robin by index; a slot lost for good fails over."""
        for step in range(self.workers):
            worker = (index + step) % self.workers
            if not self.dead[worker]:
                return worker
        return None

    def _emit(self, worker: int, rows: Optional[List[int]] = None) -> None:
        """A frame of result ``rows`` goes in flight (None: the final),
        with its digest: (index, answered?) of each row."""
        querier = self.queriers[worker]
        querier.seq += 1
        sent = querier.result.sent
        self.pending.append((worker, {
            "worker": worker, "incarnation": querier.number,
            "seq": querier.seq, "final": rows is None,
            "result": querier.result.to_dict(rows)}, tuple(
                (entry.index, entry.answered_at is not None)
                for entry in (sent if rows is None
                              else map(sent.__getitem__, rows)))))

    def _working(self) -> List[int]:
        return [worker for worker in range(self.workers)
                if not (self.dead[worker] or self.finalized[worker])]

    def _due_now(self, worker: int) -> Optional[int]:
        return next((index for index in self.queriers[worker].queue
                     if self.due[index] <= self.now), None)

    def _finishing(self, worker: int) -> bool:
        """Its final frame may leave: END is in, the queue dry, no delta
        due and the ledger done settling."""
        querier = self.queriers[worker]
        return (self.ledger.ended is not None and not querier.queue
                and querier.until is None
                and not querier.ledger.due(self.now, False))

    def _next_instant(self) -> Optional[float]:
        """When the clock may move to, if the tree is idle."""
        working = self._working()
        if self.pending or any(
                self._due_now(worker) is not None or self._finishing(worker)
                or self.queriers[worker].ledger.due(
                    self.now, bool(self.queriers[worker].queue))
                for worker in working):
            return None
        ledger = self.ledger
        instants = ([self.deadline] if self.deadline is not None
                    and not ledger.expired and ledger.ended is None else [])
        if self.stopped:    # while routing only the deadline interrupts
            for querier in map(self.queriers.__getitem__, working):
                instants += [self.due[index] for index in querier.queue]
                instants += [querier.ledger.wake(), querier.until]
            instants.append(self.wait_until)
        later = [instant for instant in instants
                 if instant is not None and instant > self.now]
        return min(later) if later else None

    def _stop_routing(self) -> None:
        self.stopped = True
        self.ledger.stop_routing(self.total)

    def _tick(self) -> None:
        """The drain carries out what the controller's ledger says until
        it waits or has sent END; a querier with END in and its queue
        dry asks its own how long to settle."""
        self.wait_until = None
        while self.stopped and self.ledger.ended is None:
            live = [((1, worker), self.queriers[worker].number)
                    for worker in range(self.workers)
                    if not self.dead[worker]]
            action, arg = self.ledger.tick(self.now, live, bool(live))
            if action == "wait":
                if not live:
                    self._bad.append(("drain-stalled", f"waiting at "
                                      f"{self.now} with every worker lost"))
                self.wait_until = arg
                break
            if action == "redeliver":
                self._redeliver(arg)
        for worker in self._working():
            querier = self.queriers[worker]
            querier.until = None
            if self.ledger.ended is not None and not querier.queue:
                querier.until = querier.ledger.settle(
                    self.now, bool(querier.result.unanswered()))

    def _redeliver(self, indices: List[int]) -> None:
        for index in indices:
            if self.now < self.due[index] + REDELIVERY_GRACE:
                self._bad.append(("early-redelivery", f"record {index} "
                                  f"due {self.due[index]} at {self.now}"))
            if self.ledger.expired:
                self._bad.append(("redelivery-after-deadline",
                                  f"record {index} at {self.now}"))
            worker = self._owner(index)
            if worker is not None and not self.finalized[worker] \
                    and self.queriers[worker].ledger.arrived(index):
                self.queriers[worker].queue.append(index)

    # -- the explorer interface ------------------------------------------

    def choices(self) -> List[str]:
        out: List[str] = []
        if not self.stopped:
            out.append(f"route[{self.ledger.routed}]")
        for worker in self._working():
            querier = self.queriers[worker]
            if self._due_now(worker) is not None:
                out.append(f"exec[w{worker}]")
            if querier.ledger.news:
                out.append(f"ckpt[w{worker}]")
            if self._finishing(worker):
                out.append(f"final[w{worker}]")
            if (self.crash_budget[worker] > 0 and self.crashes_left > 0
                    and (querier.queue or querier.result.sent)):
                out.append(f"crash[w{worker}]")
        for slot, (_worker, payload, _fates) in enumerate(self.pending):
            out.append(f"deliver[{slot}]")
            if self.dups_left:
                out.append(f"dup[{slot}]")
            if self.drops_left and not payload["final"]:
                out.append(f"drop[{slot}]")
        instant = self._next_instant()
        if instant is not None:
            out.append(f"wake[{instant:g}]")
        return out

    def apply(self, index: int) -> None:
        label = self.choices()[index]
        action, _, arg = label.partition("[")
        arg = arg.rstrip("]")
        worker = int(arg[1:]) if arg.startswith("w") else None
        querier = self.queriers[worker] if worker is not None else None
        if action == "route":
            record = self.ledger.routed
            self.ledger.route([self.due[record]])
            owner = self._owner(record)
            if owner is None:   # every worker is lost: down a dead link
                self.held_by_crashed.add(record)
            elif self.queriers[owner].ledger.arrived(record):
                self.queriers[owner].queue.append(record)
            if self.ledger.routed == self.total:
                self._stop_routing()
        elif action == "exec":
            record = self._due_now(worker)
            querier.queue.remove(record)
            row = querier.ledger.sent(
                record, f"c{record % self.workers}", self.due[record],
                self.due[record], self.now, "udp", "q.example.com.", worker)
            if record not in self.late:
                querier.ledger.answered(row, self.now)
        elif action == "ckpt":
            delta = querier.ledger.delta(self.now)
            self._emit(worker, delta)
            # Answers to rows that left unanswered land now: their
            # fate changed after shipping, so they are news again.
            for row in delta:
                if querier.result.sent[row].answered_at is None:
                    querier.ledger.answered(row, self.now)
        elif action == "final":
            self._emit(worker)
            self.finalized[worker] = True
        elif action == "crash":
            self._crash(worker)
        elif action == "wake":
            for worker in self._working():
                querier = self.queriers[worker]
                if not querier.queue and querier.ledger.news:
                    self._bad.append(("idle-news", f"w{worker} at {self.now}"))
                if not querier.queue and self.ledger.ended is not None \
                        and not querier.result.unanswered():
                    self._bad.append(("idle-settle", f"w{worker} at "
                                      f"{self.now}"))
            self.now = self._next_instant()
            if self.deadline is not None and self.now >= self.deadline \
                    and not self.ledger.expired:
                self._expire()
        elif action == "drop":
            self.drops_left -= 1
            self.losses += 1
            self.pending.pop(int(arg))
        else:   # deliver | dup
            if action == "dup":
                self.dups_left -= 1
                worker, payload, _fates = self.pending[int(arg)]
            else:
                worker, payload, _fates = self.pending.pop(int(arg))
            self.store.offer_frame((1, worker), payload)
            answered = self.store.answered_indices()
            if not self._answered_seen <= answered:
                self._bad.append(
                    ("answer-regressed",
                     f"{sorted(self._answered_seen - answered)} read "
                     f"unanswered again after {label}"))
            self._answered_seen |= answered
        self._tick()

    def _crash(self, worker: int) -> None:
        self.crash_budget[worker] -= 1
        self.crashes_left -= 1
        querier = self.queriers[worker]
        self.held_by_crashed.update(
            querier.queue, querier.shed,
            (entry.index for entry in querier.result.sent))
        # After END a death is no loss to recover and nobody respawns
        # it; before, it is respawned as a fresh incarnation that knows
        # nothing, or past the budget lost for good.
        if self.ledger.ended is None:
            self.losses += 1
            if self.ledger.died((1, worker)) is not None:
                self.queriers[worker] = _Querier(worker, querier.number + 1,
                                                 self.now, self.querier)
                return
        self.dead[worker] = True

    def _expire(self) -> None:
        """The deadline: the ledger stops routing and redelivery, and
        every worker sheds what it holds."""
        self.ledger.expire()
        if not self.stopped:
            self._stop_routing()
        for worker in self._working():
            querier = self.queriers[worker]
            querier.shed += querier.queue
            querier.result.deadline_shed += len(querier.queue)
            querier.queue = []

    def check(self) -> List[Tuple[str, str]]:
        bad = list(self._bad)
        # The merge must never invent records or duplicate an index, at
        # *every* intermediate state, not just at quiescence.
        merged = merge_recovered(self.store.snapshots())
        indices = merged.sent.columns[0]        # the index column
        if len(indices) != len(set(indices)):
            bad.append(("merge-duplicates",
                        f"duplicate indices in {sorted(indices)}"))
        ghost = set(indices) - set(range(self.ledger.routed))
        if ghost:
            bad.append(("merge-ghosts",
                        f"indices never routed: {sorted(ghost)}"))
        if self.store.frames_stale > self.store.frames_offered:
            bad.append(("store-accounting",
                        f"{self.store.frames_stale} stale of "
                        f"{self.store.frames_offered} offered"))
        return bad

    def check_terminal(self) -> List[Tuple[str, str]]:
        merged = merge_recovered(self.store.snapshots())
        ended = self.ledger.ended
        if ended is None:
            return [("no-end", f"quiescent at {self.now} without END")]
        shed = self.ledger.shed + merged.deadline_shed
        short = self.total - len(merged.sent) - shed
        held = len(self.held_by_crashed
                   - {query.index for query in merged.sent})
        if short < 0:
            return [("conservation", f"{len(merged.sent)} merged + {shed} "
                     f"shed of {self.total} records")]
        if ended == "rounds" and self.losses <= REDELIVERY_ROUNDS:
            return [("rounds-spent", f"{REDELIVERY_ROUNDS} rounds spent on "
                     f"{self.losses} lost frames and crashes")]
        if ended != "complete":
            return [] if short <= held else [
                ("conservation", f"{short} records neither merged nor "
                 f"shed, {held} of them held by a crashed worker "
                 f"(ended: {ended})")]
        bad = [("conservation", problem)
               for problem in conservation_violations(merged, self.total)]
        unanswered = [query.index for query in merged.unanswered_queries()]
        if unanswered and not any(self.dead):
            bad.append(("answers-lost",
                        f"{unanswered} merged unanswered although every "
                        f"querier lived to settle"))
        return bad

    def fingerprint(self):
        frames = tuple(sorted(
            (worker, payload["incarnation"], payload["seq"],
             payload["final"], fates,
             payload["result"]["counters"]["deadline_shed"])
            for worker, payload, fates in self.pending))
        workers = repr((self.dead, self.finalized, self.crash_budget,
                        [(querier.number, querier.queue, querier.shed,
                          querier.ledger.fingerprint())
                         for querier in self.queriers]))
        return (self.now, self.wait_until, self.stopped, self.crashes_left,
                self.dups_left, self.drops_left, self.losses, workers,
                frames, tuple(sorted(self._answered_seen)),
                tuple(sorted(self.held_by_crashed)), tuple(self._bad),
                self.ledger.fingerprint(), self.store.fingerprint())


# -- canned sweeps ----------------------------------------------------------

TCP_SCENARIOS = ("two-close", "simultaneous-close", "refuse-when-full")
ADMISSION_POLICIES = ("drop-oldest", "drop-newest", "servfail-shed")
RECOVERY_SCENARIOS = tuple(_RECOVERY_SCENARIOS)


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
                     max_depth: int = 80,
                     ledger: Callable[..., RecoveryLedger] = RecoveryLedger,
                     querier: Callable[..., QuerierLedger] = QuerierLedger
                     ) -> ExplorationResult:
    """Exhaust one recovery scenario; ``ledger`` and ``querier`` build
    the controller's and the queriers' ledgers (a test may hand in a
    mutant)."""
    return Explorer(
        lambda: RecoveryScenarioModel(scenario, workers=workers,
                                      total=total, ledger=ledger,
                                      querier=querier),
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
