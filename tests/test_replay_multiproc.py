"""Tests for the live replay tree (repro.replay.multiproc)."""

import os
import signal
import threading
import time
from collections import Counter

import pytest

from repro.replay import (DistributedConfig, LiveUdpEchoServer,
                          ProcessTopology, ReplayWatchdog, SupervisionConfig,
                          UdpEchoServerProcess)
from repro.replay.multiproc import _WorkerHandle
from repro.replay.protocol import ROLE_DISTRIBUTOR, ROLE_QUERIER
from repro.replay.result import ReplayResult
from repro.trace import Trace, fixed_interval_trace, table1_synthetic


def process_config(**overrides):
    defaults = dict(distributors=2, queriers_per_distributor=2,
                    start_delay=0.05)
    defaults.update(overrides)
    return DistributedConfig(**defaults)


class TestProcessTopology:
    def test_replays_and_answers(self):
        trace = fixed_interval_trace(0.02, 1.0, client_count=16,
                                     name="mp-basic")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        assert len(result) == len(trace)
        assert result.answered_fraction() > 0.9

    def test_source_affinity_across_processes(self):
        trace = fixed_interval_trace(0.01, 1.0, client_count=12,
                                     name="mp-affinity")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        per_source = {}
        for query in result.sent:
            per_source.setdefault(query.source, set()).add(query.querier_id)
        assert all(len(ids) == 1 for ids in per_source.values())
        assert len({q.querier_id for q in result.sent}) > 1

    def test_merged_indices_unique_and_dense(self):
        trace = fixed_interval_trace(0.02, 1.0, client_count=8,
                                     name="mp-indices")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        indices = sorted(q.index for q in result.sent)
        assert indices == list(range(len(result.sent)))

    def test_cross_process_metrics_merge(self):
        trace = fixed_interval_trace(0.02, 1.0, client_count=8,
                                     name="mp-metrics")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            # The surface exists before the run.
            assert replay.metrics.count("replay.records_sent") == 0
            result = replay.replay(trace)
        state = replay.metrics.to_state()
        assert state["counts"]["replay.records_sent"] == len(result.sent)
        assert state["counts"]["replay.records_routed"] == len(trace)
        # The data plane's own counts merge the same way: 2 distributors
        # wrote at least a block each; a 50 q/s schedule at an echo is
        # never overdue, so the catch-up window never held a send.
        assert 2 <= state["counts"]["replay.record_batches"] <= len(trace)
        assert state["counts"]["replay.catchup_waits"] == 0
        assert state["counts"]["replay.catchup_forgiven"] == 0
        # The wake budget (ISSUE 24): every querier's loop waited at
        # least once; only a shard-file replay paces its distributors.
        assert state["counts"]["replay.querier_wakes"] >= 4
        assert state["counts"]["replay.pace_sleeps"] == 0
        latency = state["histograms"]["query.latency_s"]
        answered = sum(1 for q in result.sent if q.answered_at is not None)
        assert latency["count"] == answered

    def test_timing_discipline_holds(self):
        """ROADMAP 5a: a quantile of real wall-clock send errors, not
        their maximum — one descheduled send on a loaded host moves the
        maximum past any bound and the median not at all."""
        trace = fixed_interval_trace(0.02, 1.0, name="mp-timing")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        assert len(result) == len(trace)
        errors = sorted(abs(error) for error
                        in result.send_time_errors(skip_seconds=0.1))
        assert errors
        assert errors[len(errors) // 2] < 0.010

    def test_lead_in_is_spent_after_the_anchor(self):
        """ISSUE 24: the first record is due ``start_delay`` after
        TIME_SYNC, not the instant it lands, so the head of the stream
        is queued before any send is due (the parent scheduled record 0
        at the querier's receipt of TIME_SYNC, ~0 s after the anchor).
        The errors stay unbiased: the shift is in the anchor pair."""
        trace = fixed_interval_trace(0.005, 1.0, name="mp-lead-in")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                process_config(distributors=1, queriers_per_distributor=1,
                               start_delay=0.2))
            result = replay.replay(trace)
        assert len(result) == len(trace)
        first = min(result.sent, key=lambda query: query.trace_time)
        assert first.scheduled_at - result.start_clock >= 0.2
        errors = sorted(abs(error) for error in result.send_time_errors())
        assert errors[len(errors) // 2] < 0.010

    def test_empty_trace(self):
        replay = ProcessTopology(("127.0.0.1", 1), process_config())
        result = replay.replay(Trace())
        assert len(result) == 0

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                        reason="no CPU affinity on this platform")
    def test_queriers_pin_to_distinct_allowed_cpus(self, tmp_path,
                                                   monkeypatch):
        """Each querier process pins itself to one allowed CPU, its
        neighbour to the next; the controller's own mask is untouched.
        (Fork start: the recording wrapper runs inside the workers.)"""
        allowed = os.sched_getaffinity(0)
        log = tmp_path / "pins"
        real = os.sched_setaffinity

        def recording(pid, cpus):
            with open(log, "a") as handle:
                handle.write(" ".join(map(str, sorted(cpus))) + "\n")
            real(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", recording)
        trace = fixed_interval_trace(0.02, 0.5, client_count=8,
                                     name="mp-pins")
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                process_config(distributors=1, start_method="fork"))
            result = replay.replay(trace)
        assert len(result) == len(trace)
        pins = [line.split() for line in log.read_text().splitlines()]
        assert len(pins) == 2 and all(len(pin) == 1 for pin in pins)
        chosen = {int(pin[0]) for pin in pins}
        assert chosen <= allowed and len(chosen) == min(2, len(allowed))
        assert os.sched_getaffinity(0) == allowed


class TestDifferentialProcessesVsTrace:
    def test_syn1_replay_matches_the_trace(self):
        """The oracle is the input: the tree sends every record of
        syn-1 exactly once, from its own source, and loses nothing."""
        trace = table1_synthetic("syn-1", duration=2.0)
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        assert sorted(query.index for query in result.sent) \
            == list(range(len(trace)))
        # Record for record: implies the per-source counts and the
        # qname multiset are the trace's own.
        assert Counter((query.source, query.trace_time, query.qname)
                       for query in result.sent) \
            == Counter((record.src, record.timestamp,
                        record.question()[0].to_text().lower())
                       for record in trace.records)
        assert result.answered_fraction() == 1.0
        assert not any(result.failure_counts().values())
        assert not any(result.degradation().values())


class _FakeProcess:
    pid = 12345

    def __init__(self, alive=True):
        self.alive = alive

    def is_alive(self):
        return self.alive


class _FakeSocket:
    def close(self):
        pass


def _kill_first_querier(topology):
    """Assassin thread: wait for the tree to wire up, then SIGKILL
    querier 0."""
    def assassin():
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if topology.querier_handles:
                victim = topology.querier_handles[0].process
                if victim is not None and victim.pid:
                    os.kill(victim.pid, signal.SIGKILL)
                    return
            time.sleep(0.02)

    killer = threading.Thread(target=assassin, daemon=True)
    killer.start()
    return killer


class TestSupervision:
    def test_dead_querier_process_is_flagged_and_replay_finishes(self):
        """Kill one querier process mid-replay: the watchdog flags the
        dead worker and collection skips it instead of hanging."""
        trace = fixed_interval_trace(0.01, 2.0, client_count=8,
                                     name="mp-dead")
        config = process_config(
            distributors=1, queriers_per_distributor=2,
            supervision=SupervisionConfig(heartbeat_interval=0.05,
                                          stall_timeout=10.0))
        with LiveUdpEchoServer() as server:
            topology = ProcessTopology((server.address, server.port), config)
            killer = _kill_first_querier(topology)
            started = time.monotonic()
            result = topology.replay(trace)
            elapsed = time.monotonic() - started
            killer.join(timeout=1.0)
        # Must terminate well before the 10s stall timeout: death is
        # detected via is_alive(), not heartbeat staleness.
        assert elapsed < 9.0
        assert result.watchdog_stalls >= 1
        # The surviving querier kept answering.
        answered = sum(1 for q in result.sent if q.answered_at is not None)
        assert answered > 0

    def test_watchdog_flags_dead_worker_handle(self):
        handle = _WorkerHandle(ROLE_QUERIER, 0, _FakeSocket(), 0)
        handle.process = _FakeProcess(alive=False)
        flagged = []
        watchdog = ReplayWatchdog(
            SupervisionConfig(heartbeat_interval=0.02, stall_timeout=60.0),
            [handle], on_stall=flagged.append)
        watchdog.start()
        deadline = time.monotonic() + 2.0
        while not flagged and time.monotonic() < deadline:
            time.sleep(0.01)
        watchdog.stop()
        watchdog.join(timeout=1.0)
        assert flagged == [handle]

    def test_watchdog_ignores_unstarted_handle(self):
        handle = _WorkerHandle(ROLE_QUERIER, 0, _FakeSocket(), 0)
        # No process attached yet: is_alive() False but pid None.
        flagged = []
        watchdog = ReplayWatchdog(
            SupervisionConfig(heartbeat_interval=0.02, stall_timeout=60.0),
            [handle], on_stall=flagged.append)
        watchdog.start()
        time.sleep(0.15)
        watchdog.stop()
        watchdog.join(timeout=1.0)
        assert flagged == []

    def test_dead_querier_without_supervision_is_a_lost_shard(self):
        """No watchdog, no telemetry: the reader's EOF path alone fails
        the SIGKILLed querier, and the survivors are merged."""
        trace = fixed_interval_trace(0.01, 1.0, client_count=8,
                                     name="mp-unsupervised")
        config = process_config(distributors=1, queriers_per_distributor=3,
                                settle_time=0.5)
        with LiveUdpEchoServer() as server:
            topology = ProcessTopology((server.address, server.port), config)
            killer = _kill_first_querier(topology)
            result = topology.replay(trace)
            killer.join(timeout=1.0)
        assert not killer.is_alive()
        assert topology.watchdog is None
        assert topology.metrics.count("multiproc.lost_shards") == 1
        assert topology.metrics.count("multiproc.workers") == 4
        assert topology.querier_handles[0].shard is None
        survivors = [handle.shard
                     for handle in topology.querier_handles[1:]]
        assert all(shard is not None for shard in survivors)
        # Conservation, counts only: the merged result holds exactly
        # what the survivors reported, answered and unanswered alike.
        def answered(result):
            return sum(1 for q in result.sent if q.answered_at is not None)
        assert 0 < sum(len(shard) for shard in survivors) == len(result)
        assert sum(answered(shard) for shard in survivors) \
            == answered(result)
        assert sum(shard.unanswered() for shard in survivors) \
            == result.unanswered()
        assert topology.metrics.count("replay.records_sent") == len(result)

    def test_deadline_sheds_across_processes(self):
        """The wall-clock budget propagates as SHUTDOWN frames and the
        shed counts come back in the merged aggregate."""
        trace = fixed_interval_trace(0.05, 30.0, client_count=8,
                                     name="mp-deadline")
        config = process_config(
            distributors=1, queriers_per_distributor=2,
            supervision=SupervisionConfig(heartbeat_interval=0.05,
                                          stall_timeout=5.0,
                                          deadline=1.0))
        with LiveUdpEchoServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), config)
            started = time.monotonic()
            result = replay.replay(trace)
            elapsed = time.monotonic() - started
        assert elapsed < 25.0           # nowhere near the 30s trace
        assert result.deadline_shed > 0
        assert len(result.sent) + result.deadline_shed <= len(trace)


class TestAwaitReports:
    """The one completion wait, on fakes: no tree, no sockets, and no
    wall-clock thresholds — only who ends up failed."""

    GRACE = 0.05

    def _tree(self, queriers=2):
        topology = ProcessTopology(("127.0.0.1", 1), process_config())
        for querier_id in range(queriers):
            topology.querier_handles.append(
                self._handle(ROLE_QUERIER, querier_id))
        topology.distributor_handles.append(
            self._handle(ROLE_DISTRIBUTOR, 0))
        return topology

    @staticmethod
    def _handle(role, worker_id):
        handle = _WorkerHandle(role, worker_id, _FakeSocket(), 0)
        handle.process = _FakeProcess()
        return handle

    @staticmethod
    def _report(topology, handle):
        with topology._progress:
            handle.shard = ReplayResult(handle.name, aggregate=True)
            handle.metrics_state = {}
            topology._progress.notify_all()

    def _wait_in_thread(self, topology):
        waiter = threading.Thread(
            target=topology._await_reports,
            kwargs=dict(floor=time.monotonic(), grace=self.GRACE),
            daemon=True)
        waiter.start()
        return waiter

    def test_unreported_live_distributor_never_arms_the_clock(self):
        topology = self._tree()
        waiter = self._wait_in_thread(topology)
        waiter.join(timeout=self.GRACE * 6)
        # Well past the grace: upstream is still producing, so nobody
        # has been given up on and the wait goes on.
        assert waiter.is_alive()
        assert not any(h.failed for h in topology._handles())
        # The distributor reports: now the queriers get the grace, and
        # only then fail.
        self._report(topology, topology.distributor_handles[0])
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert [h.failed for h in topology.querier_handles] == [True, True]
        assert not topology.distributor_handles[0].failed

    def test_failed_distributor_counts_as_upstream_ended(self):
        topology = self._tree()
        topology.distributor_handles[0].process.alive = False
        waiter = self._wait_in_thread(topology)
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert all(h.failed for h in topology._handles())

    def test_dead_querier_is_failed_without_waiting(self):
        topology = self._tree()
        dead, live = topology.querier_handles
        dead.process.alive = False
        waiter = self._wait_in_thread(topology)
        give_up = time.monotonic() + 10.0
        while not dead.failed and time.monotonic() < give_up:
            time.sleep(0.01)
        # Failed while the distributor is still unreported, i.e. before
        # any clock was armed.
        assert dead.failed and not live.failed
        self._report(topology, live)
        self._report(topology, topology.distributor_handles[0])
        waiter.join(timeout=10.0)
        assert not waiter.is_alive()
        assert not live.failed

    def test_everyone_reported_returns_at_once(self):
        topology = self._tree()
        for handle in topology._handles():
            self._report(topology, handle)
        topology._await_reports()   # no clock at all: must not block
        assert not any(h.failed for h in topology._handles())

    def test_cap_bounds_the_wait_while_upstream_is_alive(self):
        """``supervision.deadline`` is the one wall-clock budget: it
        ends the wait even with the distributor alive and silent."""
        topology = self._tree()
        topology._await_reports(cap=time.monotonic() + self.GRACE,
                                floor=time.monotonic(), grace=3600.0)
        assert all(h.failed for h in topology._handles())


class TestUdpEchoServerProcess:
    def test_start_echo_stop(self):
        import socket
        with UdpEchoServerProcess() as server:
            assert server.port
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2.0)
            sock.sendto(b"\x12\x34" + b"\x00" * 10,
                        (server.address, server.port))
            data, _peer = sock.recvfrom(65535)
            sock.close()
            assert data[:2] == b"\x12\x34"
        assert server._process is None
