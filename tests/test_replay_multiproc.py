"""Tests for the live replay tree (repro.replay.multiproc)."""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.replay import DistributedConfig, ProcessTopology
from repro.replay import protocol
from repro.replay.multiproc import _WorkerHandle
from repro.replay.protocol import ROLE_DISTRIBUTOR, ROLE_QUERIER
from repro.replay.result import ReplayResult
from repro.server import LiveDnsServer
from repro.trace import (Trace, burst_trace, fixed_interval_trace,
                         table1_synthetic)


def process_config(**overrides):
    defaults = dict(distributors=2, queriers_per_distributor=2,
                    start_delay=0.05)
    defaults.update(overrides)
    return DistributedConfig(**defaults)


class TestProcessTopology:
    def test_replays_and_answers(self):
        trace = fixed_interval_trace(0.02, 1.0, client_count=16,
                                     name="mp-basic")
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        assert len(result) == len(trace)
        assert result.answered_fraction() > 0.9

    def test_source_affinity_across_processes(self):
        trace = fixed_interval_trace(0.01, 1.0, client_count=12,
                                     name="mp-affinity")
        with LiveDnsServer() as server:
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
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        indices = sorted(q.index for q in result.sent)
        assert indices == list(range(len(result.sent)))

    def test_checkpoint_counters_are_exported(self):
        """A clean 1 × 2 replay books what its checkpoint store
        folded: every record's entry was offered at least once, in at
        least one frame per querier, and no more frames were stale than
        were offered."""
        trace = burst_trace(300)
        with LiveDnsServer() as server:
            topology = ProcessTopology((server.address, server.port),
                                       process_config(distributors=1))
            result = topology.replay(trace)
        assert len(result) == len(trace)
        count = topology.metrics.count
        assert count("multiproc.checkpoint_entries") >= len(trace)
        assert count("multiproc.checkpoint_frames") >= 2
        assert 0 <= count("multiproc.checkpoint_frames_stale") \
            <= count("multiproc.checkpoint_frames")

    def test_report_bigger_than_a_frame_arrives_in_chunks(self,
                                                           monkeypatch):
        """A querier's list-mode report that does not fit one frame
        goes as CHECKPOINT chunks and a RESULT with the last one, and
        every index merges.  ``MAX_FRAME`` is cut to 160 KiB for both
        ends (forked workers inherit it): about 2 000 entries a querier
        no longer fit, a chunk does."""
        monkeypatch.setattr(protocol, "MAX_FRAME", 160 * 1024)
        trace = burst_trace(4000)
        with LiveDnsServer() as server:
            topology = ProcessTopology(
                (server.address, server.port),
                process_config(distributors=1, start_method="fork"))
            result = topology.replay(trace)
        assert [q.index for q in result.sent] == list(range(4000))
        assert topology.metrics.count("multiproc.lost_shards") == 0
        # Two RESULTs and at least one chunk ahead of each.
        assert topology.metrics.count("multiproc.checkpoint_frames") >= 4

    def test_cross_process_metrics_merge(self):
        trace = fixed_interval_trace(0.02, 1.0, client_count=8,
                                     name="mp-metrics")
        with LiveDnsServer() as server:
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

    @staticmethod
    def _timed_replay():
        trace = fixed_interval_trace(0.02, 1.0, name="mp-timing")
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            return trace, replay.replay(trace)

    @staticmethod
    def _lead_in_replay():
        trace = fixed_interval_trace(0.005, 1.0, name="mp-lead-in")
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port),
                process_config(distributors=1, queriers_per_distributor=1,
                               start_delay=0.2))
            return trace, replay.replay(trace)

    @staticmethod
    def _median_error(result, skip_seconds=0.0):
        errors = sorted(abs(error) for error
                        in result.send_time_errors(skip_seconds))
        assert errors
        return errors[len(errors) // 2]

    def test_timing_discipline_holds(self):
        trace, result = self._timed_replay()
        assert len(result) == len(trace)

    @pytest.mark.timing
    def test_timing_discipline_median_error(self):
        """ROADMAP 5a: a quantile of real wall-clock send errors, not
        their maximum — one descheduled send on a loaded host moves the
        maximum past any bound and the median not at all."""
        _trace, result = self._timed_replay()
        assert self._median_error(result, skip_seconds=0.1) < 0.010

    def test_lead_in_is_spent_after_the_anchor(self):
        """The first record is due ``start_delay`` after
        TIME_SYNC, not the instant it lands, so the head of the stream
        is queued before any send is due (the parent scheduled record 0
        at the querier's receipt of TIME_SYNC, ~0 s after the anchor)."""
        trace, result = self._lead_in_replay()
        assert len(result) == len(trace)
        first = min(result.sent, key=lambda query: query.trace_time)
        assert first.scheduled_at - result.start_clock >= 0.2

    @pytest.mark.timing
    def test_lead_in_keeps_errors_unbiased(self):
        """The shift of the lead-in is in the anchor pair, so the send
        errors stay unbiased."""
        _trace, result = self._lead_in_replay()
        assert self._median_error(result) < 0.010

    def test_empty_trace(self):
        replay = ProcessTopology(("127.0.0.1", 1), process_config())
        result = replay.replay(Trace())
        assert len(result) == 0

    def test_phase_timers_account_for_the_run(self):
        """The controller books each phase's wall to its metrics: all
        six on a 1 × 2 in-memory run, summing to no more than the
        replay's wall."""
        trace = fixed_interval_trace(0.02, 0.2, client_count=4,
                                     name="mp-phases")
        with LiveDnsServer() as server:
            topology = ProcessTopology((server.address, server.port),
                                       process_config(distributors=1))
            started = time.perf_counter()
            result = topology.replay(trace)
            wall = time.perf_counter() - started
        assert len(result) == len(trace)
        phases = {name[len("multiproc.phase."):]: seconds
                  for name, seconds
                  in topology.metrics.to_state()["timings"].items()
                  if name.startswith("multiproc.phase.")}
        assert set(phases) == {"spawn", "stream", "drain", "collect",
                               "merge", "teardown"}
        assert all(seconds > 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= wall

    def test_non_udp_record_is_refused_not_sent_as_udp(self):
        """A live querier speaks UDP only, so a TCP record is refused
        at its due time instead of leaving as a UDP datagram: it is a
        send failure, and its entry, under its own protocol, gave up.
        The store then accounts for its index: nothing is redelivered."""
        trace = fixed_interval_trace(0.005, 0.1, client_count=4,
                                     name="mp-tcp")
        tcp_at = 7
        trace.records[tcp_at] = dataclasses.replace(
            trace.records[tcp_at], protocol="tcp")
        with LiveDnsServer() as server:
            topology = ProcessTopology(
                (server.address, server.port),
                process_config(distributors=1, queriers_per_distributor=1))
            result = topology.replay(trace)
        echoed = server.counters["hosting.responses_sent"]
        udp = [q for q in result.sent if q.protocol == "udp"]
        [tcp] = [q for q in result.sent if q.protocol != "udp"]
        assert len(udp) == len(trace) - 1
        assert all(q.answered_at is not None for q in udp)
        assert (tcp.index, tcp.protocol, tcp.gave_up) == (tcp_at, "tcp", True)
        assert tcp.answered_at is None
        assert result.send_failures == 1
        assert result.redelivered_records == 0
        assert echoed == len(udp)

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
        with LiveDnsServer() as server:
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
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), process_config())
            result = replay.replay(trace)
        assert [query.index for query in result.sent] \
            == list(range(len(trace)))
        # Record for record, each entry under its position in the
        # timestamp-sorted trace: implies the per-source counts and the
        # qname multiset are the trace's own.
        records = sorted(trace.records, key=lambda record: record.timestamp)
        for query in result.sent:
            record = records[query.index]
            assert (query.source, query.trace_time, query.qname) \
                == (record.src, record.timestamp,
                    record.question()[0].to_text().lower())
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
    """Assassin thread: SIGKILL querier 0 0.2 s past the run's anchor,
    with its share of the stream queued."""
    def assassin():
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            anchor = topology.result.start_clock
            if anchor is not None and topology.querier_handles:
                time.sleep(max(0.0, anchor + 0.2 - time.monotonic()))
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
        """Kill one querier process mid-replay: its reader's EOF path
        counts it lost exactly once (the parent's watchdog could count
        the same death a second time), collection skips it instead of
        hanging, and the drain re-streams what it held to the
        survivor, so no record is lost with it."""
        trace = fixed_interval_trace(0.01, 2.0, client_count=8,
                                     name="mp-dead")
        config = process_config(distributors=1, queriers_per_distributor=2)
        with LiveDnsServer() as server:
            topology = ProcessTopology((server.address, server.port), config)
            killer = _kill_first_querier(topology)
            result = topology.replay(trace)
            killer.join(timeout=1.0)
        assert result.workers_lost == 1
        assert topology.metrics.count("multiproc.lost_shards") == 1
        assert len(result) == len(trace)
        assert result.redelivered_records >= 1
        # The surviving querier kept answering.
        answered = sum(1 for q in result.sent if q.answered_at is not None)
        assert answered > 0

    def test_dead_querier_without_supervision_is_a_lost_shard(self):
        """No telemetry and no RecoveryConfig: the reader's EOF path
        alone fails the SIGKILLed querier, nothing respawns it, and the
        survivors carry what it held."""
        trace = fixed_interval_trace(0.01, 1.0, client_count=8,
                                     name="mp-unsupervised")
        config = process_config(distributors=1, queriers_per_distributor=3,
                                settle_time=0.5)
        with LiveDnsServer() as server:
            topology = ProcessTopology((server.address, server.port), config)
            killer = _kill_first_querier(topology)
            result = topology.replay(trace)
            killer.join(timeout=1.0)
        assert not killer.is_alive()
        assert result.workers_lost == 1 and result.respawns == 0
        assert topology.metrics.count("multiproc.lost_shards") == 1
        assert topology.metrics.count("multiproc.workers") == 4
        assert not topology.querier_handles[0].reported
        assert all(handle.reported
                   for handle in topology.querier_handles[1:])
        assert len(result) == len(trace)
        assert result.redelivered_records >= 1
        # Conservation, counts only: what the survivors sent (their
        # METRICS) and what the victim checkpointed before it died is
        # the merged result plus the copies the merge dropped.
        victim = [ReplayResult.from_dict(snapshot)
                  for snapshot in topology._store.snapshots()
                  if snapshot["name"] == "querier-0"]
        assert topology.metrics.count("replay.records_sent") \
            + sum(len(shard) for shard in victim) \
            == len(result) + result.duplicate_merged

    def test_deadline_sheds_across_processes(self):
        """The wall-clock budget propagates as SHUTDOWN frames and the
        shed counts come back in the merged aggregate."""
        trace = fixed_interval_trace(0.05, 30.0, client_count=8,
                                     name="mp-deadline")
        config = process_config(distributors=1, queriers_per_distributor=2,
                                deadline=1.0)
        with LiveDnsServer() as server:
            replay = ProcessTopology(
                (server.address, server.port), config)
            result = replay.replay(trace)
        assert result.deadline_shed > 0
        # Every record is sent or shed: none is lost between the tiers.
        assert len(result.sent) + result.deadline_shed == len(trace)
        assert replay.metrics.count("multiproc.lost_shards") == 0


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
            handle.reported = True
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
        # A clock that never runs out: the return must not wait on it.
        topology._await_reports(floor=time.monotonic(), grace=3600.0)
        assert not any(h.failed for h in topology._handles())

    def test_cap_bounds_the_wait_while_upstream_is_alive(self):
        """``DistributedConfig.deadline`` is the one wall-clock budget: it
        ends the wait even with the distributor alive and silent."""
        topology = self._tree()
        topology._await_reports(cap=time.monotonic() + self.GRACE,
                                floor=time.monotonic(), grace=3600.0)
        assert all(h.failed for h in topology._handles())
