"""Tests for the verification harness itself — test the tester.

Three layers: the seeded generators must be pure functions of the
seed, the Oracle library must detect (not just pass) divergence, and
the explorer/fuzz drivers must both exhaust clean models and catch a
deliberately broken one.
"""

import json
import random

import pytest

from repro.dns import Message, WireError
from repro.verify import (ExplorationResult, Explorer, Observation, Oracle,
                          ddmin, diff_observations, explore_admission,
                          explore_tcp, hostile_frames, hostile_wires,
                          run_fuzz, tcp_schedules, valid_message,
                          wire_seed_corpus, zero_msg_id)
from repro.verify.explorer import (ADMISSION_POLICIES, RECOVERY_SCENARIOS,
                                   TCP_SCENARIOS, explore_recovery)
from repro.verify.fuzz import TARGETS, fuzz_target
from repro.verify.generators import fault_plan, frame_seed_corpus


class TestGenerators:
    def test_hostile_wires_pure_function_of_seed(self):
        assert list(hostile_wires(3, 60)) == list(hostile_wires(3, 60))
        assert list(hostile_wires(3, 60)) != list(hostile_wires(4, 60))

    def test_seed_corpus_leads_the_stream(self):
        corpus = wire_seed_corpus()
        stream = list(hostile_wires(0, len(corpus) + 5))
        assert stream[:len(corpus)] == corpus
        assert len(stream) == len(corpus) + 5

    def test_hostile_frames_pure_function_of_seed(self):
        assert list(hostile_frames(9, 40)) == list(hostile_frames(9, 40))
        assert len(frame_seed_corpus()) >= 10

    def test_valid_messages_round_trip(self):
        rng = random.Random(5)
        for _ in range(30):
            message = valid_message(rng)
            Message.from_wire(message.to_wire())

    def test_fault_plans_are_valid(self):
        # FaultSpec validates in its constructor; surviving construction
        # for many seeds is the property.
        for seed in range(50):
            plan = fault_plan(random.Random(seed))
            assert plan.specs

    def test_tcp_schedules_deterministic(self):
        first = [vars(s) | {"plan": None} for s in tcp_schedules(11, 10)]
        second = [vars(s) | {"plan": None} for s in tcp_schedules(11, 10)]
        assert first == second

    def test_checkpoint_deliveries_pure_function_of_seed(self):
        from repro.verify.generators import checkpoint_deliveries
        assert checkpoint_deliveries(5) == checkpoint_deliveries(5)
        assert checkpoint_deliveries(5) != checkpoint_deliveries(6)
        frames, order, total = checkpoint_deliveries(5, workers=3, total=9)
        assert total == 9
        assert {frame["worker"] for frame in frames} <= {0, 1, 2}
        # Every worker ends with exactly one final frame.
        finals = [f for f in frames if f["final"]]
        assert sorted(f["worker"] for f in finals) == [0, 1, 2]
        # The delivery order covers every emitted frame at least once.
        assert set(order) >= set(range(len(frames)))


class TestOracle:
    def observation(self, **kwargs):
        base = dict(wires=(b"\x12\x34abc",), facts={"sent": 3},
                    metrics={"counts": {"q": 1}})
        base.update(kwargs)
        return Observation(**base)

    def test_identical_observations_pass(self):
        oracle = Oracle("t", lambda _w: self.observation(),
                        lambda _w: self.observation())
        report = oracle.check(None)
        assert report.ok and "no divergence" in report.describe()

    def test_wire_divergence_detected(self):
        oracle = Oracle("t", lambda _w: self.observation(),
                        lambda _w: self.observation(wires=(b"\x12\x34abX",)))
        report = oracle.run(None)
        assert [d.field for d in report.divergences] == ["wires[0]"]
        with pytest.raises(AssertionError, match="oracle t"):
            report.raise_if_diverged()

    def test_wire_count_divergence_detected(self):
        oracle = Oracle("t", lambda _w: self.observation(),
                        lambda _w: self.observation(wires=()))
        assert [d.field for d in oracle.run(None).divergences] == \
            ["wires.count"]

    def test_nested_fact_and_metric_divergence(self):
        candidate = self.observation(facts={"sent": 4, "extra": 1},
                                     metrics={"counts": {}})
        report = Oracle("t", lambda _w: self.observation(),
                        lambda _w: candidate).run(None)
        fields = sorted(d.field for d in report.divergences)
        assert fields == ["facts.extra", "facts.sent", "metrics.counts.q"]

    def test_normalize_wire_masks_ids(self):
        oracle = Oracle("t", lambda _w: self.observation(),
                        lambda _w: self.observation(wires=(b"\x99\x99abc",)),
                        normalize_wire=zero_msg_id)
        assert oracle.check(None).ok

    def test_runner_must_return_observation(self):
        oracle = Oracle("t", lambda _w: {"not": "an observation"},
                        lambda _w: self.observation())
        with pytest.raises(TypeError, match="oracle t"):
            oracle.run(None)

    def test_capture_filters_ignored_metrics(self):
        from repro.telemetry import MetricsRegistry
        registry = MetricsRegistry()
        registry.incr("replay.records_sent")
        registry.incr("process.rss_bytes")
        observation = Observation.capture(
            registry=registry, ignore_metrics=("process.",))
        assert "replay.records_sent" in observation.metrics["counts"]
        assert "process.rss_bytes" not in observation.metrics["counts"]

    def test_diff_observations_symmetric_on_missing_keys(self):
        want = Observation(facts={"a": 1})
        got = Observation(facts={"b": 2})
        fields = {d.field: (d.baseline, d.candidate)
                  for d in diff_observations(want, got)}
        assert fields == {"facts.a": (1, "<absent>"),
                          "facts.b": ("<absent>", 2)}


class _CounterModel:
    """Toy model: two increments and a doubling, any order.

    ``inc inc double`` reaches 4; the invariant says <= 3, so the
    explorer must surface exactly the orderings that double last.
    """

    LIMIT = 3

    def __init__(self, limit=LIMIT):
        self.limit = limit
        self.value = 0
        self.applied = []

    def choices(self):
        return [c for c in ("inc-a", "inc-b", "double")
                if c not in self.applied]

    def apply(self, index):
        choice = self.choices()[index]
        self.applied.append(choice)
        self.value = self.value * 2 if choice == "double" else self.value + 1

    def check(self):
        if self.value > self.limit:
            return [("bounded", f"value={self.value}")]
        return []

    def check_terminal(self):
        return []

    def fingerprint(self):
        return (tuple(self.applied), self.value)


class TestExplorer:
    def test_broken_model_is_caught_with_trace(self):
        result = Explorer(_CounterModel).run()
        assert not result.ok and result.exhausted
        assert all(v.invariant == "bounded" for v in result.violations)
        # The only bad ordering ends in the doubling.
        assert all(v.trace == ("inc-a", "inc-b", "double")
                   or v.trace == ("inc-b", "inc-a", "double")
                   for v in result.violations)

    def test_clean_model_exhausts(self):
        result = Explorer(lambda: _CounterModel(limit=10)).run()
        assert result.ok and result.exhausted
        assert result.paths == 6   # 3! orderings, fingerprints all unique

    def test_depth_bound_reports_truncation(self):
        result = Explorer(lambda: _CounterModel(limit=10),
                          max_depth=1).run()
        assert not result.exhausted
        assert "TRUNCATED" in result.summary()

    @pytest.mark.fuzz
    @pytest.mark.parametrize("scenario", TCP_SCENARIOS)
    def test_tcp_scenarios_exhaust_clean(self, scenario):
        result = explore_tcp(scenario)
        assert result.exhausted, result.summary()
        assert result.ok, "\n".join(str(v) for v in result.violations)

    @pytest.mark.fuzz
    @pytest.mark.parametrize("policy", ADMISSION_POLICIES)
    def test_admission_scenarios_exhaust_clean(self, policy):
        result = explore_admission(policy)
        assert result.exhausted, result.summary()
        assert result.ok, "\n".join(str(v) for v in result.violations)

    @pytest.mark.fuzz
    def test_admission_with_rrl_exhausts_clean(self):
        result = explore_admission("drop-oldest", rrl=True)
        assert result.exhausted and result.ok

    @pytest.mark.fuzz
    @pytest.mark.parametrize("scenario", RECOVERY_SCENARIOS)
    def test_recovery_scenarios_exhaust_clean(self, scenario):
        """Worker-crash × frame-reorder and its dup, double-crash and
        frame-loss variants, over delta frames, exhaust with zero
        violations against the production store and merge."""
        result = explore_recovery(scenario)
        assert result.exhausted, result.summary()
        assert result.ok, "\n".join(str(v) for v in result.violations)


class TestDdmin:
    def test_minimizes_to_the_culprit(self):
        data = bytes(range(200)) + b"\xde\xad" + bytes(range(100))
        minimized = ddmin(data, lambda d: b"\xde\xad" in d)
        assert minimized == b"\xde\xad"

    def test_returns_input_when_not_reducible(self):
        assert ddmin(b"\x01", lambda d: d == b"\x01") == b"\x01"

    def test_respects_probe_budget(self):
        calls = []

        def predicate(candidate):
            calls.append(candidate)
            return b"\xff" in candidate

        ddmin(bytes(5000) + b"\xff" + bytes(5000), predicate,
              max_probes=30)
        assert len(calls) <= 31


class TestFuzzDriver:
    @pytest.mark.fuzz
    def test_campaign_deterministic_and_clean(self):
        kwargs = dict(seed=5, targets=["wire-decode", "protocol-frames"],
                      examples=60)
        first, second = run_fuzz(**kwargs), run_fuzz(**kwargs)
        assert not first.crashes
        assert [(t.target, t.examples) for t in first.targets] == \
            [(t.target, t.examples) for t in second.targets]

    def test_crash_is_reported_minimized_and_persisted(self, tmp_path):
        from repro.verify.fuzz import FuzzTarget

        def explode(data: bytes) -> None:
            if b"\xba\xad" in data:
                raise ValueError("boom")

        target = FuzzTarget("toy", lambda seed: iter(
            [b"fine", b"also fine", bytes(40) + b"\xba\xad" + bytes(40)]),
            explode, True, 10)
        report = fuzz_target(target, seed=1, corpus_dir=str(tmp_path))
        assert [c.exception for c in report.crashes] == ["ValueError"]
        crash = report.crashes[0]
        assert crash.data == b"\xba\xad"          # ddmin ran
        assert crash.original_size == 82
        stem = tmp_path / "toy" / crash.digest()
        assert stem.with_suffix(".bin").read_bytes() == b"\xba\xad"
        sidecar = json.loads(stem.with_suffix(".json").read_text())
        assert sidecar["exception"] == "ValueError"

    def test_all_targets_registered(self):
        assert sorted(TARGETS) == ["fault-replay", "protocol-frames",
                                   "recovery-schedule", "tcp-schedule",
                                   "wire-cache", "wire-decode"]
        for target in TARGETS.values():
            assert target.default_examples > 0
