"""Every workload, untraced and traced, at a fiftieth of its size."""

import json
import math
import os
import subprocess
import sys

import pytest

from bench.harness import ROOT, contract, workload_names
from bench.metrics import END_TO_END, PER_LAYER

SMOKE_SECONDS = contract()["run_seconds"] / 50


def run(workload, trace, *extra):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", "7",
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)


@pytest.mark.parametrize("workload", workload_names())
def test_end_to_end_metrics(workload):
    done = run(workload, 0)
    assert done.returncode == 0
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True, done.stdout
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert list(record["metrics"]) == list(END_TO_END)
    for name, metric in record["metrics"].items():
        assert metric["unit"] == END_TO_END[name].unit
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name


@pytest.mark.parametrize("workload", workload_names())
def test_per_layer_metrics(workload):
    done = run(workload, 1)
    assert done.returncode == 0
    record = json.loads(done.stdout.strip().splitlines()[-1])
    assert record["correct"] is True, done.stdout
    assert list(record["metrics"]) == list(PER_LAYER)
    for name, metric in record["metrics"].items():
        spec = PER_LAYER[name]
        assert metric["unit"] == spec.unit
        assert math.isfinite(metric["value"]) and metric["value"] >= 0, name
        if workload not in spec.on:
            assert metric["value"] == 0, name
        elif name.endswith(("_us", "_s", ".calls", "_ratio")) \
                and not name.endswith(".cpu_s"):
            # Times, call counts and ratios of a layer that ran (CPU
            # seconds come in 10 ms ticks and may round to 0 this small).
            assert metric["value"] > 0, name
    if workload.startswith("sim-"):
        assert record["metrics"]["span.coverage"]["value"] >= 0.9


def test_same_seed_same_inputs():
    from bench.workloads import broot_records, hot_records, unique_records
    for make in (lambda seed: broot_records(seed, 0.05),
                 lambda seed: hot_records(seed, 200),
                 lambda seed: unique_records(seed, 200, 0.001, 16)):
        assert list(make(3)) == list(make(3))
        assert list(make(3)) != list(make(4))


def test_unknown_workload_prints_no_result():
    done = run("no-such-workload", 0)
    assert done.returncode != 0
    assert not done.stdout.strip()
