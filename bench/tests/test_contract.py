"""BENCHMARK.json says what the code measures, within the contract."""

import json
import os
import re

from bench.harness import ROOT
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_limits():
    doc = contract()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert doc["command"] == ["python3", "bench/run.py"]
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")


def test_matches_the_code():
    doc = contract()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in doc["workloads"]} \
        == {w.name: w.why for w in WORKLOADS.values()}
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]] \
        == [(name, m.unit, m.better, m.bound)
            for name, m in END_TO_END.items()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [(name, m.unit, m.better) for name, m in PER_LAYER.items()]
    setup = END_TO_END["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END.values())
