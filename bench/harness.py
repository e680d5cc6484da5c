"""Many runs, each in a fresh interpreter: ``python -m bench run|trace|aa``.

In-process repeats drift (a second replay in the same interpreter runs on
a grown heap), so every number comes from a new ``bench/run.py`` process.
Runs of different workloads are interleaved round-robin, so that slow
drift of the machine spreads over all of them alike.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence

from .metrics import END_TO_END, PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    return [workload["name"] for workload in contract()["workloads"]]


def run_once(workload: str, seed: int, seconds: float,
             trace: bool = False) -> dict:
    """One fresh-process run; raises if it printed no result."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    record = json.loads(lines[-1])
    record["manifest"] = next(
        (json.loads(line[len("manifest "):]) for line in lines
         if line.startswith("manifest ")), {})
    record["failures"] = [line[len("CHECK FAILED: "):] for line in lines
                          if line.startswith("CHECK FAILED: ")]
    return record


def spread(values: Sequence[float]) -> float:
    """(third quartile - first quartile) / median, as the driver takes it."""
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else 0.0


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if better == "higher" else change


def run_set(workloads: Sequence[str], seeds: Iterable[int], seconds: float,
            label: str = "") -> Dict[str, List[dict]]:
    """Round-robin: every workload once per seed, seed after seed."""
    runs: Dict[str, List[dict]] = {name: [] for name in workloads}
    for seed in seeds:
        for name in workloads:
            began = time.monotonic()
            record = run_once(name, seed, seconds)
            runs[name].append(record)
            state = "ok" if record["correct"] else \
                "FAILED: " + "; ".join(record["failures"])
            print(f"  {label}{name} seed {seed}: {state} "
                  f"({time.monotonic() - began:.1f} s)", flush=True)
    return runs


def values_of(records: List[dict], metric: str) -> List[float]:
    return [record["metrics"][metric]["value"] for record in records
            if record["correct"]]


def print_summary(runs: Dict[str, List[dict]]) -> None:
    print(f"{'workload':14s} {'metric':18s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'iqr/med':>8s} {'bound':>6s}  unit")
    for name, records in runs.items():
        for metric, spec in END_TO_END.items():
            values = values_of(records, metric)
            if len(values) < 2:
                shown = values[0] if values else float("nan")
                print(f"{name:14s} {metric:18s} {shown:14.4f} "
                      f"{'':14s} {'':14s} {'':8s} {spec.bound:6.2f}  "
                      f"{spec.unit}")
                continue
            quartiles = statistics.quantiles(values, n=4)
            print(f"{name:14s} {metric:18s} "
                  f"{statistics.median(values):14.4f} {quartiles[0]:14.4f} "
                  f"{quartiles[2]:14.4f} {spread(values):8.4f} "
                  f"{spec.bound:6.2f}  {spec.unit}")


def write_results(path: Optional[str], kind: str, payload: dict) -> str:
    if path is None:
        directory = os.path.join(HERE, ".work", "results")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory,
                            f"{kind}-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1)
    return path


def all_correct(runs: Dict[str, List[dict]]) -> bool:
    return all(record["correct"] for records in runs.values()
               for record in records)


def command_run(args) -> int:
    workloads = [args.workload] if args.workload else workload_names()
    seeds = range(args.seed, args.seed + args.runs)
    runs = run_set(workloads, seeds, args.seconds)
    print_summary(runs)
    path = write_results(args.out, "run", {"seconds": args.seconds,
                                           "runs": runs})
    print(f"results written to {os.path.relpath(path)}")
    return 0 if all_correct(runs) else 1


def command_trace(args) -> int:
    workloads = [args.workload] if args.workload else workload_names()
    records = {}
    for name in workloads:
        records[name] = run_once(name, args.seed, args.seconds, trace=True)
        for failure in records[name]["failures"]:
            print(f"  {name}: CHECK FAILED: {failure}")
    print(f"{'metric':40s} " + " ".join(f"{name:>14s}"
                                         for name in workloads) + "  unit")
    for metric, spec in PER_LAYER.items():
        cells = []
        for name in workloads:
            value = records[name]["metrics"][metric]["value"]
            cells.append(f"{value:14.4f}" if name in spec.on
                         else f"{'n/a':>14s}")
        print(f"{metric:40s} " + " ".join(cells) + f"  {spec.unit}")
    path = write_results(args.out, "trace", {"seconds": args.seconds,
                                             "runs": records})
    print(f"results written to {os.path.relpath(path)}")
    return 0 if all(record["correct"] for record in records.values()) else 1


def command_aa(args) -> int:
    """Two interleaved sets of the same checkout against the bounds."""
    workloads = [args.workload] if args.workload else workload_names()
    first: Dict[str, List[dict]] = {name: [] for name in workloads}
    second: Dict[str, List[dict]] = {name: [] for name in workloads}
    for index in range(args.runs):
        for label, runs, seed in (("A ", first, args.seed + index),
                                  ("B ", second,
                                   args.seed + args.runs + index)):
            for name, records in run_set(workloads, [seed], args.seconds,
                                         label).items():
                runs[name].extend(records)
    misses = 0
    print(f"{'workload':14s} {'metric':18s} {'median A':>13s} "
          f"{'median B':>13s} {'worse by':>9s} {'iqr/med A':>9s} "
          f"{'iqr/med B':>9s} {'bound':>6s}  verdict")
    for name in workloads:
        for metric, spec in END_TO_END.items():
            a, b = values_of(first[name], metric), \
                values_of(second[name], metric)
            if len(a) < 2 or len(b) < 2:
                print(f"{name:14s} {metric:18s} too few correct runs")
                misses += 1
                continue
            gap = max(worse_by(statistics.median(a), statistics.median(b),
                               spec.better),
                      worse_by(statistics.median(b), statistics.median(a),
                               spec.better))
            widest = max(spread(a), spread(b))
            held = gap <= spec.bound and (metric == "setup_s"
                                          or widest <= spec.bound)
            misses += not held
            print(f"{name:14s} {metric:18s} {statistics.median(a):13.4f} "
                  f"{statistics.median(b):13.4f} {gap:9.4f} "
                  f"{spread(a):9.4f} {spread(b):9.4f} {spec.bound:6.2f}  "
                  f"{'ok' if held else 'MISS'}")
    path = write_results(args.out, "aa", {"seconds": args.seconds,
                                          "first": first, "second": second})
    print(f"results written to {os.path.relpath(path)}")
    if not (all_correct(first) and all_correct(second)):
        print("some runs failed their output checks")
        return 1
    print("A/A: every metric within its bound" if not misses
          else f"A/A: {misses} (workload, metric) pairs outside their bound")
    return 1 if misses else 0
