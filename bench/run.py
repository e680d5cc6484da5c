"""One run of one workload in this process: the command BENCHMARK.json names.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1

Prints every metric by name with its unit, then a manifest line, then (last)
the one-line JSON result.  ``--trace 0`` measures the end-to-end metrics
with nothing installed in the program; ``--trace 1`` is the separate traced
run that yields the per-layer metrics.  ``python -m bench`` runs many of
these, each in a fresh interpreter.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import os
import platform
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

def _fixed_hash_seed() -> None:
    """Re-exec once so that str hashing, and with it set and dict order in
    the program, is the same in every run."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _import_program():
    """Make ``repro`` and ``bench`` importable from a bare checkout."""
    if sys.path and os.path.abspath(sys.path[0] or ".") == HERE:
        del sys.path[0]     # the script's directory: not a package root
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from bench import metrics, workloads
    return metrics, workloads


def manifest(args) -> dict:
    def read(path: str) -> str:
        try:
            with open(path) as handle:
                return handle.read().strip()
        except OSError:
            return "unknown"

    sha = "unknown"
    head = read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        sha = read(os.path.join(ROOT, ".git", head[5:]))
    elif head != "unknown":
        sha = head
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rmem_default": read("/proc/sys/net/core/rmem_default"),
        "load_1min": os.getloadavg()[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    about = manifest(args)
    metrics, workloads = _import_program()
    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.trace:
            from bench import layers
            outcome, values = layers.traced_run(
                workload, args.seed, args.seconds, workdir)
        else:
            outcome, wall, cpu, setup_s, peak = workloads.measure(
                workload, args.seed, args.seconds, workdir)
            values = metrics.end_to_end(outcome, wall, cpu,
                                        import_s + setup_s, peak)
            about["window_s"] = wall
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    for name, value in values.items():
        print(f"{name:40s} {value:16.6f} {units[name].unit}")
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    print("manifest " + json.dumps(about, sort_keys=True))
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.records,
        "failed": outcome.records - outcome.delivered,
        "metrics": {name: {"value": value, "unit": units[name].unit}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    _fixed_hash_seed()
    sys.exit(main())
