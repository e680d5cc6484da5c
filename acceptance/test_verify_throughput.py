"""Throughput of the verification harness itself.

The fuzz campaign and the explorer sweep run on every CI push with a
fixed wall-clock budget, so their own speed bounds how much adversarial
coverage a budget buys.  These checks print wire-decode fuzz
executions/sec and the explorer sweep's states and wall time, and gate
floors loose enough for a shared CI runner.
"""

from __future__ import annotations

import time

from repro.verify import explore_all, run_fuzz

FUZZ_EXAMPLES = 1500


def _fuzz_wire_decode():
    started = time.perf_counter()
    report = run_fuzz(seed=3, targets=["wire-decode"],
                      examples=FUZZ_EXAMPLES)
    wall = time.perf_counter() - started
    assert not report.crashes
    (target,) = report.targets
    assert target.examples == FUZZ_EXAMPLES
    return {"wall_s": wall, "examples_per_s": FUZZ_EXAMPLES / wall}


def _explore_sweep():
    started = time.perf_counter()
    results = explore_all()
    wall = time.perf_counter() - started
    states = sum(r.states for r in results.values())
    assert all(r.exhausted and r.ok for r in results.values()), \
        {name: r.summary() for name, r in results.items()}
    return {"wall_s": wall, "scenarios": len(results), "states": states}


def test_fuzz_executions_per_second():
    facts = _fuzz_wire_decode()
    print(f"\nwire-decode fuzz: {facts['examples_per_s']:.0f} "
          f"executions/s over {FUZZ_EXAMPLES} examples")
    # A 60 s CI budget must buy at least ~tens of thousands of decodes.
    assert facts["examples_per_s"] > 300


def test_explorer_states_per_second():
    facts = _explore_sweep()
    print(f"\nexplorer sweep: {facts['states']} states across "
          f"{facts['scenarios']} scenarios in {facts['wall_s']:.2f} s")
    # The canned sweep is a CI gate; it must stay interactive.
    assert facts["wall_s"] < 30.0
