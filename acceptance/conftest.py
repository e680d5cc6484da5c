"""Shared configuration for the acceptance checks.

Each paper check regenerates one of the paper's tables or figures at
the ``BENCH`` scale (a client-sampled workload — see DESIGN.md),
prints the reproduced table next to the paper's claims, and asserts
the qualitative shape the paper reports.  The subsystem checks hold a
subsystem to its acceptance bar (hot-path speed-up, overload goodput,
telemetry budget, sharded scale-out, crash recovery, harness speed).

Run with::

    PYTHONPATH=src python -m pytest -q acceptance/
"""

import pytest

from repro.experiments.common import Scale

# Large enough for stable shapes, small enough for a laptop run.
BENCH = Scale("bench", rate=80.0, duration=60.0, monitor_period=10.0)

# Footprint sweeps need TIME_WAIT (60 s lifetime) to saturate.
BENCH_LONG = Scale("bench-long", rate=60.0, duration=150.0,
                   monitor_period=30.0)


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH


@pytest.fixture(scope="session")
def bench_scale_long():
    return BENCH_LONG
