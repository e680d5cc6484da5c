"""Send-time error from server-side capture (the paper's Fig 6 method).

The sink records, per record index, when the query first arrived and which
client socket (UDP source port) sent it.  Each querier process latches the
time-sync message at a slightly different instant, so one global anchor
would fold that constant offset into every error; fitting one anchor per
sending socket removes it and leaves the scatter a user would see.

Pure functions over plain sequences; ``arrival == 0.0`` means "never
arrived".
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

# A send within this distance of its due time counts as on time.
TOLERANCE_S = 0.0025


def fit_anchors(arrivals: Sequence[float], ports: Sequence[int],
                timestamps: Sequence[float]) -> Dict[int, float]:
    """``anchor(port)`` = median of (arrival - timestamp) over that socket."""
    offsets: Dict[int, List[float]] = {}
    for arrival, port, timestamp in zip(arrivals, ports, timestamps):
        if arrival > 0.0:
            offsets.setdefault(port, []).append(arrival - timestamp)
    return {port: statistics.median(values)
            for port, values in offsets.items()}


def send_errors(arrivals: Sequence[float], ports: Sequence[int],
                timestamps: Sequence[float],
                anchors: Dict[int, float]) -> List[float]:
    """arrival - anchor(port) - timestamp, for the records that arrived."""
    return [arrival - anchors[port] - timestamp
            for arrival, port, timestamp in zip(arrivals, ports, timestamps)
            if arrival > 0.0]


def on_time_count(errors: Sequence[float],
                  tolerance: float = TOLERANCE_S) -> int:
    """How many errors lie within ``tolerance``.

    Divide by the number of records in the trace, not by ``len(errors)``:
    a record that never arrived has no error and so misses.
    """
    return sum(1 for error in errors if -tolerance <= error <= tolerance)


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[rank]
