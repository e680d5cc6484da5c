"""CPU time of the program's worker processes, sampled from ``/proc``.

The replay workers exit inside the measured call, so what each used can
only be read while it runs.  In the traced run a thread of the benchmark
reads ``/proc/<pid>/stat`` of every ``multiprocessing`` child four times a
second (the program names them ``replay-distributor-N`` and
``replay-querier-N``) and keeps the last value by name: at most one period
short of the truth.  Nothing in the program is touched; listing the
children reaps finished ones a moment early, which is why the untraced
runs do not sample.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Dict, List

_TICK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """utime + stime of ``pid``, all its threads, in 10 ms ticks."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


class ProcessSampler(threading.Thread):
    def __init__(self, period: float = 0.25):
        super().__init__(daemon=True, name="bench-process-sampler")
        self.period = period
        self.cpu_s: Dict[str, float] = {}
        self._stopping = threading.Event()

    def run(self) -> None:
        while not self._stopping.wait(self.period):
            for process in multiprocessing.active_children():
                try:
                    self.cpu_s[process.name] = process_cpu_s(process.pid)
                except (OSError, IndexError, ValueError, TypeError):
                    pass    # gone between the listing and the read

    def stop(self) -> None:
        self._stopping.set()
        self.join()

    def role(self, prefix: str) -> List[float]:
        return [cpu for name, cpu in self.cpu_s.items()
                if name.startswith(prefix)]
