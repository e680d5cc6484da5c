"""Differential oracles: one workload, two configurations, zero diffs.

The repo grew three one-off differential suites (cached==uncached
wire-cache, instrumented==bare telemetry, defended==undefended overload
at low load).  Each hand-rolled the same shape: run a workload twice,
collect what each side produced, assert equality.  This module is that
shape as a library, so new subsystems get a differential harness by
writing two runner callables instead of a bespoke test file — and the
fuzz driver can aim *generated* workloads at any registered oracle.

Vocabulary:

* an :class:`Observation` is what one configuration produced — ordered
  response wires, a dict of scalar facts (``ReplayResult`` statistics,
  server stats), and a metrics snapshot;
* a *runner* is ``Callable[[workload], Observation]``;
* an :class:`Oracle` owns a baseline runner, a candidate runner, and
  optional normalizers; :meth:`Oracle.run` executes both and returns
  an :class:`OracleReport` listing every divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Wire = bytes


def zero_msg_id(wire: bytes) -> bytes:
    """Mask the 2-byte message ID (differs by construction in some
    workloads, e.g. cache-key probes reusing a query at two IDs)."""
    return b"\x00\x00" + wire[2:]


@dataclass
class Observation:
    """Everything one configuration produced for a workload."""

    wires: Tuple[Wire, ...] = ()
    facts: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def capture(cls, wires: Sequence[Wire] = (),
                facts: Optional[Dict[str, Any]] = None,
                registry=None,
                ignore_metrics: Sequence[str] = ()) -> "Observation":
        metrics: Dict[str, Any] = {}
        if registry is not None:
            state = registry.to_state()
            metrics = {
                section: {name: value
                          for name, value in entries.items()
                          if not any(name.startswith(prefix)
                                     for prefix in ignore_metrics)}
                for section, entries in state.items()}
        return cls(tuple(wires), dict(facts or {}), metrics)


@dataclass
class Divergence:
    """One observed difference between baseline and candidate."""

    field: str
    baseline: Any
    candidate: Any

    def __str__(self) -> str:
        return (f"{self.field}: baseline={self.baseline!r} "
                f"candidate={self.candidate!r}")


@dataclass
class OracleReport:
    oracle: str
    divergences: List[Divergence]
    baseline: Observation
    candidate: Observation

    @property
    def ok(self) -> bool:
        return not self.divergences

    def describe(self) -> str:
        if self.ok:
            return f"oracle {self.oracle}: no divergence"
        lines = [f"oracle {self.oracle}: "
                 f"{len(self.divergences)} divergence(s)"]
        lines += [f"  {d}" for d in self.divergences[:20]]
        if len(self.divergences) > 20:
            lines.append(f"  ... and {len(self.divergences) - 20} more")
        return "\n".join(lines)

    def raise_if_diverged(self) -> "OracleReport":
        if not self.ok:
            raise AssertionError(self.describe())
        return self


def _preview(wire: bytes) -> str:
    return wire[:32].hex() + ("..." if len(wire) > 32 else "")


def diff_observations(baseline: Observation,
                      candidate: Observation) -> List[Divergence]:
    out: List[Divergence] = []
    if len(baseline.wires) != len(candidate.wires):
        out.append(Divergence("wires.count", len(baseline.wires),
                              len(candidate.wires)))
    for index, (want, got) in enumerate(zip(baseline.wires,
                                            candidate.wires)):
        if want != got:
            out.append(Divergence(f"wires[{index}]", _preview(want),
                                  _preview(got)))
    out += _diff_tree("facts", baseline.facts, candidate.facts)
    out += _diff_tree("metrics", baseline.metrics, candidate.metrics)
    return out


def _diff_tree(prefix: str, want: Any, got: Any) -> List[Divergence]:
    if isinstance(want, dict) and isinstance(got, dict):
        out: List[Divergence] = []
        for key in sorted(set(want) | set(got), key=str):
            label = f"{prefix}.{key}"
            if key not in want:
                out.append(Divergence(label, "<absent>", got[key]))
            elif key not in got:
                out.append(Divergence(label, want[key], "<absent>"))
            else:
                out += _diff_tree(label, want[key], got[key])
        return out
    if want != got:
        return [Divergence(prefix, want, got)]
    return []


class Oracle:
    """Run one workload through two configurations and diff the output.

    ``normalize_wire`` is applied to every wire on both sides before
    comparison (e.g. :func:`zero_msg_id`); ``normalize`` post-processes
    whole observations when a subsystem needs more surgery.
    """

    def __init__(self, name: str,
                 baseline: Callable[[Any], Observation],
                 candidate: Callable[[Any], Observation],
                 normalize_wire: Optional[Callable[[bytes], bytes]] = None,
                 normalize: Optional[
                     Callable[[Observation], Observation]] = None):
        self.name = name
        self.baseline = baseline
        self.candidate = candidate
        self.normalize_wire = normalize_wire
        self.normalize = normalize

    def _observe(self, runner: Callable[[Any], Observation],
                 workload: Any) -> Observation:
        observation = runner(workload)
        if not isinstance(observation, Observation):
            raise TypeError(f"oracle {self.name}: runner returned "
                            f"{type(observation).__name__}, expected "
                            f"Observation")
        if self.normalize_wire is not None:
            observation = Observation(
                tuple(self.normalize_wire(w) for w in observation.wires),
                observation.facts, observation.metrics)
        if self.normalize is not None:
            observation = self.normalize(observation)
        return observation

    def run(self, workload: Any = None) -> OracleReport:
        want = self._observe(self.baseline, workload)
        got = self._observe(self.candidate, workload)
        return OracleReport(self.name, diff_observations(want, got),
                            want, got)

    def check(self, workload: Any = None) -> OracleReport:
        return self.run(workload).raise_if_diverged()
