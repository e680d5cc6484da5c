"""Boundary spans: timing wrappers around the program's public callables.

The traced run installs a wrapper at class level around each public
function that marks a layer boundary, runs a workload, and removes the
wrappers again.  Every call becomes one span (layer, start, end, parent);
spans stay in memory and are written out after the window.  A layer's self
time is the duration of its spans minus the part their child spans cover.
Nothing under ``src/`` is edited, so a boundary that has no public callable
cannot be measured and is listed as unmeasured in the README.
"""

from __future__ import annotations

from array import array
from time import perf_counter
from typing import Iterable, Iterator, List, Sequence, Tuple


class SpanRecorder:
    """Spans as four parallel arrays; ``parent`` is an index or -1."""

    def __init__(self, layers: Sequence[str]):
        self.layers = list(layers)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._current = -1

    def enter(self, layer_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self._current)
        self.end.append(0.0)
        self._current = index
        self.start.append(perf_counter())
        return index

    def exit(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._current = self.parent[index]

    def wrap(self, function, layer_id: int):
        """``function`` with a span of ``layer_id`` around every call."""
        enter, exit_ = self.enter, self.exit

        def spanned(*args, **kwargs):
            index = enter(layer_id)
            try:
                return function(*args, **kwargs)
            finally:
                exit_(index)
        return spanned

    def wrap_by(self, function, choose):
        """Like :meth:`wrap`, the layer chosen per call from ``self``."""
        enter, exit_ = self.enter, self.exit

        def spanned(self_, *args, **kwargs):
            index = enter(choose(self_))
            try:
                return function(self_, *args, **kwargs)
            finally:
                exit_(index)
        return spanned

    def iterate(self, items: Iterable, layer_id: int) -> Iterator:
        """``items`` with one span per element pulled from it."""
        iterator = iter(items)
        while True:
            index = self.enter(layer_id)
            try:
                item = next(iterator)
            except StopIteration:
                self.exit(index)
                return
            self.exit(index)
            yield item

    def write(self, path: str) -> None:
        """One line per span: layer, parent index, start, end."""
        with open(path, "w") as handle:
            handle.write("layer\tparent\tstart_s\tend_s\n")
            for layer_id, parent, start, end in zip(
                    self.layer, self.parent, self.start, self.end):
                handle.write(f"{self.layers[layer_id]}\t{parent}\t"
                             f"{start:.7f}\t{end:.7f}\n")


def self_times(layer: Sequence[int], parent: Sequence[int],
               start: Sequence[float], end: Sequence[float],
               layer_count: int) -> Tuple[List[float], List[int]]:
    """Per-layer (self seconds, calls).

    Each span adds its duration to its own layer and takes it away from
    its parent's, so the self times of a tree sum to its root's duration.
    """
    seconds = [0.0] * layer_count
    calls = [0] * layer_count
    for index, layer_id in enumerate(layer):
        duration = end[index] - start[index]
        seconds[layer_id] += duration
        calls[layer_id] += 1
        above = parent[index]
        if above >= 0:
            seconds[layer[above]] -= duration
    return seconds, calls


class Installed:
    """Class attributes replaced by wrappers, restorable."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def replace(self, owner: type, name: str, make) -> None:
        """Set ``owner.name`` to ``make(plain function)``, keeping
        classmethod / staticmethod descriptors as they were."""
        original = owner.__dict__[name]
        self._saved.append((owner, name, original))
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
