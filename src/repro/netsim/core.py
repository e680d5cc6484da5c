"""Discrete-event simulation core.

The paper's experiments run on a DETER testbed in real time; here they run
on a simulated clock.  :class:`EventLoop` is a minimal, deterministic
event scheduler: events fire in (time, sequence) order, so two events
scheduled for the same instant fire in scheduling order, which keeps
replays reproducible (§2.1 "repeatability of experiments").

Cancellation is lazy: a cancelled timer stays in the heap until it
surfaces, but a live-event counter keeps ``pending_events()`` O(1) and a
compaction pass rebuilds the heap when cancelled entries dominate it —
retry timers (which are nearly always cancelled by the response arriving
first) would otherwise grow the heap without bound on long replays.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterable, List, Optional, Tuple

# Compact the heap when it is at least this large and more than half of
# its entries are cancelled.  Small heaps are never worth rebuilding.
COMPACTION_MIN_SIZE = 512


class SimulationError(RuntimeError):
    """Raised on scheduler misuse (e.g. scheduling in the past)."""


class Timer:
    """Handle for a scheduled event; supports cancellation."""

    __slots__ = ("when", "callback", "args", "cancelled", "_loop")

    def __init__(self, when: float, callback: Callable[..., None],
                 args: Tuple[Any, ...],
                 loop: Optional["EventLoop"] = None):
        self.when = when
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self._loop is not None:
                self._loop._note_cancelled()


class EventLoop:
    """A deterministic discrete-event scheduler."""

    def __init__(self, start_time: float = 0.0):
        # The simulated clock: read everywhere, advanced only by the loop.
        self.now = start_time
        self._queue: List[Tuple[float, int, Timer]] = []
        self._sequence = itertools.count()
        self._running = False
        self._live = 0           # scheduled-and-not-cancelled entries
        self.events_processed = 0

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> Timer:
        if when < self.now - 1e-12:
            raise SimulationError(
                f"cannot schedule at {when} before now {self.now}")
        timer = Timer(max(when, self.now), callback, args, self)
        heapq.heappush(self._queue, (timer.when, next(self._sequence), timer))
        self._live += 1
        return timer

    def call_at_many(self, entries: Iterable[
            Tuple[float, Callable[..., None], Tuple[Any, ...]]]
            ) -> List[Timer]:
        """Schedule a batch of ``(when, callback, args)`` entries at once.

        Semantically identical to one :meth:`call_at` per entry (same
        FIFO ordering for equal times), but a large batch is appended and
        heapified in one O(n + m) pass instead of m O(log n) pushes —
        the replay engine's query-injection loop schedules tens of
        thousands of sends up front and dominates setup time otherwise.
        """
        timers: List[Timer] = []
        additions: List[Tuple[float, int, Timer]] = []
        for when, callback, args in entries:
            if when < self.now - 1e-12:
                raise SimulationError(
                    f"cannot schedule at {when} before now {self.now}")
            timer = Timer(max(when, self.now), callback, args, self)
            additions.append((timer.when, next(self._sequence), timer))
            timers.append(timer)
        if len(additions) > len(self._queue):
            self._queue.extend(additions)
            heapq.heapify(self._queue)
        else:
            for entry in additions:
                heapq.heappush(self._queue, entry)
        self._live += len(timers)
        return timers

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> Timer:
        return self.call_at(self.now + max(delay, 0.0), callback, *args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> Timer:
        return self.call_at(self.now, callback, *args)

    # -- cancellation accounting -----------------------------------------

    def _note_cancelled(self) -> None:
        self._live -= 1
        queue = self._queue
        if (len(queue) >= COMPACTION_MIN_SIZE
                and self._live * 2 < len(queue)):
            self._queue = [entry for entry in queue
                           if not entry[2].cancelled]
            heapq.heapify(self._queue)

    # -- running -----------------------------------------------------------

    def run_until(self, deadline: float) -> None:
        """Process events with time <= deadline, then set now = deadline."""
        self._running = True
        try:
            while self._queue and self._queue[0][0] <= deadline:
                when, _seq, timer = heapq.heappop(self._queue)
                if timer.cancelled:
                    continue
                self._live -= 1
                timer._loop = None  # cancel() after firing must not re-count
                self.now = when
                timer.callback(*timer.args)
                self.events_processed += 1
            self.now = max(self.now, deadline)
        finally:
            self._running = False

    def run(self, max_time: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the queue; returns the number of events processed."""
        self._running = True
        processed = 0
        try:
            while self._queue:
                when, _seq, timer = self._queue[0]
                if max_time is not None and when > max_time:
                    break
                heapq.heappop(self._queue)
                if timer.cancelled:
                    continue
                self._live -= 1
                timer._loop = None  # cancel() after firing must not re-count
                self.now = when
                timer.callback(*timer.args)
                processed += 1
                self.events_processed += 1
                if max_events is not None and processed >= max_events:
                    break
            if max_time is not None:
                self.now = max(self.now, max_time)
        finally:
            self._running = False
        return processed

    def pending_events(self) -> int:
        return self._live

    def heap_size(self) -> int:
        """Entries physically in the heap, cancelled ones included."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"EventLoop(now={self.now:.6f}, pending={self.pending_events()})"
