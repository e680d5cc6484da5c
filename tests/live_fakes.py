"""Fakes that run a live querier or distributor with no process tree,
no real socket and, with a :class:`FakeClock`, no wall clock: every
count a test reads off them is the one the script implies."""

import collections
import contextlib
import functools
import threading
import time
import types
from unittest import mock

from repro.replay import distributed
from repro.replay.distributed import _LiveQuerier
from repro.replay.protocol import MSG_END
from repro.replay.recovery import QuerierLedger
from repro.replay.result import ReplayResult


class FakeClock:
    """``monotonic``/``sleep`` for ``distributed.time``: time passes only
    in a sleep, which ends exactly when asked.  Tests keep every instant
    a multiple of 2**-14 s so the sums are exact in binary."""

    def __init__(self, now=1024.0):
        self.now = now
        self.sleeps = 0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps += 1
        self.now += seconds


class ScriptedInbound:
    """Stands in for the distributor link: hands out scripted frames.
    The string ``"quiet"`` is one wait that saw nothing arrive; with a
    ``clock``, a float is the instant the frames behind it arrive."""

    def __init__(self, script, clock=None):
        self.script = collections.deque(script)
        self.clock = clock
        self.received = 0
        self.blocks = 0

    def _head(self):
        """The script's next item, past any arrival instant now due."""
        while self.script and isinstance(self.script[0], float) \
                and self.script[0] <= self.clock.now:
            self.script.popleft()
        return self.script[0] if self.script else None

    def has_frame(self):
        return isinstance(self._head(), tuple)

    def receive(self):
        self.received += 1
        return self.script.popleft() if self._head() is not None else None

    def receive_block(self, limit):
        """The frames already in, up to ``limit``; at least one read."""
        self.blocks += 1
        block = []
        while len(block) < limit and (not block or self.has_frame()):
            message = self.receive()
            if message is None:
                break
            block.append(message)
        return block

    def messages(self):
        while (message := self.receive()) is not None:
            yield message
            if message[0] == MSG_END:
                return

    def readable_in(self):
        """Seconds until a wait on this link returns (None: it won't)."""
        head = self._head()
        if head == "quiet":
            self.script.popleft()
            return None
        if isinstance(head, float):
            return head - self.clock.now
        return 0.0          # a frame, or the EOF of a spent script

    def close(self):
        pass


class LoopbackSocket:
    """Stands in for the UDP socket: echoes every query, readable once
    ``lag`` further queries have been sent and, with a ``clock``,
    ``delay`` seconds have passed.  ``lag=None`` is a server that never
    answers.  ``peak`` is the most queries ever in flight unread."""

    def __init__(self, lag, clock=None, delay=0.0):
        self.lag = lag
        self.clock = clock
        self.delay = delay
        self.sent = 0
        self.last = None        # the last query sent
        self.empty_reads = 0
        self.peak = 0
        self._echoes = collections.deque()

    def _now(self):
        return self.clock.now if self.clock is not None else 0.0

    def send(self, wire):
        self.sent += 1
        self.last = wire
        if self.lag is not None:
            self.echo(wire, self.sent + self.lag)

    def echo(self, wire, after=0):
        """Queue ``wire`` as an answer (QR set), readable once ``after``
        queries were sent and ``delay`` has passed: at once by default,
        whatever ``lag`` is."""
        reply = bytearray(wire)
        reply[2] |= 0x80
        self._echoes.append((after, self._now() + self.delay, bytes(reply)))
        self.peak = max(self.peak, len(self._echoes))

    def readable_in(self):
        if not self._echoes or self._echoes[0][0] > self.sent:
            return None
        return max(self._echoes[0][1] - self._now(), 0.0)

    def recv(self, _size):
        if self.readable_in() != 0.0:
            self.empty_reads += 1
            raise BlockingIOError
        return self._echoes.popleft()[2]

    def close(self):
        pass


def scripted_select(clock=None, observe=None):
    """The querier's one blocking call (``select.select``), answered
    from whichever of the two fakes it watches."""
    sleep = clock.sleep if clock is not None \
        else lambda seconds: time.sleep(min(seconds, 0.01))

    def select(watched, _writers, _errors, timeout):
        if observe is not None:
            observe(watched)
        delays = [fake.readable_in() for fake in watched]
        pause = min([delay for delay in delays if delay is not None]
                    + [timeout])
        if pause > 0.0:
            sleep(pause)
        return [fake for fake, delay in zip(watched, delays)
                if delay is not None and delay <= pause], [], []

    return types.SimpleNamespace(select=select)


def fake_querier(script=(), lag=0, clock=None, delay=0.0, aggregate=False):
    """A _LiveQuerier on a :class:`ScriptedInbound` link and a
    :class:`LoopbackSocket`; returns both."""
    result = ReplayResult("querier-0", aggregate=aggregate)
    querier = _LiveQuerier(0, ScriptedInbound(script, clock),
                           ("127.0.0.1", 9), result, threading.Lock())
    querier._sock.close()
    querier._sock = wire = LoopbackSocket(lag, clock, delay)
    return querier, wire


def drive_querier(script, policy=None, lag=0, clock=None, delay=0.0,
                  observe=None, aggregate=False):
    """Run a _LiveQuerier over a script; returns it, its fake UDP
    socket and the CHECKPOINT ``result`` members it emitted.  A
    checkpoint ``policy`` paces its ledger and attaches a sink (list
    mode); with a ``clock`` the querier runs on fake time throughout."""
    with contextlib.ExitStack() as stack:
        if clock is not None:
            stack.enter_context(
                mock.patch.object(distributed, "time", clock))
        querier, wire = fake_querier(script, lag, clock, delay, aggregate)
        frames = []
        if policy is not None:
            querier.ledger = QuerierLedger(querier.result.sent,
                                           distributed.time.monotonic(),
                                           policy)
            querier.checkpoint_sink = frames.append
        stack.enter_context(mock.patch.object(
            distributed, "select", scripted_select(
                clock, observe and functools.partial(observe, querier))))
        querier.run()
    return querier, wire, frames
