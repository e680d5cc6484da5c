"""Overload control: admission queues and Response Rate Limiting.

The paper's headline use case is pushing emulated servers *past* their
comfort zone (all-TCP memory, DoS replay, 14x rate scaling, §1/§5), but
an overloaded server that degrades silently makes those what-if results
uninterpretable: was legitimate traffic lost to the attack, or to an
unbounded queue nobody measured?  This module is the degradation layer
real authoritative operators run:

* **admission control** — a bounded work queue in front of the engine
  with a finite service rate (a stand-in for worker processes that can
  only parse-and-answer so many queries per second).  When the queue is
  full the configured policy decides *how* to degrade: ``drop-oldest``
  (head drop, favouring fresh queries whose clients are still waiting),
  ``drop-newest`` (tail drop, the kernel default), or ``servfail-shed``
  (answer the overflow query immediately with a minimal SERVFAIL so the
  client learns the truth instead of timing out);

* **Response Rate Limiting (RRL)** — the BIND/NSD defense against
  spoofed-source floods: a token bucket per (client subnet, qname,
  rcode) key limits how often the same answer goes to the same subnet.
  Over-limit responses are dropped, except that every ``slip``-th one is
  sent as a minimal truncated (TC=1) stub — a real client retries over
  TCP, a spoofed victim receives almost nothing — and every ``leak``-th
  one is let through in full.  Keys currently in debt also shed matching
  *queries* at admission time, so a flood stops consuming queue slots,
  not just response bandwidth.

Every knob defaults to *off*; a ``HostedDnsServer`` without an
:class:`OverloadConfig` (or with the default one) produces byte-identical
responses to the pre-overload code — proven by a differential test.  All
drop/shed/limit decisions flow through a
:class:`~repro.telemetry.MetricsRegistry`
under the ``overload.*`` and ``rrl.*`` namespaces.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Optional, Tuple

from ..dns import Flag, Message, Rcode
from ..telemetry.metrics import MetricsRegistry

QUEUE_POLICIES = ("drop-oldest", "drop-newest", "servfail-shed")
RRL_PREFIX_LEN = 24     # RRL's client aggregation prefix


@dataclass
class RrlConfig:
    """Response-rate-limiting knobs (BIND ``rate-limit`` analogue).

    ``responses_per_second`` is the sustained refill rate of each key's
    token bucket; ``window`` scales the burst a fresh key may send
    before limiting kicks in (``burst = responses_per_second * window``).
    ``slip`` sends every Nth otherwise-dropped response as a minimal
    TC=1 stub (0 = never slip); ``leak`` lets every Nth otherwise-dropped
    response through unchanged (0 = never leak).  Clients aggregate into
    /24 subnets (``RRL_PREFIX_LEN``, BIND's default).  ``early_drop``
    sheds queries whose (subnet, qname) key is currently in debt
    *before* they consume a queue slot; the suppression expires
    ``suppression_window`` seconds after the flood stops.  RRL applies
    to UDP only — TCP clients proved their address with a handshake,
    exactly like BIND.
    """

    responses_per_second: float = 5.0
    window: float = 2.0
    slip: int = 2
    leak: int = 0
    early_drop: bool = True
    suppression_window: float = 1.0
    max_table_size: int = 100_000


@dataclass
class OverloadConfig:
    """Every overload-control knob; all defaults mean "disabled".

    ``service_rate`` models the server's finite work capacity (queries
    per second drained from the admission queue); ``queue_limit`` bounds
    how many queries may wait.  With both unset, queries are served
    inline exactly as before.
    """

    queue_limit: Optional[int] = None
    queue_policy: str = "drop-oldest"
    service_rate: Optional[float] = None
    rrl: Optional[RrlConfig] = None

    def enabled(self) -> bool:
        return (self.queue_limit is not None
                or self.service_rate is not None
                or self.rrl is not None)

    def validate(self) -> None:
        if self.queue_policy not in QUEUE_POLICIES:
            raise ValueError(f"unknown queue policy {self.queue_policy!r}; "
                             f"expected one of {QUEUE_POLICIES}")


class TokenBucket:
    """A continuous-refill token bucket on the simulated clock."""

    __slots__ = ("rate", "burst", "tokens", "last", "drops")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.last = now
        self.drops = 0  # consecutive over-limit decisions (slip/leak cycle)

    def take(self, now: float) -> bool:
        """Consume one token if available; refill by elapsed time."""
        if now > self.last:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.last) * self.rate)
            self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


def subnet_of(source: str, prefix_len: int) -> str:
    """Mask an IPv4 source down to its aggregation subnet."""
    if prefix_len <= 0:
        return "0.0.0.0/0"
    try:
        packed = 0
        for part in source.split("."):
            packed = (packed << 8) | (int(part) & 0xFF)
    except ValueError:
        return source  # non-IPv4 sources rate-limit individually
    mask = (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF
    masked = packed & mask
    return (f"{masked >> 24}.{(masked >> 16) & 0xFF}."
            f"{(masked >> 8) & 0xFF}.{masked & 0xFF}/{prefix_len}")


class ResponseRateLimiter:
    """Token-bucket RRL keyed on (client subnet, qname, rcode)."""

    ALLOW = "allow"
    DROP = "drop"
    SLIP = "slip"
    LEAK = "leak"

    def __init__(self, config: RrlConfig, perf: MetricsRegistry):
        self.config = config
        self.perf = perf
        self._buckets: "OrderedDict[Tuple[str, str, int], TokenBucket]" = \
            OrderedDict()
        # (subnet, qname) -> suppression expiry: queries matching a key
        # in debt are shed at admission until the flood pauses.
        self._debt: "OrderedDict[Tuple[str, str], float]" = OrderedDict()

    def subnet(self, source: str) -> str:
        return subnet_of(source, RRL_PREFIX_LEN)

    # -- admission cooperation ------------------------------------------

    def should_early_drop(self, source: str, qname_key: str,
                          now: float) -> bool:
        """Shed a query whose response key is currently over limit."""
        if not self.config.early_drop or not self._debt:
            return False
        key = (self.subnet(source), qname_key)
        expiry = self._debt.get(key)
        if expiry is None:
            return False
        if expiry < now:
            del self._debt[key]
            return False
        # Refresh while the flood persists; expires once it pauses.
        self._debt[key] = now + self.config.suppression_window
        self.perf.incr("rrl.early_drops")
        return True

    # -- response decision ----------------------------------------------

    def decide(self, source: str, qname_key: str, rcode: int,
               now: float) -> str:
        config = self.config
        key = (self.subnet(source), qname_key, rcode)
        bucket = self._buckets.get(key)
        if bucket is None:
            burst = max(1.0, config.responses_per_second * config.window)
            bucket = TokenBucket(config.responses_per_second, burst, now)
            self._buckets[key] = bucket
            self._prune()
        else:
            self._buckets.move_to_end(key)
        if bucket.take(now):
            bucket.drops = 0
            self.perf.incr("rrl.allowed")
            return self.ALLOW
        bucket.drops += 1
        self._debt[(key[0], qname_key)] = now + config.suppression_window
        if config.leak and bucket.drops % config.leak == 0:
            self.perf.incr("rrl.leaked")
            return self.LEAK
        if config.slip and bucket.drops % config.slip == 0:
            self.perf.incr("rrl.slipped")
            return self.SLIP
        self.perf.incr("rrl.dropped")
        return self.DROP

    def _prune(self) -> None:
        while len(self._buckets) > self.config.max_table_size:
            self._buckets.popitem(last=False)
        while len(self._debt) > self.config.max_table_size:
            self._debt.popitem(last=False)

    def table_size(self) -> int:
        return len(self._buckets)


class AdmissionQueue:
    """A bounded work queue drained at a finite service rate.

    Work items are zero-argument callables (the engine dispatch for one
    decoded query).  With ``service_rate`` unset the queue never builds
    (the simulated server is infinitely fast) and items execute inline;
    with it set, one item is served every ``1/service_rate`` seconds and
    the ``queue_limit``/policy pair decides what happens when arrivals
    outpace service.
    """

    def __init__(self, loop, limit: Optional[int], policy: str,
                 service_rate: Optional[float], perf: MetricsRegistry,
                 telemetry=None):
        self.loop = loop
        self.limit = limit
        self.policy = policy
        self.service_rate = service_rate
        self.perf = perf
        self.telemetry = telemetry
        self._queue: Deque[Tuple[float, Callable[[], None],
                                 Optional[Callable[[], None]]]] = deque()
        self._draining = False
        self.peak_depth = 0

    def submit(self, execute: Callable[[], None],
               shed: Callable[[], None],
               on_drop: Optional[Callable[[], None]] = None) -> None:
        if self.service_rate is None:
            self.perf.incr("overload.served")
            execute()
            return
        if self.limit is not None and len(self._queue) >= self.limit:
            if self.policy == "drop-newest":
                self.perf.incr("overload.dropped_newest")
                if on_drop is not None:
                    on_drop()
                return
            if self.policy == "servfail-shed":
                self.perf.incr("overload.shed_servfail")
                shed()
                return
            # drop-oldest: evict the head to make room.
            _enqueued, _evicted, evicted_drop = self._queue.popleft()
            self.perf.incr("overload.dropped_oldest")
            if evicted_drop is not None:
                evicted_drop()
        self._queue.append((self.loop.now, execute, on_drop))
        self.perf.incr("overload.enqueued")
        if len(self._queue) > self.peak_depth:
            self.peak_depth = len(self._queue)
            self.perf.set_gauge("overload.peak_queue_depth", self.peak_depth)
        if not self._draining:
            self._draining = True
            self.loop.call_later(1.0 / self.service_rate, self._drain)

    def _drain(self) -> None:
        if not self._queue:
            self._draining = False
            return
        enqueued_at, execute, _on_drop = self._queue.popleft()
        self.perf.incr("overload.served")
        telemetry = self.telemetry
        if telemetry is not None and telemetry.config.metrics:
            telemetry.metrics.observe("overload.queue_wait_s",
                                      self.loop.now - enqueued_at)
        execute()
        if self._queue:
            self.loop.call_later(1.0 / self.service_rate, self._drain)
        else:
            self._draining = False

    def depth(self) -> int:
        return len(self._queue)


def minimal_wire(query: Message, rcode: Rcode = Rcode.NOERROR,
                 tc: bool = False) -> bytes:
    """A minimal (header + question) response for sheds and RRL slips."""
    response = Message.make_response(query, rcode=rcode)
    if tc:
        response.set_flag(Flag.TC)
    return response.to_wire()


class OverloadControl:
    """The per-server pipeline: early drop -> admission queue -> RRL.

    ``HostedDnsServer`` owns one of these when an enabled
    :class:`OverloadConfig` is passed; with no config the hosting layer
    never calls in here, keeping the defaults-off path byte-identical.
    """

    def __init__(self, config: OverloadConfig, loop,
                 perf: MetricsRegistry, telemetry=None):
        config.validate()
        self.config = config
        self.loop = loop
        self.perf = perf
        self.telemetry = telemetry
        self.queue = AdmissionQueue(
            loop, config.queue_limit, config.queue_policy,
            config.service_rate, perf, telemetry=telemetry) \
            if (config.queue_limit is not None
                or config.service_rate is not None) else None
        self.rrl = ResponseRateLimiter(config.rrl, perf) \
            if config.rrl is not None else None

    @staticmethod
    def _qname_key(query: Message) -> str:
        if not query.question:
            return "-"
        return query.question[0].name.to_text().lower()

    # -- admission -------------------------------------------------------

    def admit(self, query: Message, source: str, transport: str,
              execute: Callable[[], None],
              shed: Callable[[], None],
              on_drop: Optional[Callable[[], None]] = None) -> None:
        """Run one decoded query through the overload pipeline.

        ``on_drop`` is an accounting hook invoked for every query that
        is silently discarded (early drop or a queue drop policy) — the
        hosting layer uses it to charge the reduced shed CPU cost.
        """
        self.perf.incr("overload.arrived")
        if (self.rrl is not None and transport == "udp"
                and self.rrl.should_early_drop(
                    source, self._qname_key(query), self.loop.now)):
            if on_drop is not None:
                on_drop()
            return
        if self.queue is not None:
            self.queue.submit(execute, shed, on_drop)
        else:
            # RRL-only configuration: no queue in front of the engine,
            # but the query still has to land in a terminal counter or
            # the conservation identity breaks.
            self.perf.incr("overload.served")
            execute()

    # -- conservation ----------------------------------------------------

    def conservation_delta(self) -> int:
        """``arrived - (terminal outcomes + still queued)``; 0 when sound.

        Every query that enters :meth:`admit` must end in exactly one
        terminal counter — served, RRL early drop, one of the queue drop
        policies, or a SERVFAIL shed — or still be waiting in the
        admission queue.  Anything else is accounting drift: a query the
        experiment lost without measuring it, exactly the silent
        degradation this module exists to prevent.
        """
        count = self.perf.count
        accounted = (count("overload.served")
                     + count("rrl.early_drops")
                     + count("overload.dropped_oldest")
                     + count("overload.dropped_newest")
                     + count("overload.shed_servfail"))
        if self.queue is not None:
            accounted += self.queue.depth()
        return count("overload.arrived") - accounted

    def check_conservation(self) -> int:
        """Publish the conservation delta gauge and fail loudly on drift."""
        delta = self.conservation_delta()
        self.perf.set_gauge("overload.conservation_delta", delta)
        if delta:
            raise AssertionError(
                f"overload counter conservation violated: "
                f"{delta:+d} queries unaccounted for "
                f"(arrived={self.perf.count('overload.arrived')})")
        return delta

    # -- response stage --------------------------------------------------

    def filter_response(self, query: Message, source: str, transport: str,
                        wire: bytes) -> Optional[bytes]:
        """Apply RRL to an encoded response; None means "do not send"."""
        if self.rrl is None or transport != "udp" or len(wire) < 4:
            return wire
        rcode = wire[3] & 0x0F
        verdict = self.rrl.decide(source, self._qname_key(query), rcode,
                                  self.loop.now)
        if self.telemetry is not None \
                and verdict != ResponseRateLimiter.ALLOW:
            self.telemetry.server_event(wire, f"server.rrl_{verdict}")
        if verdict == ResponseRateLimiter.DROP:
            return None
        if verdict == ResponseRateLimiter.SLIP:
            return minimal_wire(query, tc=True)
        return wire  # allow or leak
