"""Seeded adversarial input generators for the verification harness.

Everything here is deterministic in the seed: the fuzz driver, the CI
job, and a developer reproducing a corpus case all regenerate the same
byte streams from ``--seed N``.  Four input families:

* **hostile DNS wire messages** — structured mutations of valid
  messages (truncation, bit flips, lying RDLENGTH/section counts,
  compression-pointer abuse, over-long rdata) plus a fixed seed corpus
  of the crafted cases that found real decoder escapes;
* **TCP schedules** — client action scripts (connect, send sized
  chunks, close/abort at chosen points) paired with fault windows, for
  driving the simulated stack through reorder/duplicate/loss races;
* **replay-protocol control frames** — well-formed frames warped by
  the same mutation battery, aimed at :class:`MessageSocket.receive`;
* **fault plans** — random-but-valid :class:`FaultSpec` schedules.

Naive random bytes almost never get past the header decode; the
mutation battery is built from the *shape* of the protocol so the deep
paths (rdata parsers, name decompression, option loops) actually run.
Hypothesis strategy wrappers are exported when hypothesis is
installed; the generators themselves never require it.
"""

from __future__ import annotations

import random
import struct
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from ..dns import (AAAA, CAA, DNSKEY, DS, MX, NS, NSEC, RRSIG, SOA, SRV,
                   TLSA, TXT, A, Edns, EdnsOption, Message, Name, Question,
                   RR, RRClass, RRType, Rcode)
from ..netsim.faults import FaultPlan, FaultSpec

try:  # pragma: no cover - import guard
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    st = None
    HAVE_HYPOTHESIS = False

QNAMES = ("example.com.", "www.example.com.", "a.b.c.example.com.",
          "x" * 60 + ".example.com.", ".")
QTYPES = (RRType.A, RRType.AAAA, RRType.NS, RRType.SOA, RRType.MX,
          RRType.TXT, RRType.SRV, RRType.DS, RRType.DNSKEY, RRType.RRSIG,
          RRType.NSEC, RRType.TLSA, RRType.CAA)


def _rr(name: str, rdata) -> RR:
    return RR(Name.from_text(name), 300, RRClass.IN, rdata)


def _rdata_samples(rng: random.Random) -> List:
    """One of each supported rdata shape, sized randomly but validly."""
    blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 64)))
    return [
        A(f"192.0.2.{rng.randrange(1, 255)}"),
        AAAA("2001:db8::" + format(rng.randrange(1, 0xFFFF), "x")),
        NS(Name.from_text("ns1.example.com.")),
        MX(rng.randrange(0, 100), Name.from_text("mail.example.com.")),
        SOA(Name.from_text("ns1.example.com."),
            Name.from_text("host.example.com."),
            rng.randrange(1, 1 << 31), 1800, 900, 604800, 86400),
        TXT((b"v=spf1 -all", blob[:32])),
        SRV(1, 2, 53, Name.from_text("dns.example.com.")),
        DS(rng.randrange(1 << 16), 8, 2, blob[:32]),
        DNSKEY(256, 3, 8, blob),
        RRSIG(RRType.A, 8, 2, 300, 1893456000, 1577836800,
              rng.randrange(1 << 16), Name.from_text("example.com."),
              blob),
        NSEC(Name.from_text("next.example.com."),
             (RRType.A, RRType.NS, RRType.RRSIG)),
        TLSA(3, 1, 1, blob[:32]),
        CAA(0, b"issue", b"ca.example.net"),
    ]


def valid_message(rng: random.Random) -> Message:
    """A structurally valid query or response, rdata variety included."""
    qname = Name.from_text(rng.choice(QNAMES))
    qtype = rng.choice(QTYPES)
    edns = None
    if rng.random() < 0.5:
        options = [EdnsOption(rng.randrange(1 << 16),
                              bytes(rng.randrange(256)
                                    for _ in range(rng.randrange(0, 16))))
                   for _ in range(rng.randrange(0, 3))]
        edns = Edns(payload_size=rng.choice((512, 1232, 4096)),
                    dnssec_ok=rng.random() < 0.5, options=options)
    query = Message.make_query(qname, qtype, msg_id=rng.randrange(1 << 16),
                               edns=edns)
    if rng.random() < 0.5:
        return query
    response = Message.make_response(
        query, rcode=rng.choice((Rcode.NOERROR, Rcode.NXDOMAIN,
                                 Rcode.SERVFAIL)))
    samples = _rdata_samples(rng)
    for section in (response.answer, response.authority,
                    response.additional):
        for _ in range(rng.randrange(0, 3)):
            section.append(_rr(rng.choice(QNAMES[:3]), rng.choice(samples)))
    return response


# -- wire mutations ---------------------------------------------------------

def _truncate(rng: random.Random, wire: bytes) -> bytes:
    if len(wire) <= 1:
        return b""
    return wire[:rng.randrange(1, len(wire))]

def _flip_bits(rng: random.Random, wire: bytes) -> bytes:
    data = bytearray(wire)
    for _ in range(rng.randrange(1, 4) if data else 0):
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
    return bytes(data)

def _lie_counts(rng: random.Random, wire: bytes) -> bytes:
    """Inflate one of the four section counts in the header."""
    if len(wire) < 12:
        return wire + b"\x00" * (12 - len(wire))
    data = bytearray(wire)
    field = 4 + 2 * rng.randrange(4)
    struct.pack_into("!H", data, field, rng.choice((1, 7, 0xFFFF)))
    return bytes(data)

def _lie_rdlength(rng: random.Random, wire: bytes) -> bytes:
    """Rewrite a plausible RDLENGTH-shaped u16 somewhere past the header."""
    if len(wire) < 14:
        return wire
    data = bytearray(wire)
    offset = rng.randrange(12, len(data) - 1)
    struct.pack_into("!H", data, offset,
                     rng.choice((0, 1, 2, 5, len(wire), 0xFFFF)))
    return bytes(data)

def _pointer_abuse(rng: random.Random, wire: bytes) -> bytes:
    """Splice a compression pointer: self-loop, forward, or past-end."""
    if len(wire) < 14:
        return wire
    data = bytearray(wire)
    offset = rng.randrange(12, len(data) - 1)
    target = rng.choice((offset, offset + 1, len(data) - 1, 0x3FFF,
                         rng.randrange(len(data))))
    struct.pack_into("!H", data, offset, 0xC000 | (target & 0x3FFF))
    return bytes(data)

def _overlong_tail(rng: random.Random, wire: bytes) -> bytes:
    return wire + bytes(rng.randrange(256)
                        for _ in range(rng.randrange(1, 64)))

def _splice(rng: random.Random, wire: bytes) -> bytes:
    """Crossover: replace a slice with a slice from another message."""
    other = valid_message(rng).to_wire()
    if len(wire) < 4 or len(other) < 4:
        return wire + other
    at = rng.randrange(2, len(wire))
    frm = rng.randrange(0, len(other) - 1)
    return wire[:at] + other[frm:frm + rng.randrange(1, 32)] \
        + wire[min(at + 8, len(wire)):]


WIRE_MUTATIONS: Tuple[Callable[[random.Random, bytes], bytes], ...] = (
    _truncate, _flip_bits, _lie_counts, _lie_rdlength, _pointer_abuse,
    _overlong_tail, _splice)


def _header(qd=0, an=0, ns=0, ar=0, flags=0x8000) -> bytes:
    return struct.pack("!6H", 0x1234, flags, qd, an, ns, ar)


def _record(name: bytes, rrtype: int, rdata: bytes,
            rdlength: Optional[int] = None) -> bytes:
    if rdlength is None:
        rdlength = len(rdata)
    return name + struct.pack("!HHIH", rrtype, 1, 300, rdlength) + rdata


def wire_seed_corpus() -> List[bytes]:
    """Crafted hostile messages; each found (or guards against) a real
    decoder escape — see ``tests/test_wire_hardening.py``."""
    root = b"\x00"
    return [
        b"",                                        # empty datagram
        b"\x00" * 11,                               # short header
        _header(qd=1),                              # count lies, no body
        _header(an=1) + _record(root, 43, b"", rdlength=0)      # DS rdlen 0
        + _record(root, 43, b"\x00" * 8),
        _header(an=1) + _record(root, 48, b"\x01", rdlength=1)  # DNSKEY
        + _record(root, 48, b"\x00" * 8),
        _header(an=1) + _record(root, 52, b"\x03", rdlength=1)  # TLSA
        + _record(root, 52, b"\x00" * 8),
        _header(an=2) + _record(root, 46, b"\x00" * 5, rdlength=5)
        + _record(root, 46, b"\x00" * 32),          # RRSIG inside fixed
        _header(an=2) + _record(root, 47, b"\xc0", rdlength=1)
        + _record(root, 47, b"\x00\x00\x01\x40"),   # NSEC pointer name
        _header(qd=1) + b"\xc0\x0c\x00\x01\x00\x01",  # self-loop pointer
        _header(qd=1) + b"\xc0\x20\x00\x01\x00\x01",  # forward pointer
        _header(ar=1) + _record(root, 41, b"\x00\x0a\x00\x00\xff"),
        _header(ar=1) + _record(root, 41, b"\x00\x0a\x00\xff" + b"\x00" * 4),
        _header(qd=1) + b"\x3f" + b"a" * 63 + b"\x00\x00\x01\x00\x01",
    ]


def hostile_wires(seed: int, count: Optional[int] = None) -> Iterator[bytes]:
    """The wire-fuzz input stream: seed corpus first, then mutations."""
    rng = random.Random(seed)
    produced = 0
    for case in wire_seed_corpus():
        if count is not None and produced >= count:
            return
        yield case
        produced += 1
    while count is None or produced < count:
        wire = valid_message(rng).to_wire()
        for _ in range(rng.randrange(1, 4)):
            wire = rng.choice(WIRE_MUTATIONS)(rng, wire)
        yield wire
        produced += 1


# -- hostile query names against a root-like zone -----------------------------

def hostile_root_zone():
    """A signed root zone built to defeat per-cut response templates.

    Three delegations whose glue sits under the cut (``ns1.nic.<tld>``),
    one of them with a DS, a wildcard (``*.wild.``) and an empty
    non-terminal (``ent.`` above ``deep.ent.``).
    """
    from ..dns.dnssec import sign_zone
    from ..trace.synthetic import make_root_zone
    zone = make_root_zone(tld_count=3)
    zone.add_rr(_rr("*.wild.", TXT((b"synthesized",))))
    zone.add_rr(_rr("deep.ent.", A("192.0.2.7")))
    zone.add_rr(_rr("com.", DS(4711, 8, 2, b"\x5a" * 32)))
    return sign_zone(zone)


_HOSTILE_STEMS = (".", "com.", "net.", "org.", "nic.com.", "ns1.nic.com.",
                  "wild.", "ent.", "deep.ent.", "invalid.",
                  "fake-soa.invalid.", "root-servers.net.")
_HOSTILE_LABELS = (b"nic", b"ns1", b"ns2", b"*", b"a", b"wild", b"deep",
                   b"ent", b"fake-soa", b"hostmaster", b"x" * 63)


def hostile_qname(rng: random.Random) -> Name:
    """A name around :func:`hostile_root_zone`'s cuts, glue, SOA names,
    wildcard and empty non-terminal: labels that also occur in the
    response, mixed case, up to 127 labels and 255 octets."""
    labels = list(Name.from_text(rng.choice(_HOSTILE_STEMS)).labels)
    room = 254 - sum(len(label) + 1 for label in labels)  # octets left
    for _ in range(rng.choice((0, 1, 1, 2, 3, 127))):
        label = rng.choice(_HOSTILE_LABELS + (b"j%d" % rng.randrange(99),))
        label = label[:max(0, room - 1)]   # the last one fills 255 exactly
        if not label:
            break
        labels.insert(0, label)
        room -= len(label) + 1
    return Name(tuple(bytes(rng.choice((c, c ^ 0x20)) if chr(c).isalpha()
                            else c for c in label) for label in labels))


def hostile_queries(seed: int, count: Optional[int] = None) -> Iterator[bytes]:
    """:func:`hostile_wires` interleaved with well-formed queries for
    :func:`hostile_qname` names (the wire-cache fuzz input stream)."""
    rng = random.Random(seed ^ 0x5EED)
    for index, wire in enumerate(hostile_wires(seed, count)):
        if index % 2:
            edns = rng.choice((None, Edns(dnssec_ok=True), Edns(),
                               Edns(payload_size=rng.choice((0, 600, 1232)),
                                    dnssec_ok=rng.random() < 0.5)))
            wire = Message.make_query(
                hostile_qname(rng), rng.choice(QTYPES),
                msg_id=rng.randrange(1 << 16),
                recursion_desired=rng.random() < 0.5, edns=edns).to_wire()
        yield wire


# -- replay-protocol control frames -----------------------------------------

_FRAME_HEADER = struct.Struct("!IB")


def _frame(kind: int, payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(1 + len(payload), kind) + payload


def frame_seed_corpus() -> List[bytes]:
    record = struct.pack("!dIHIHBBH", 1.5, 0x0A000001, 1234, 0x0A000002,
                         53, 0, 0, 4) + b"\x00" * 4
    # A delta frame: cumulative header, only the entries with news.
    checkpoint = (b'{"worker": 1, "incarnation": 0, "seq": 2, '
                  b'"result": {"name": "q", "counters": {"retries": 0}, '
                  b'"sent": [{"index": 7, "source": "10.0.0.1", '
                  b'"trace_time": 1.5, "scheduled_at": 2.0, '
                  b'"sent_at": 2.0, "protocol": "udp", '
                  b'"qname": "q.example.com.", "answered_at": null, '
                  b'"querier_id": 1}]}}')
    return [
        _frame(1, struct.pack("!d", 0.0)),          # valid TIME_SYNC
        _frame(1, b"\x00" * 4),                     # short TIME_SYNC
        _frame(2, record),                          # valid RECORD
        _frame(2, record[:7]),                      # truncated RECORD
        _frame(2, b""),                             # empty RECORD
        _frame(3, b""),                             # END
        _frame(3, b"junk"),                         # END with payload
        _frame(4, struct.pack("!BHH", 1, 3, 0)),    # malformed: 5-byte HELLO
        _frame(4, struct.pack("!BHHH", 2, 3, 0, 1)),  # valid HELLO
        _frame(4, struct.pack("!BHHH", 9, 3, 0, 0)),  # bad role
        _frame(4, b"\x01"),                         # short HELLO
        _frame(8, checkpoint),                      # valid CHECKPOINT
        _frame(8, b'{"worker": 1}'),                # CHECKPOINT no seq
        _frame(8, b'{"worker": 1, "incarnation": 0, "seq": "x", '
                  b'"result": {"name": "q", "sent": []}}'),  # bad seq type
        _frame(8, b"\xff\xfe"),                     # CHECKPOINT not UTF-8
        _frame(9, struct.pack("!I", 7) + record),   # valid RECORD_SEQ
        _frame(9, struct.pack("!I", 7)),            # RECORD_SEQ no record
        _frame(9, b"\x00"),                         # short RECORD_SEQ
        _frame(5, b"{}"),                           # RESULT missing fields
        _frame(5, b'{"sent": [{}]}'),               # bad SentQuery
        _frame(5, b"\xff\xfe"),                     # not UTF-8
        _frame(6, b'{"counts": {"a": "NaN"}}'),     # bad METRICS types
        _frame(7, b""),                             # SHUTDOWN
        _frame(99, b""),                            # unknown kind
        struct.pack("!IB", 0, 1),                   # zero length
        struct.pack("!IB", 1 << 30, 1),             # oversize length
        b"\x00\x00",                                # truncated header
    ]


def hostile_frames(seed: int, count: Optional[int] = None) -> Iterator[bytes]:
    """Byte streams (possibly several frames each) for MessageSocket."""
    rng = random.Random(seed)
    produced = 0
    for case in frame_seed_corpus():
        if count is not None and produced >= count:
            return
        yield case
        produced += 1
    corpus = frame_seed_corpus()
    while count is None or produced < count:
        stream = b"".join(rng.choice(corpus)
                          for _ in range(rng.randrange(1, 4)))
        mutation = rng.choice(WIRE_MUTATIONS[:2] + (WIRE_MUTATIONS[5],))
        yield mutation(rng, stream)
        produced += 1


# -- fault plans and TCP schedules ------------------------------------------

FUZZ_FAULT_KINDS = ("loss", "delay", "corrupt", "duplicate", "reorder")


def fault_plan(rng: random.Random, duration: float = 10.0) -> FaultPlan:
    """A random-but-valid fault schedule over ``[0, duration]``."""
    specs = []
    for _ in range(rng.randrange(1, 4)):
        kind = rng.choice(FUZZ_FAULT_KINDS)
        start = rng.uniform(0.0, duration * 0.5)
        specs.append(FaultSpec(
            kind, start=start,
            duration=rng.uniform(0.1, duration - start),
            rate=rng.uniform(0.05, 0.9),
            extra_delay=(rng.uniform(0.01, 0.5)
                         if kind in ("delay", "reorder") else 0.0)))
    return FaultPlan(specs)


class TcpSchedule:
    """A deterministic client-side action script for the TCP fuzz target.

    ``chunks`` are the sizes the framed query stream is split into
    (exercising segmentation/reassembly); ``close_after`` is the number
    of responses after which the client closes (None = wait for all);
    ``abort`` switches the close to an RST.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.query_count = rng.randrange(1, 6)
        self.chunks = [rng.randrange(1, 64) for _ in range(8)]
        self.close_after = (rng.randrange(0, self.query_count)
                            if rng.random() < 0.3 else None)
        self.abort = rng.random() < 0.2
        self.nagle = rng.random() < 0.5
        self.plan = fault_plan(rng) if rng.random() < 0.6 else None

    def __repr__(self) -> str:
        return (f"TcpSchedule(seed={self.seed}, queries={self.query_count}, "
                f"close_after={self.close_after}, abort={self.abort}, "
                f"faults={self.plan is not None})")


def tcp_schedules(seed: int,
                  count: Optional[int] = None) -> Iterator[TcpSchedule]:
    rng = random.Random(seed)
    produced = 0
    while count is None or produced < count:
        yield TcpSchedule(rng.randrange(1 << 30))
        produced += 1


# -- checkpoint emission histories ------------------------------------------

def _sent_entry(index: int, worker: int, answered: bool) -> dict:
    return {"index": index, "source": f"c{index % 4}",
            "trace_time": float(index), "scheduled_at": float(index),
            "sent_at": float(index), "protocol": "udp",
            "qname": "q.example.com.",
            "answered_at": float(index) + 0.5 if answered else None,
            "querier_id": worker}


def checkpoint_emission_history(rng: random.Random, workers: int = 2,
                                total: int = 8) -> List[dict]:
    """A legal crash-free emission history of CHECKPOINT/RESULT frames.

    Records are dealt randomly across workers; each worker executes its
    records in order.  At random cut points it emits a sequence-numbered
    *delta* frame — the entries first sent since its previous frame
    (some still unanswered) plus the earlier entries answered since
    they were last reported — and at the end a cumulative final
    (``final=True``) RESULT frame; a few entries stay unanswered for
    good.  Delivering the frames in emission order with no duplicates
    reproduces the clean run, which is exactly what any *other*
    delivery order, with duplicates, must merge to
    (:class:`repro.replay.recovery.CheckpointStore` is commutative and
    idempotent) — with or without the final frames."""
    assignment = [rng.randrange(workers) for _ in range(total)]
    frames: List[dict] = []
    for worker in range(workers):
        executed: List[int] = []
        answered: set = set()
        news: List[int] = []        # indices the next delta carries
        waiting: List[int] = []     # shipped unanswered, may answer yet
        seq = 0

        def frame(indices: List[int], final: bool) -> dict:
            return {"worker": worker, "incarnation": 0, "seq": seq,
                    "final": final,
                    "result": {"name": f"querier-{worker}",
                               # Stands for the cumulative header: it
                               # differs from frame to frame.
                               "counters": {"retries": len(executed)},
                               "sent": [_sent_entry(index, worker,
                                                    index in answered)
                                        for index in indices]}}

        for index in range(total):
            if assignment[index] != worker:
                continue
            executed.append(index)
            news.append(index)
            if rng.random() < 0.5:
                answered.add(index)
            else:
                waiting.append(index)
            if rng.random() < 0.4:
                seq += 1
                frames.append(frame(news, final=False))
                # Late answers to shipped entries are news again.
                news = [late for late in waiting if rng.random() < 0.6]
                answered.update(news)
                waiting = [late for late in waiting
                           if late not in answered]
        seq += 1
        frames.append(frame(executed, final=True))
    return frames


def checkpoint_deliveries(seed: int, workers: int = 2,
                          total: int = 8) -> Tuple[List[dict], List[int], int]:
    """``(frames, delivery_order, total)`` — a pure function of the seed.

    ``delivery_order`` indexes into ``frames`` shuffled arbitrarily with
    up to three duplicated deliveries inserted anywhere: an adversarial
    but at-least-once transport schedule for the checkpoint store."""
    rng = random.Random(seed)
    frames = checkpoint_emission_history(rng, workers, total)
    order = list(range(len(frames)))
    for _ in range(rng.randrange(0, 4)):
        order.append(rng.randrange(len(frames)))
    rng.shuffle(order)
    return frames, order, total


# -- hypothesis strategy wrappers -------------------------------------------

if HAVE_HYPOTHESIS:
    def wire_messages():
        """Strategy producing hostile DNS wire bytes (seeded generator
        reuse: hypothesis drives the seed and a mutation depth)."""
        return st.builds(
            lambda seed, skip: next(
                w for i, w in enumerate(hostile_wires(seed)) if i == skip),
            st.integers(min_value=0, max_value=1 << 30),
            st.integers(min_value=0, max_value=40))

    def edns_options():
        return st.lists(
            st.builds(EdnsOption,
                      st.integers(min_value=0, max_value=0xFFFF),
                      st.binary(max_size=64)),
            max_size=4)

    def dnssec_rdata():
        blob = st.binary(min_size=0, max_size=64)
        name = st.sampled_from(
            [Name.from_text(n) for n in QNAMES[:3]])
        return st.one_of(
            st.builds(DS, st.integers(0, 0xFFFF), st.integers(0, 255),
                      st.integers(0, 255), blob),
            st.builds(DNSKEY, st.integers(0, 0xFFFF), st.integers(0, 255),
                      st.integers(0, 255), blob),
            st.builds(RRSIG, st.sampled_from(list(QTYPES)),
                      st.integers(0, 255), st.integers(0, 255),
                      st.integers(0, 0xFFFFFFFF),
                      st.integers(0, 0xFFFFFFFF),
                      st.integers(0, 0xFFFFFFFF), st.integers(0, 0xFFFF),
                      name, blob),
            st.builds(NSEC, name,
                      st.lists(st.sampled_from(list(QTYPES)), max_size=5)
                      .map(lambda types: tuple(sorted(set(types))))),
        )

    def checkpoint_interleavings(workers: int = 2, total: int = 8):
        """Strategy producing ``(frames, delivery_order, total)`` tuples.

        The frames are a legal crash-free emission history of delta
        checkpoints and cumulative finals; the delivery order is an
        arbitrary permutation with duplicates.  Property under test:
        every delivery order merges to the same conserved
        :class:`ReplayResult` as in-order delivery."""
        return st.builds(
            lambda seed: checkpoint_deliveries(seed, workers, total),
            st.integers(min_value=0, max_value=1 << 30))
