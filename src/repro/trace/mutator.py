"""The query mutator (§2.5): turn one trace into many what-if variants.

A mutation is a function ``QueryRecord -> QueryRecord | None`` (None
drops the record).  :class:`QueryMutator` composes mutations into a
pipeline that can run ahead-of-time or live during replay.  The built-in
mutations are exactly the ones the paper's experiments use:

* ``all_protocol("tcp"|"tls")`` — the §5.2 what-if (all queries over
  TCP/TLS).  Transport is a record field, so this mutation never parses
  the DNS payload: it stays cheap on the replay hot path.
* ``set_dnssec_fraction(1.0)`` — the §5.1 what-if (every query sets the
  EDNS DO bit); a deterministic per-client hash picks which clients ask
  for DNSSEC at fractions below 1.
* ``prepend_unique()`` — §4.2's trick of prepending a unique label to
  every query name so replayed queries can be matched to originals.
* ``retarget(addr)`` — point the trace at the experiment server.
* ``scale_time(factor)`` / ``shift_time`` — compress or stretch timing.
* ``sample_clients(fraction)`` — keep a deterministic client subsample
  with per-client behaviour intact (this reproduction's scaling lever;
  see DESIGN.md substitutions).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Iterable, Iterator, List, Optional

from ..dns import DNS_OVER_TLS_PORT, DNS_PORT, Edns, Name
from .record import QueryRecord, Trace

Mutation = Callable[[QueryRecord], Optional[QueryRecord]]


class QueryMutator:
    """A pipeline of mutations applied in order."""

    def __init__(self, mutations: Iterable[Mutation] = ()):
        self.mutations: List[Mutation] = list(mutations)
        self.processed = 0
        self.dropped = 0

    def add(self, mutation: Mutation) -> "QueryMutator":
        self.mutations.append(mutation)
        return self

    def apply_record(self, record: QueryRecord) -> Optional[QueryRecord]:
        self.processed += 1
        current: Optional[QueryRecord] = record
        for mutation in self.mutations:
            current = mutation(current)
            if current is None:
                self.dropped += 1
                return None
        return current

    def stream(self, records: Iterable[QueryRecord]) -> Iterator[QueryRecord]:
        """Mutate a record stream lazily — the primary path.

        Accepts any record iterable (a ``Trace``, a generator from
        :meth:`BRootWorkload.generate_stream`, a :func:`iter_binary`
        reader) and yields results one at a time, so a 10⁸-record
        pipeline never holds more than one record here.
        """
        for record in records:
            out = self.apply_record(record)
            if out is not None:
                yield out

    def apply(self, trace: Trace) -> Trace:
        """Materialize a mutated copy of ``trace``.

        Convenience wrapper over :meth:`stream` for small traces;
        anything B-Root-sized should stay on the streaming path.
        """
        return Trace(self.stream(trace), name=f"{trace.name}:mutated")


# -- built-in mutations ------------------------------------------------------

def all_protocol(protocol: str) -> Mutation:
    """Convert every query to the given transport (cheap: no payload parse)."""

    def mutate(record: QueryRecord) -> QueryRecord:
        if record.protocol == protocol:
            return record
        dport = record.dport
        if dport in (DNS_PORT, DNS_OVER_TLS_PORT):
            dport = DNS_OVER_TLS_PORT if protocol == "tls" else DNS_PORT
        return record.with_(protocol=protocol, dport=dport)

    return mutate


def _client_fraction_hash(src: str, salt: bytes = b"") -> float:
    digest = hashlib.sha256(src.encode() + salt).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


def set_dnssec_fraction(fraction: float, payload_size: int = 4096) -> Mutation:
    """Give a deterministic ``fraction`` of clients the EDNS DO bit.

    The root sees DO per *query source* behaviour, so selection hashes
    the client address: the same client always asks (or never asks) for
    DNSSEC, as in real traffic.
    """

    def mutate(record: QueryRecord) -> QueryRecord:
        wants_do = _client_fraction_hash(record.src, b"do") < fraction
        message = record.message()
        if wants_do:
            if message.dnssec_ok:
                return record
            message.edns = Edns(payload_size=payload_size, dnssec_ok=True)
        else:
            if message.edns is None or not message.edns.dnssec_ok:
                return record
            message.edns.dnssec_ok = False
        return record.with_(wire=message.to_wire())

    return mutate


def prepend_unique(prefix: str = "r") -> Mutation:
    """Prepend a unique label to every query name (§4.2 matching)."""
    counter = [0]

    def mutate(record: QueryRecord) -> QueryRecord:
        message = record.message()
        if not message.question:
            return record
        counter[0] += 1
        question = message.question[0]
        label = f"{prefix}{counter[0]}".encode()
        new_name = Name((label,) + question.name.labels)
        message.question[0] = type(question)(new_name, question.rrtype,
                                             question.rrclass)
        return record.with_(wire=message.to_wire())

    return mutate


def retarget(address: str, port: Optional[int] = None) -> Mutation:
    """Send every query to the experiment server's address."""

    def mutate(record: QueryRecord) -> QueryRecord:
        return record.with_(dst=address,
                            dport=port if port is not None else record.dport)

    return mutate


def scale_time(factor: float) -> Mutation:
    """Multiply relative timestamps by ``factor`` (2.0 = half the rate).

    ``factor`` must be >= 0: a negative factor would reverse trace
    order, which the replay engines (and the streaming shard writers)
    assume never happens.  ``factor == 0.0`` collapses the trace onto
    its first timestamp — an as-fast-as-possible replay — which keeps
    timestamps non-decreasing and is allowed.
    """
    if factor < 0:
        raise ValueError(f"scale_time factor must be >= 0, got {factor}")
    base: List[Optional[float]] = [None]

    def mutate(record: QueryRecord) -> QueryRecord:
        if base[0] is None:
            base[0] = record.timestamp
        relative = record.timestamp - base[0]
        return record.with_(timestamp=max(0.0, base[0] + relative * factor))

    return mutate


def shift_time(offset: float) -> Mutation:
    """Shift every timestamp by ``offset``, clamped at zero.

    A negative shift larger than an early timestamp would otherwise
    emit negative times, which ``schedule_trace`` turns into a burst of
    immediate sends ordered arbitrarily; clamping keeps the head of the
    trace monotonic at t=0 instead.
    """

    def mutate(record: QueryRecord) -> QueryRecord:
        return record.with_(timestamp=max(0.0, record.timestamp + offset))

    return mutate


def sample_clients(fraction: float, salt: str = "") -> Mutation:
    """Keep a deterministic ``fraction`` of clients, all their queries."""

    def mutate(record: QueryRecord) -> Optional[QueryRecord]:
        keep = _client_fraction_hash(record.src,
                                     b"sample" + salt.encode()) < fraction
        return record if keep else None

    return mutate
