"""Sticky shard assignment for sharded simulation.

The unit of partitioning is the *client source address*: LDplayer's
sticky-by-source invariant (same source, same querier, same socket)
means a client's whole lifecycle touches only its own hosts plus the
server.  A shard that owns a set of sources plus its own server replica
is therefore a closed world, and shards never exchange packets.

:class:`repro.replay.multiproc.ShardTopology` runs such replicated
worlds as real processes, one per core.  Each replica rebuilds its
trace slice from the shared factory and is deterministic, so a crashed
shard needs no checkpoint: the topology reruns it at a fresh
incarnation under the respawn budget of :mod:`repro.replay.recovery`.
``tests/test_shard_differential.py`` holds the sharded run to the
single-shard one.
"""

from __future__ import annotations

import zlib


def shard_of(source: str, num_shards: int) -> int:
    """The shard owning ``source`` (a client address), sticky and stable.

    crc32 rather than ``hash()``: Python string hashing is randomized
    per process (PEP 456), and shard assignment must agree across the
    worker processes of a :class:`~repro.replay.multiproc.ShardTopology`.
    """
    if num_shards <= 1:
        return 0
    return zlib.crc32(source.encode("ascii")) % num_shards
