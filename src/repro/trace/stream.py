"""Shard-file streaming: split one trace stream into sticky per-shard
files and read them back with bounded memory.

The paper's controller "divides and distributes queries to multiple
distributors" with all queries from one source pinned to one querier
(§2.3) so per-client transport state (TCP/TLS connections, §2.4) lives
in exactly one place.  At B-Root scale the division itself must stream:
this module routes a record iterable — typically
``mutator.stream(workload.generate_stream())`` — straight into
``num_shards`` chunked binary files (:mod:`repro.trace.binfmt`),
keyed by :func:`repro.netsim.shard.shard_of` on the source address so
the split agrees with every replay topology's sticky assignment.

A ``manifest.json`` sidecar records per-shard counts and time bounds.
The replay controller reads only the manifest — never the records — to
broadcast time sync and set collection deadlines; distributor workers
then self-source their own shard file lazily, a chunk at a time, as
undecoded record bodies (:func:`repro.trace.binfmt.iter_record_bodies`).
:func:`iter_shard_file` reads a shard back as records, with a bounded
read-ahead that keeps a decode thread one batch ahead of its consumer
without ever buffering the shard.
"""

from __future__ import annotations

import json
import os
import queue
import threading
from typing import BinaryIO, Dict, Iterable, Iterator, List, Optional

from ..netsim.shard import shard_of
from .binfmt import (DEFAULT_CHUNK_RECORDS, ChunkedTraceWriter,
                     TraceFormatError, iter_binary)
from .record import QueryRecord

MANIFEST_NAME = "manifest.json"
MANIFEST_FORMAT = "ldplayer-shards-v1"


def shard_filename(index: int) -> str:
    return f"shard-{index:04d}.bin"


class ShardSetWriter:
    """Stream records into ``num_shards`` sticky-by-source shard files.

    Memory is bounded by ``num_shards * chunk_records`` buffered
    records (one partial chunk per shard), independent of trace length.
    Closing writes the manifest; a directory without a manifest is an
    abandoned, incomplete split and readers refuse it.
    """

    def __init__(self, directory: str, num_shards: int,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.num_shards = num_shards
        self._streams: List[BinaryIO] = []
        self._writers: List[ChunkedTraceWriter] = []
        self._first: List[Optional[float]] = [None] * num_shards
        self._last: List[Optional[float]] = [None] * num_shards
        self._closed = False
        for index in range(num_shards):
            stream = open(os.path.join(directory, shard_filename(index)),
                          "wb")
            self._streams.append(stream)
            self._writers.append(ChunkedTraceWriter(stream, chunk_records))

    def write(self, record: QueryRecord) -> int:
        """Route one record to its shard; returns the shard index."""
        index = shard_of(record.src, self.num_shards)
        self._writers[index].write(record)
        if self._first[index] is None:
            self._first[index] = record.timestamp
        self._last[index] = record.timestamp
        return index

    def write_all(self, records: Iterable[QueryRecord]) -> int:
        count = 0
        for record in records:
            self.write(record)
            count += 1
        return count

    @property
    def records_written(self) -> int:
        return sum(w.records_written for w in self._writers)

    def close(self) -> Dict:
        """Flush every shard and write the manifest; returns it."""
        if self._closed:
            return self.manifest()
        for writer, stream in zip(self._writers, self._streams):
            writer.close()
            stream.close()
        self._closed = True
        manifest = self.manifest()
        path = os.path.join(self.directory, MANIFEST_NAME)
        with open(path + ".tmp", "w") as handle:
            json.dump(manifest, handle, indent=1)
        os.replace(path + ".tmp", path)
        return manifest

    def manifest(self) -> Dict:
        firsts = [t for t in self._first if t is not None]
        lasts = [t for t in self._last if t is not None]
        return {
            "format": MANIFEST_FORMAT,
            "num_shards": self.num_shards,
            "total_records": self.records_written,
            "first_timestamp": min(firsts) if firsts else None,
            "last_timestamp": max(lasts) if lasts else None,
            "shards": [
                {"file": shard_filename(index),
                 "records": self._writers[index].records_written,
                 "first_timestamp": self._first[index],
                 "last_timestamp": self._last[index]}
                for index in range(self.num_shards)],
        }

    def __enter__(self) -> "ShardSetWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is None:
            self.close()
        else:
            # Leave the set manifest-less so readers reject it, but
            # release the descriptors.
            for stream in self._streams:
                stream.close()
            self._closed = True


def split_shards(records: Iterable[QueryRecord], directory: str,
                 num_shards: int,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS) -> Dict:
    """Split a record stream into a shard-file set; returns the manifest."""
    with ShardSetWriter(directory, num_shards, chunk_records) as writer:
        writer.write_all(records)
        return writer.close()


def read_manifest(directory: str) -> Dict:
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise TraceFormatError(
            f"no {MANIFEST_NAME} in {directory}: incomplete shard split")
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"corrupt manifest {path}: {exc}")
    if manifest.get("format") != MANIFEST_FORMAT:
        raise TraceFormatError(
            f"unknown shard manifest format {manifest.get('format')!r}")
    return manifest


def shard_path(directory: str, index: int,
               manifest: Optional[Dict] = None) -> str:
    if manifest is None:
        manifest = read_manifest(directory)
    shards = manifest["shards"]
    if not 0 <= index < len(shards):
        raise TraceFormatError(
            f"shard {index} out of range (manifest has {len(shards)})")
    return os.path.join(directory, shards[index]["file"])


# Records decoded ahead of the consumer.  Two batches of 1024 records
# (~60 bytes each) keep the reader thread busy through consumer stalls
# while capping read-ahead memory around 128 KB per shard.
DEFAULT_READ_AHEAD = 2048
_BATCH = 1024
_DONE = object()


def iter_shard_file(path: str,
                    read_ahead: int = DEFAULT_READ_AHEAD
                    ) -> Iterator[QueryRecord]:
    """Stream one shard file with bounded read-ahead.

    A daemon thread decodes records in batches into a bounded queue so
    disk reads and struct unpacking overlap the consumer's send loop;
    at most ``read_ahead`` records are ever resident.  With
    ``read_ahead <= 0`` decoding happens inline (no thread) — same
    records, for contexts where spawning threads is unwanted.
    """
    if read_ahead <= 0:
        with open(path, "rb") as stream:
            yield from iter_binary(stream)
        return

    batches: "queue.Queue" = queue.Queue(
        maxsize=max(1, read_ahead // _BATCH))
    failure: List[BaseException] = []
    stop = threading.Event()

    def _produce() -> None:
        batch: List[QueryRecord] = []
        try:
            with open(path, "rb") as stream:
                for record in iter_binary(stream):
                    batch.append(record)
                    if len(batch) >= _BATCH:
                        while not stop.is_set():
                            try:
                                batches.put(batch, timeout=0.1)
                                break
                            except queue.Full:
                                continue
                        if stop.is_set():
                            return
                        batch = []
        except BaseException as exc:  # propagated to the consumer
            failure.append(exc)
        finally:
            while not stop.is_set():
                try:
                    batches.put(batch, timeout=0.1)
                    break
                except queue.Full:
                    continue
            while not stop.is_set():
                try:
                    batches.put(_DONE, timeout=0.1)
                    break
                except queue.Full:
                    continue

    thread = threading.Thread(target=_produce, daemon=True,
                              name=f"shard-read:{os.path.basename(path)}")
    thread.start()
    try:
        while True:
            batch = batches.get()
            if batch is _DONE:
                break
            yield from batch
        if failure:
            raise failure[0]
        thread.join()
    finally:
        # Consumer abandoned us (or we finished): let the producer exit.
        stop.set()
