"""``ldplayer scale`` — the constant-memory streaming-trace benchmark.

Drives the full streaming pipeline the 10⁸-query replay relies on —
``scale_stream`` generation → ``QueryMutator.stream`` mutation →
sticky-by-source shard-file write → lazy shard read → aggregate
``ReplayResult`` accounting — in one process, sampling RSS throughout.
The figure of merit is *memory flatness*: if any stage materializes the
trace, RSS grows with ``--queries`` and the run fails its own
assertion.

The mode is honest about what it measures: there are no sockets and no
pacing, so throughput numbers describe the trace path (generate,
mutate, encode, decode, account), not server performance.  The live
network path is exercised separately by
``ProcessTopology.replay_shard_files`` and its tests; this benchmark is
what makes a 10⁸-query run practical to check on one box.

Usage::

    ldplayer scale --queries 1e6
    ldplayer scale --queries 1e8 --json scale.json --assert-flat
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from typing import Callable, Dict, Iterable, List, Optional

from ..replay.result import ReplayResult
from ..telemetry.cluster import rss_kilobytes
from ..trace import QueryMutator, retarget, scale_stream
from ..trace.stream import (DEFAULT_READ_AHEAD, iter_shard_file, shard_path,
                            split_shards)

# Peak RSS may exceed the steady median by at most this fraction for
# the run to count as flat (the ISSUE acceptance bar).
FLATNESS_LIMIT = 0.10

MODE = ("streaming-drain: generate -> mutate -> shard write -> lazy "
        "shard read -> aggregate accounting in one process; no sockets, "
        "no pacing -- measures trace-path memory and throughput, not "
        "server performance")


# Most sends one count_sends call folds.
DRAIN_BLOCK = 4096


def fold_sends(result: ReplayResult, records: Iterable, trace_start: float,
               tick: Callable[[], None]) -> int:
    """Account ``records`` as sent at their §2.6 targets (the drain has
    no pacing), ``tick`` once each, and return how many.  Each run of
    same-protocol records goes through ``count_sends`` in blocks, in
    order, so the fold ends where one ``count_send`` per record would."""
    block, protocol, folded = [], None, 0
    append = block.append
    for record in records:
        if record.protocol != protocol or len(block) >= DRAIN_BLOCK:
            result.count_sends(protocol, block)
            block.clear()
            protocol = record.protocol
        append((record.timestamp, record.timestamp - trace_start))
        folded += 1
        tick()
    result.count_sends(protocol, block)
    return folded


class _RssSampler:
    """Collect RSS every ``every`` records; cheap enough to inline."""

    def __init__(self, every: int):
        self.every = max(1, every)
        self.samples_kb: List[float] = []
        self._countdown = 0

    def tick(self) -> None:
        self._countdown -= 1
        if self._countdown <= 0:
            self._countdown = self.every
            self.samples_kb.append(rss_kilobytes())

    def force(self) -> None:
        self.samples_kb.append(rss_kilobytes())


def flatness(samples_kb: List[float]) -> Dict[str, object]:
    """Peak-vs-steady drift of an RSS timeline.

    ``steady`` is the median of the final quarter of the samples: the
    process once every bounded structure (chunk encoders, read-ahead
    queues, interning caches sized by the client population) filled and
    the allocator's arenas settled.  A pipeline that materializes the
    trace keeps growing with records processed — at 10⁸ queries that
    is orders of magnitude above the settled tail, not the few-percent
    allocator churn a constant-memory run shows.  The decimated
    timeline is recorded so the shape (plateau vs ramp) is auditable.
    """
    live = [s for s in samples_kb if s > 0.0]
    if len(live) < 8:
        return {"rss_peak_kb": 0.0, "rss_steady_kb": 0.0,
                "rss_drift": 0.0, "rss_samples": len(live),
                "rss_timeline_kb": live}
    tail = sorted(live[3 * len(live) // 4:])
    steady = tail[len(tail) // 2]
    peak = max(live)
    drift = (peak - steady) / steady if steady else 0.0
    step = max(1, len(live) // 64)
    timeline = live[::step]
    if timeline[-1] != live[-1]:
        timeline.append(live[-1])
    return {"rss_peak_kb": peak, "rss_steady_kb": steady,
            "rss_drift": round(drift, 4), "rss_samples": len(live),
            "rss_timeline_kb": timeline}


def run(query_count: int, shard_count: int = 4,
        chunk_records: int = 4096, read_ahead: int = DEFAULT_READ_AHEAD,
        mean_rate: float = 100_000.0, client_count: Optional[int] = None,
        seed: int = 42, workdir: Optional[str] = None,
        sample_every: Optional[int] = None,
        keep_shards: bool = False) -> Dict:
    """Run the streaming benchmark; returns its record as a dict."""
    if client_count is None:
        # Proportional to trace length, as a real capture slice would
        # be: client-keyed bounded state (interning caches, sticky
        # routing) then fills early in the run instead of creeping
        # toward its cap for the whole measurement window.
        client_count = max(1_000, min(100_000, query_count // 100))
    if sample_every is None:
        # ~128 samples per phase regardless of scale.
        sample_every = max(query_count // 128, 1)
    sampler = _RssSampler(sample_every)
    sampler.force()
    directory = tempfile.mkdtemp(prefix="scale-bench-", dir=workdir)
    try:
        mutator = QueryMutator([retarget("203.0.113.53")])
        stream = mutator.stream(scale_stream(
            query_count, mean_rate=mean_rate, client_count=client_count,
            seed=seed))

        def sampled(records):
            for record in records:
                sampler.tick()
                yield record

        write_started = time.monotonic()
        manifest = split_shards(sampled(stream), directory, shard_count,
                                chunk_records=chunk_records)
        write_seconds = time.monotonic() - write_started
        bytes_on_disk = sum(
            os.path.getsize(shard_path(directory, index, manifest))
            for index in range(manifest["num_shards"]))

        result = ReplayResult("scale-bench", aggregate=True)
        trace_start = manifest["first_timestamp"] or 0.0
        result.trace_start = trace_start
        result.start_clock = 0.0
        drained = 0
        drain_started = time.monotonic()
        for index in range(manifest["num_shards"]):
            path = shard_path(directory, index, manifest)
            drained += fold_sends(
                result, iter_shard_file(path, read_ahead=read_ahead),
                trace_start, sampler.tick)
        drain_seconds = time.monotonic() - drain_started
        sampler.force()
    finally:
        if not keep_shards:
            shutil.rmtree(directory, ignore_errors=True)

    if drained != query_count or result.sent_count != query_count:
        raise RuntimeError(
            f"streaming pipeline lost records: generated {query_count}, "
            f"drained {drained}, accounted {result.sent_count}")

    record = {
        "mode": MODE,
        "query_count": query_count,
        "shard_count": shard_count,
        "chunk_records": chunk_records,
        "read_ahead": read_ahead,
        "bytes_on_disk": bytes_on_disk,
        "bytes_per_record": round(bytes_on_disk / max(query_count, 1), 1),
        "write_seconds": round(write_seconds, 3),
        "write_qps": round(query_count / write_seconds, 1)
        if write_seconds else 0.0,
        "drain_seconds": round(drain_seconds, 3),
        "drain_qps": round(query_count / drain_seconds, 1)
        if drain_seconds else 0.0,
        "accounted_sends": result.sent_count,
        "client_count": client_count,
        "protocol_counts": dict(result.protocol_counts),
        "cpu_count": os.cpu_count() or 1,
        "flatness_limit": FLATNESS_LIMIT,
    }
    record.update(flatness(sampler.samples_kb))
    record["rss_flat"] = (record["rss_samples"] >= 8
                          and record["rss_drift"] < FLATNESS_LIMIT)
    if record["rss_samples"] < 8:
        record["skip_reason"] = ("RSS not readable on this host: "
                                 "flatness not asserted")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldplayer scale",
        description="Constant-memory streaming-trace benchmark "
                    "(generation -> mutation -> shards -> drain).")
    parser.add_argument("--queries", default="1e6",
                        help="records to stream (accepts 1e8; "
                             "default 1e6)")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--chunk-records", type=int, default=4096)
    parser.add_argument("--read-ahead", type=int,
                        default=DEFAULT_READ_AHEAD)
    parser.add_argument("--mean-rate", type=float, default=100_000.0)
    parser.add_argument("--workdir", default=None,
                        help="where shard files live during the run "
                             "(default: system temp)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the record as a JSON document "
                             "to PATH")
    parser.add_argument("--assert-flat", action="store_true",
                        help="exit 1 unless peak RSS is within "
                             f"{FLATNESS_LIMIT:.0%}".replace("%", "%%")
                             + " of steady state")
    options = parser.parse_args(argv)

    query_count = int(float(options.queries))
    record = run(query_count, shard_count=options.shards,
                 chunk_records=options.chunk_records,
                 read_ahead=options.read_ahead,
                 mean_rate=options.mean_rate, workdir=options.workdir)

    print(f"streamed {record['query_count']:,} queries through "
          f"{record['shard_count']} shards "
          f"({record['bytes_on_disk'] / 1e6:,.1f} MB on disk)")
    print(f"  write: {record['write_qps']:>12,.0f} q/s "
          f"({record['write_seconds']}s)")
    print(f"  drain: {record['drain_qps']:>12,.0f} q/s "
          f"({record['drain_seconds']}s)")
    print(f"  rss:   peak {record['rss_peak_kb'] / 1024:,.1f} MB vs "
          f"steady {record['rss_steady_kb'] / 1024:,.1f} MB "
          f"(drift {record['rss_drift']:.1%}, "
          f"flat={record['rss_flat']})")

    if options.json:
        with open(options.json, "w") as handle:
            json.dump({"scale_stream": record}, handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        print(f"wrote {options.json}")

    if options.assert_flat and not record.get("skip_reason"):
        if not record["rss_flat"]:
            print(f"RSS NOT FLAT: drift {record['rss_drift']:.1%} >= "
                  f"{FLATNESS_LIMIT:.0%}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
