"""Traces: record model, formats (pcap/text/binary), mutation,
synthetic workloads, and statistics."""

from .binfmt import (ChunkedTraceWriter, TraceFormatError, iter_binary,
                     read_binary, write_binary, write_binary_stream)
from .mutator import (Mutation, QueryMutator, all_protocol, prepend_unique,
                      retarget, sample_clients, scale_time,
                      set_dnssec_fraction, shift_time)
from .pcap import PcapError, iter_pcap, read_pcap, write_pcap
from .record import PROTOCOLS, QueryRecord, Trace, make_query_record
from .stats import (TraceSummary, cdf_points, client_load_cdf,
                    inactive_client_fraction, interarrivals, mean,
                    per_client_counts, per_second_rates, percentile,
                    quartile_summary, stddev, summarize, top_client_share)
from .stream import (ShardSetWriter, iter_shard_file, read_manifest,
                     shard_path, split_shards)
from .synthetic import (BRootWorkload, ClientClassSpec, RecursiveWorkload,
                        SYNTHETIC_SPECS, burst_trace, fixed_interval_trace,
                        make_hierarchy_zones, make_root_zone, scale_stream,
                        table1_synthetic, wildcard_example_zone,
                        zipf_trace)
from .textfmt import (TextFormatError, line_to_record, read_text,
                      record_to_line, write_text)

__all__ = [
    "BRootWorkload", "ChunkedTraceWriter", "ClientClassSpec", "Mutation",
    "PROTOCOLS", "PcapError", "QueryMutator", "QueryRecord",
    "RecursiveWorkload", "SYNTHETIC_SPECS", "ShardSetWriter",
    "TextFormatError", "Trace", "TraceFormatError", "TraceSummary",
    "all_protocol", "burst_trace", "cdf_points", "client_load_cdf",
    "fixed_interval_trace", "inactive_client_fraction", "interarrivals",
    "iter_binary", "iter_pcap", "iter_shard_file", "line_to_record",
    "make_hierarchy_zones", "make_query_record", "make_root_zone", "mean",
    "per_client_counts", "per_second_rates", "percentile", "prepend_unique",
    "quartile_summary", "read_binary", "read_manifest", "read_pcap",
    "read_text", "record_to_line", "retarget", "sample_clients",
    "scale_stream", "scale_time", "set_dnssec_fraction", "shard_path",
    "shift_time", "split_shards", "stddev", "summarize", "table1_synthetic",
    "top_client_share", "wildcard_example_zone", "write_binary",
    "write_binary_stream", "write_pcap", "write_text", "zipf_trace",
]
