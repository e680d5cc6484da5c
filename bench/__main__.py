"""``python -m bench run|trace|aa`` (with ``PYTHONPATH=src:.``)."""

from __future__ import annotations

import argparse
import sys

from . import harness


def main() -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, function, runs, summary in (
            ("run", harness.command_run, 5,
             "end-to-end metrics: K fresh-process runs per workload"),
            ("trace", harness.command_trace, None,
             "per-layer metrics: one traced run per workload"),
            ("aa", harness.command_aa, 10,
             "two interleaved sets of K runs checked against the bounds")):
        command = commands.add_parser(name, help=summary)
        command.add_argument("--workload", choices=harness.workload_names())
        command.add_argument("--seed", type=int, default=1,
                             help="first seed; run i uses seed + i")
        command.add_argument("--seconds", type=float,
                             default=float(harness.contract()["run_seconds"]),
                             help="window length each workload is sized for")
        command.add_argument("--out", help="result file to write")
        if runs is not None:
            command.add_argument("--runs", type=int, default=runs)
        command.set_defaults(function=function)
    args = parser.parse_args()
    return args.function(args)


if __name__ == "__main__":
    sys.exit(main())
