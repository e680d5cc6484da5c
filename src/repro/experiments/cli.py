"""``ldplayer`` — run the paper's experiments from the command line.

Examples::

    ldplayer table1
    ldplayer fig10 --scale quick
    ldplayer fig13 --scale full
    ldplayer all --scale smoke
    ldplayer top --kill    # live cluster telemetry + crash artifacts
    ldplayer scale --queries 1e8 --json scale.json --assert-flat
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from .common import SCALES, Scale
from . import (dos_attack, fig6_timing, fig7_interarrival, fig8_rate,
               fig9_throughput, fig10_dnssec, fig11_cpu,
               fig13_14_footprint, fig15_latency, hierarchy_validation,
               table1)

EXPERIMENTS: Dict[str, Callable[[Scale], object]] = {
    "table1": table1.run,
    "fig6": fig6_timing.run,
    "fig7": fig7_interarrival.run,
    "fig8": fig8_rate.run,
    "fig9": fig9_throughput.run,
    "fig9scale": fig9_throughput.run_scaleout,
    "fig10": fig10_dnssec.run,
    "fig11": fig11_cpu.run,
    "fig13": lambda scale: fig13_14_footprint.run("tcp", scale),
    "fig14": lambda scale: fig13_14_footprint.run("tls", scale),
    "fig15": fig15_latency.run,
    "hierarchy": hierarchy_validation.run,
    "dos": dos_attack.run,
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        # The verification harness has its own argument surface; hand
        # off before the experiment parser rejects the subcommand.
        from ..verify.fuzz import main as fuzz_main
        return fuzz_main(argv[1:])
    if argv and argv[0] == "top":
        # Live cluster observability: run a short multi-process replay
        # with streamed telemetry and dump the trace/console artifacts.
        from .top import main as top_main
        return top_main(argv[1:])
    if argv and argv[0] == "scale":
        # Constant-memory streaming benchmark (10⁶–10⁸ queries).
        from .scale_bench import main as scale_main
        return scale_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="ldplayer",
        description="Reproduce LDplayer's tables and figures "
                    "(Zhu & Heidemann, DNS experimentation at scale).")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all", "report"],
                        help="which table/figure to reproduce, or "
                             "'report' for a full Markdown document")
    parser.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                        help="workload size preset (default: smoke)")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report to this file "
                             "(report mode; default stdout)")
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    if args.experiment == "report":
        from . import report
        document = report.generate(EXPERIMENTS, scale)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(document)
            print(f"wrote {args.output}")
        else:
            print(document)
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        output = EXPERIMENTS[name](scale)
        print(output.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
