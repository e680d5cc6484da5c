"""``ldplayer top`` — live cluster observability demo and artifact dump.

Runs a short multi-process replay (controller → distributors →
queriers against a UDP echo server) with streamed telemetry on, renders
the :class:`~repro.telemetry.cluster.ClusterAggregator`'s ``top``-style
console live, and writes the run's observability artifacts:

* ``cluster_trace.json`` — one clock-aligned Chrome trace for the
  whole topology (load into ``chrome://tracing`` or Perfetto);
* ``cluster_top.txt`` — every console frame, in order;
* ``cluster_snapshot.json`` — the final aggregate as JSON;
* ``cluster_workers.csv`` — per-worker-incarnation rows.

``--kill`` flips the run into self-healing mode and SIGKILLs one
querier mid-replay, demonstrating the crash flight recorder: the
victim's final spans survive in the merged trace and the crash report.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ldplayer top",
        description="Live cluster telemetry over a short multi-process "
                    "replay; writes trace/console/snapshot artifacts.")
    parser.add_argument("--duration", type=float, default=2.0,
                        help="trace duration in seconds (default: 2.0)")
    parser.add_argument("--interval", type=float, default=0.004,
                        help="per-client query interval (default: 0.004)")
    parser.add_argument("--distributors", type=int, default=2)
    parser.add_argument("--queriers", type=int, default=4,
                        help="total querier processes (default: 4)")
    parser.add_argument("--stream-period", type=float, default=0.1,
                        help="telemetry frame period (default: 0.1s)")
    parser.add_argument("--refresh", type=float, default=0.5,
                        help="console refresh period (default: 0.5s)")
    parser.add_argument("--kill", action="store_true",
                        help="SIGKILL one querier mid-run (self-healing "
                             "mode: respawn + flight recorder)")
    parser.add_argument("--output-dir", default=".",
                        help="where to write the artifacts (default: .)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the live console (artifacts only)")
    args = parser.parse_args(argv)

    from ..replay.distributed import DistributedConfig
    from ..replay.multiproc import ProcessTopology
    from ..replay.recovery import RecoveryConfig
    from ..server import LiveDnsServer
    from ..telemetry import Telemetry, TelemetryConfig
    from ..telemetry.cluster import ClusterConsole
    from ..trace import fixed_interval_trace

    if args.queriers % args.distributors:
        parser.error("--queriers must be a multiple of --distributors")

    trace = fixed_interval_trace(args.interval, args.duration,
                                 client_count=4 * args.queriers)
    hub = Telemetry(TelemetryConfig(trace=True,
                                    stream_period=args.stream_period))
    config = DistributedConfig(
        distributors=args.distributors,
        queriers_per_distributor=args.queriers // args.distributors,
        start_delay=0.05,
        recovery=RecoveryConfig() if args.kill else None)

    os.makedirs(args.output_dir, exist_ok=True)
    console_holder = {}

    with LiveDnsServer() as echo:
        topology = ProcessTopology((echo.address, echo.port), config,
                                   telemetry=hub)

        def attach_console():
            # The aggregator only exists once replay() starts; attach
            # the console (and the optional assassin) as soon as it does.
            while topology.cluster is None:
                time.sleep(0.02)
            console = ClusterConsole(
                topology.cluster, interval=args.refresh,
                stream=None if args.quiet else sys.stdout)
            console_holder["console"] = console
            console.start()
            if args.kill:
                time.sleep(max(0.3, args.duration * 0.3))
                for handle in topology.querier_handles:
                    if handle.is_alive():
                        os.kill(handle.pid, signal.SIGKILL)
                        print(f"[top] SIGKILLed {handle.name} "
                              f"(pid {handle.pid})", file=sys.stderr)
                        return

        watcher = threading.Thread(target=attach_console, daemon=True)
        watcher.start()
        result = topology.replay(trace)

    console = console_holder.get("console")
    if console is not None:
        console.stop()
    cluster = topology.cluster
    if cluster is None:
        print("no cluster telemetry was collected (streaming off?)",
              file=sys.stderr)
        return 1

    out = args.output_dir
    cluster.write_chrome_trace(os.path.join(out, "cluster_trace.json"))
    cluster.write_snapshot(os.path.join(out, "cluster_snapshot.json"))
    with open(os.path.join(out, "cluster_workers.csv"), "w") as handle:
        handle.write(cluster.workers_csv())
    frames = console.frames if console is not None \
        else [cluster.render_top()]
    with open(os.path.join(out, "cluster_top.txt"), "w") as handle:
        handle.write("\n\n".join(frames) + "\n")

    print(f"replayed {len(result)} queries "
          f"({result.answered_count} answered), "
          f"{cluster.frames_ingested} telemetry frames from "
          f"{len(cluster.workers())} worker incarnations, "
          f"{len(cluster.crash_reports())} crash(es)")
    print(f"artifacts in {os.path.abspath(out)}: cluster_trace.json, "
          f"cluster_top.txt, cluster_snapshot.json, cluster_workers.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
