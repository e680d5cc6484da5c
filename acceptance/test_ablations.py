"""Ablations of LDplayer's design choices (DESIGN.md's ablation list).

Each test removes one design element and shows the paper's choice wins:

* the customized binary input format vs parsing text/pcap on the hot path,
* the Reader's pre-loaded input window vs none,
* sticky same-source routing vs random spraying (connection reuse),
* the Δt̄ − Δt timing correction vs a naive fixed-gap sender,
* the split-horizon meta-server vs one host per nameserver address,
* Nagle on vs off at the replay client (the paper's optimization).
"""

import io
import time

from repro.experiments import build_evaluation_topology
from repro.experiments.fig6_timing import wildcard_example_zone
from repro.hierarchy import HierarchyEmulation, SimulatedInternet, \
    address_to_zones
from repro.netsim import EventLoop, Network
from repro.replay import QuerierConfig, ReplayConfig, SimReplayEngine
from repro.server import AuthoritativeServer, HostedDnsServer, \
    TransportConfig
from repro.trace import (BRootWorkload, QueryMutator, all_protocol,
                         fixed_interval_trace, make_hierarchy_zones,
                         make_root_zone, read_binary, read_pcap, read_text,
                         retarget, write_binary, write_pcap, write_text)


class TestInputFormatAblation:
    """§2.5: binary beats text and pcap on the replay input path."""

    def test_binary_input_fastest(self):
        trace = fixed_interval_trace(0.001, 20.0, name="fmt-bench")

        binary_buffer = io.BytesIO()
        write_binary(trace, binary_buffer)
        text_buffer = io.StringIO()
        write_text(trace, text_buffer)
        pcap_buffer = io.BytesIO()
        write_pcap(trace, pcap_buffer)

        def parse_all():
            timings = {}
            start = time.perf_counter()
            binary_buffer.seek(0)
            count_binary = len(read_binary(binary_buffer))
            timings["binary"] = time.perf_counter() - start

            start = time.perf_counter()
            text_buffer.seek(0)
            count_text = len(read_text(text_buffer))
            timings["text"] = time.perf_counter() - start

            start = time.perf_counter()
            pcap_buffer.seek(0)
            count_pcap = len(read_pcap(pcap_buffer))
            timings["pcap"] = time.perf_counter() - start
            assert count_binary == count_text == count_pcap == len(trace)
            return timings

        timings = parse_all()
        rate = {fmt: len(trace) / seconds
                for fmt, seconds in timings.items()}
        print(f"\nparse rates (records/s): "
              + ", ".join(f"{fmt}={value:,.0f}"
                          for fmt, value in rate.items()))
        assert rate["binary"] > rate["text"]
        assert rate["binary"] > rate["pcap"]


class TestInputWindowAblation:
    """§3: the Reader pre-loads a window to avoid falling behind."""

    def test_window_prevents_lateness(self):
        def run_with(window):
            testbed = build_evaluation_topology()
            HostedDnsServer(testbed.server_host,
                            AuthoritativeServer.single_view(
                                [wildcard_example_zone()]))
            trace = QueryMutator([retarget(testbed.server_address)]).apply(
                fixed_interval_trace(0.001, 3.0))
            engine = SimReplayEngine(testbed.network, ReplayConfig(
                input_window=window,
                input_delay_per_record=0.002))  # slow input: 2 ms/record
            result = engine.replay(trace)
            errors = result.send_time_errors()
            return max(errors)

        windowed, unwindowed = run_with(window=5000), run_with(window=1)
        print(f"\nmax lateness: window=5000 -> {windowed * 1e3:.1f} ms, "
              f"window=1 -> {unwindowed * 1e3:.1f} ms")
        assert windowed < 0.005
        assert unwindowed > 0.5  # input starvation makes replay drift late


class TestAffinityAblation:
    """§2.6: sticky source routing is what enables connection reuse."""

    def test_reuse_drops_without_affinity(self):
        def run_with(affinity):
            testbed = build_evaluation_topology()
            HostedDnsServer(
                testbed.server_host,
                AuthoritativeServer.single_view([make_root_zone(30)]),
                config=TransportConfig(tcp_idle_timeout=20.0))
            base = BRootWorkload(duration=20.0, mean_rate=80,
                                 seed=33).generate()
            trace = QueryMutator([retarget(testbed.server_address),
                                  all_protocol("tcp")]).apply(base)
            engine = SimReplayEngine(testbed.network, ReplayConfig(
                same_source_affinity=affinity))
            result = engine.replay(trace)
            return result.reuse_fraction(), \
                testbed.server_host.tcp_stack.total_accepted

        (sticky_reuse, sticky_conns), (random_reuse, random_conns) = \
            run_with(True), run_with(False)
        print(f"\nreuse: sticky={sticky_reuse:.2f} ({sticky_conns} conns), "
              f"random={random_reuse:.2f} ({random_conns} conns)")
        assert sticky_reuse > random_reuse
        assert sticky_conns < random_conns


class TestTimingCorrectionAblation:
    """§2.6: ΔT = Δt̄ − Δt absorbs processing delay; naive senders drift."""

    def test_naive_sender_drifts(self):
        def compare():
            trace = fixed_interval_trace(0.001, 5.0)
            per_record_cost = 0.0002  # 0.2 ms of processing per query

            # Naive: sleep the inter-arrival gap, pay the cost on top.
            naive_clock = 0.0
            naive_errors = []
            previous = trace[0].timestamp
            for record in trace:
                naive_clock += (record.timestamp - previous) \
                    + per_record_cost
                previous = record.timestamp
                naive_errors.append(naive_clock - record.timestamp)

            # LDplayer: target absolute times, compensate for the cost.
            corrected_clock = 0.0
            corrected_errors = []
            for record in trace:
                corrected_clock = max(corrected_clock + per_record_cost,
                                      record.timestamp)
                corrected_errors.append(corrected_clock - record.timestamp)
            return max(naive_errors), max(corrected_errors)

        naive_drift, corrected_drift = compare()
        print(f"\nmax drift: naive={naive_drift:.3f}s, "
              f"corrected={corrected_drift * 1e3:.3f}ms")
        assert naive_drift > 0.5       # 5000 queries x 0.2 ms accumulates
        assert corrected_drift < 0.001


class TestDeploymentAblation:
    """§2.4: the meta-server collapses the per-zone host fleet."""

    def test_host_count_collapse(self):
        zones = make_hierarchy_zones(5, 8)

        internet = SimulatedInternet(Network(EventLoop()), zones)
        emulation = HierarchyEmulation(Network(EventLoop()), zones)
        naive_hosts, meta_hosts, views = \
            internet.server_count(), 1, emulation.view_count()
        print(f"\nnaive hosts={naive_hosts}, meta hosts={meta_hosts}, "
              f"views={views}")
        assert naive_hosts == len(address_to_zones(zones))
        assert naive_hosts > 20
        assert meta_hosts == 1
        assert views == naive_hosts  # one view per collapsed address


class TestNagleAblation:
    """§5.2: disabling Nagle at the client removes send stalls."""

    def test_client_nagle_increases_latency(self):
        def run_with(nagle):
            testbed = build_evaluation_topology(client_rtt=0.040)
            HostedDnsServer(
                testbed.server_host,
                AuthoritativeServer.single_view([make_root_zone(30)]),
                config=TransportConfig(tcp_idle_timeout=20.0))
            base = BRootWorkload(duration=10.0, mean_rate=60,
                                 seed=44).generate()
            trace = QueryMutator([retarget(testbed.server_address),
                                  all_protocol("tcp")]).apply(base)
            engine = SimReplayEngine(testbed.network, ReplayConfig(
                querier=QuerierConfig(nagle=nagle)))
            result = engine.replay(trace)
            latencies = sorted(result.latencies())
            return latencies[len(latencies) * 3 // 4]  # p75

        nodelay_p75, nagle_p75 = run_with(False), run_with(True)
        print(f"\np75 latency: nodelay={nodelay_p75 * 1e3:.1f} ms, "
              f"nagle={nagle_p75 * 1e3:.1f} ms")
        assert nagle_p75 >= nodelay_p75
