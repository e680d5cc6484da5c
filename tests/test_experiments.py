"""Smoke-level tests for every experiment harness: each must run at a
tiny scale and reproduce the paper's qualitative shape."""

import pytest

from repro.experiments import (RootRunConfig, Scale, build_evaluation_topology,
                               gib, run_root_replay)
from repro.experiments import common
from repro.experiments import (fig6_timing, fig7_interarrival, fig8_rate,
                               fig9_throughput, fig10_dnssec, fig11_cpu,
                               fig13_14_footprint, fig15_latency,
                               hierarchy_validation, table1)

TINY = Scale("tiny", rate=40.0, duration=15.0, monitor_period=5.0)


class TestScaleMath:
    def test_report_factor(self):
        assert TINY.report_factor == pytest.approx(38000 / 40)

    def test_clients_scale_with_rate(self):
        assert TINY.clients == int(40 * common.CLIENTS_PER_RATE)

    def test_presets_exist(self):
        assert set(common.SCALES) == {"smoke", "quick", "full"}


class TestTopology:
    def test_fig5_topology(self):
        testbed = build_evaluation_topology()
        assert testbed.server_host.primary_address == testbed.server_address
        assert testbed.network.host("controller")

    def test_fig12_rtt(self):
        testbed = build_evaluation_topology(client_rtt=0.08)
        assert testbed.network.latency.rtt("client-1", "server") == 0.08


class TestRootHarness:
    def test_original_run_answers(self):
        output = run_root_replay(RootRunConfig(scale=TINY))
        assert output.result.answered_fraction() > 0.95
        assert output.monitor.samples

    def test_tcp_mutation_applied(self):
        output = run_root_replay(RootRunConfig(scale=TINY, protocol="tcp"))
        assert all(record.protocol == "tcp" for record in output.trace)

    def test_do_fraction_mutation(self):
        output = run_root_replay(RootRunConfig(scale=TINY, protocol="original",
                                               do_fraction=1.0))
        do = sum(1 for r in output.trace if r.message().dnssec_ok)
        assert do == len(output.trace)


class TestTable1:
    def test_rows_for_every_trace(self):
        output = table1.run(TINY)
        names = [row[0] for row in output.rows]
        for expected in ("B-Root-16", "B-Root-17a", "B-Root-17b", "Rec-17",
                         "syn-0", "syn-4"):
            assert expected in names

    def test_synthetic_interarrivals_exact(self):
        output = table1.run(TINY)
        by_name = {row[0]: row for row in output.rows}
        assert by_name["syn-2"][2] == pytest.approx(0.01)


# Each experiment runs once per class: the same arguments give the same
# rows, and one run takes about 20 s.
@pytest.fixture(scope="class")
def fig6_output():
    return fig6_timing.run(TINY, max_queries=3000)


@pytest.fixture(scope="class")
def fig7_output():
    return fig7_interarrival.run(TINY, max_queries=2000)


class TestFig6:
    def test_error_quartiles_in_paper_range(self, fig6_output):
        by_trace = {row[0]: row for row in fig6_output.rows}
        # typical quartiles within a few ms; extremes within ±17 ms
        for label, row in by_trace.items():
            assert abs(row[1]) < 12.0, (label, row)
            assert abs(row[3]) <= 17.01 and abs(row[4]) <= 17.01

    def test_anomaly_at_tenth_second(self, fig6_output):
        by_trace = {row[0]: row for row in fig6_output.rows}
        tenth = by_trace["0.1 s"]
        hundredth = by_trace["0.01 s"]
        assert abs(tenth[3]) > abs(hundredth[1])  # wider distribution


class TestFig7:
    def test_median_on_target(self, fig7_output):
        for row in fig7_output.rows:
            original_median, replay_median = row[1], row[2]
            assert replay_median == pytest.approx(original_median,
                                                  rel=0.6)

    def test_broot_cdf_close(self, fig7_output):
        broot = [row for row in fig7_output.rows if row[0] == "B-Root"][0]
        assert broot[5] < 0.08  # max CDF distance


class TestFig8:
    def test_rates_track(self):
        output = fig8_rate.run(TINY, trials=2)
        assert len(output.rows) == 2
        for row in output.rows:
            assert row[3] > 0.7  # within ±2 %


class TestFig9:
    def test_live_and_simulated_rows(self):
        output = fig9_throughput.run(TINY, live_queries=2000,
                                     sim_queries=2000)
        modes = [row[0] for row in output.rows]
        assert "live loopback" in modes
        assert "simulated fast-path" in modes
        live = output.rows[0]
        assert live[2] > 1000  # q/s


class TestFig10:
    @pytest.fixture(scope="class")
    def output(self):
        return fig10_dnssec.run(TINY)

    def test_configuration_set(self, output):
        # Six paper bars + two future-work 4096-bit rows.
        assert len(output.rows) == 8
        zsk_sizes = {row[1] for row in output.rows}
        assert zsk_sizes == {1024, 2048, 4096}

    def test_do_increase(self, output):
        rows = {(row[0], row[1], row[2]): row[3] for row in output.rows}
        base = rows[("72.3%", 2048, "normal")]
        full = rows[("100%", 2048, "normal")]
        increase = full / base - 1
        assert 0.10 < increase < 0.60  # paper: +31 %

    def test_key_size_increase(self, output):
        rows = {(row[0], row[1], row[2]): row[3] for row in output.rows}
        small = rows[("72.3%", 1024, "normal")]
        large = rows[("72.3%", 2048, "normal")]
        increase = large / small - 1
        assert 0.15 < increase < 0.60  # paper: +32 %


class TestFig11:
    @pytest.fixture(scope="class")
    def output(self):
        return fig11_cpu.run(TINY, timeouts=(5.0, 20.0))

    def test_tcp_cheaper_than_original(self, output):
        rows = {(row[0], row[1]): row[2] for row in output.rows}
        assert rows[("tcp", 20.0)] < rows[("original", 20.0)]

    def test_tls_between(self, output):
        rows = {(row[0], row[1]): row[2] for row in output.rows}
        assert rows[("tcp", 20.0)] < rows[("tls", 20.0)]

    def test_magnitudes_near_paper(self, output):
        rows = {(row[0], row[1]): row[2] for row in output.rows}
        assert 2.0 < rows[("tcp", 20.0)] < 9.0       # paper ~5 %
        assert 6.0 < rows[("original", 20.0)] < 15.0  # paper ~10 %

    def test_tls_higher_at_small_timeout(self, output):
        rows = {(row[0], row[1]): row[2] for row in output.rows}
        assert rows[("tls", 5.0)] > rows[("tls", 20.0)]


class TestFig13And14:
    @pytest.fixture(scope="class")
    def tcp_output(self):
        return fig13_14_footprint.run("tcp", TINY, timeouts=(5.0, 20.0),
                                      include_baseline=True)

    def test_memory_grows_with_timeout(self, tcp_output):
        rows = {row[0]: row for row in tcp_output.rows}
        assert rows[20.0][1] > rows[5.0][1]

    def test_connections_grow_with_timeout(self, tcp_output):
        rows = {row[0]: row for row in tcp_output.rows}
        assert rows[20.0][3] > rows[5.0][3]

    def test_tcp_memory_magnitude(self, tcp_output):
        rows = {row[0]: row for row in tcp_output.rows}
        assert 8.0 < rows[20.0][1] < 25.0  # paper ~15 GB

    def test_baseline_small(self, tcp_output):
        rows = {row[0]: row for row in tcp_output.rows}
        assert rows["original/20"][1] < rows[20.0][1] / 2

    def test_tls_costs_more_than_tcp(self, tcp_output):
        tls_output = fig13_14_footprint.run("tls", TINY, timeouts=(20.0,),
                                            include_baseline=False)
        tcp_mem = {row[0]: row for row in tcp_output.rows}[20.0][1]
        tls_mem = tls_output.rows[0][1]
        assert tls_mem > tcp_mem
        assert tls_mem / tcp_mem < 1.6  # paper: ~+20-30 %


class TestFig15:
    @pytest.fixture(scope="class")
    def points(self):
        return fig15_latency.measure(TINY, rtts_ms=(20.0, 160.0))

    def find(self, points, protocol, rtt, group):
        for point in points:
            if (point.protocol, point.rtt_ms, point.group) == \
                    (protocol, rtt, group):
                return point
        raise AssertionError(f"missing {protocol}/{rtt}/{group}")

    def test_udp_latency_is_one_rtt(self, points):
        point = self.find(points, "original", 160.0, "all")
        assert point.stats["median"] == pytest.approx(0.160, rel=0.1)

    def test_tcp_all_clients_near_udp(self, points):
        udp = self.find(points, "original", 160.0, "all")
        tcp = self.find(points, "tcp", 160.0, "all")
        assert tcp.stats["median"] < udp.stats["median"] * 2.2

    def test_tcp_non_busy_about_two_rtt(self, points):
        point = self.find(points, "tcp", 160.0, "non-busy")
        assert 1.4 < point.median_rtt_multiple() < 2.6  # paper ~2

    def test_tls_non_busy_toward_four_rtt(self, points):
        point = self.find(points, "tls", 160.0, "non-busy")
        assert 3.0 < point.median_rtt_multiple() < 4.6  # paper -> 4

    def test_tls_grows_nonlinearly(self, points):
        low = self.find(points, "tls", 20.0, "non-busy")
        high = self.find(points, "tls", 160.0, "non-busy")
        assert high.median_rtt_multiple() > low.median_rtt_multiple()

    def test_threshold_scaling(self):
        assert fig15_latency.non_busy_threshold(1200.0) == 250
        assert fig15_latency.non_busy_threshold(12.0) == 8


class TestHierarchyValidation:
    def test_emulation_equivalence(self):
        output = hierarchy_validation.run(TINY, max_questions=25)
        rows = {row[0]: row for row in output.rows}
        matched, total = rows["answer equivalence"][1].split("/")
        assert matched == total
        repeat, total2 = rows["repeatability"][1].split("/")
        assert repeat == total2

    def test_deployment_cost_reduced(self):
        output = hierarchy_validation.run(TINY, max_questions=10)
        rows = {row[0]: row for row in output.rows}
        naive, meta = rows["deployment cost"][1].split(" -> ")
        assert int(naive.split()[0]) > int(meta.split()[0])


class TestRendering:
    def test_render_contains_paper_claims(self):
        output = table1.run(TINY)
        text = output.render()
        assert "paper" in text
        assert "B-Root-16" in text


class TestFootprintTimeseries:
    def test_timeseries_shape(self):
        series_scale = Scale("ts", rate=40.0, duration=150.0,
                             monitor_period=25.0)
        output = fig13_14_footprint.run_timeseries("tcp", series_scale,
                                                   timeout=20.0)
        assert len(output.rows) >= 5
        times = [row[0] for row in output.rows]
        assert times == sorted(times)
        memories = [row[1] for row in output.rows]
        # Connection-driven memory is far above the baseline and roughly
        # flat once steady (paper: stable after ~5 minutes).
        assert memories[0] > 5.0
        steady = memories[len(memories) // 2 :]
        assert max(steady) - min(steady) < max(steady) * 0.4
        # TIME_WAIT builds toward its 60s-lifetime steady population.
        time_waits = [row[4] for row in output.rows]
        assert max(time_waits) > time_waits[0]
