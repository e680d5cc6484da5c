"""Tests for the shared root-server harness and its workload builder."""

import pytest

from repro.dns import Name, RRType
from repro.experiments import Scale
from repro.experiments.rootserver import (SERVER_CORES, RootRunConfig,
                                          build_workload, make_signed_root,
                                          run_root_replay)
from repro.experiments.topology import build_evaluation_topology
from repro.netsim import ResourceMonitor, ServerResourceModel
from repro.replay import (QuerierConfig, ReplayConfig, SimReplayEngine,
                          TimerJitterModel)
from repro.server import (AuthoritativeServer, HostedDnsServer,
                          TransportConfig)

TINY = Scale("hrn", rate=30.0, duration=10.0, monitor_period=5.0)


class TestSignedRoot:
    def test_unsigned(self):
        zone = make_signed_root(RootRunConfig(signed=False))
        assert zone.get(zone.origin, RRType.DNSKEY) is None

    def test_signed_has_keys_and_nsec(self):
        zone = make_signed_root(RootRunConfig(zsk_bits=1024))
        dnskeys = zone.get(zone.origin, RRType.DNSKEY)
        assert dnskeys is not None and len(dnskeys) == 2
        assert zone.get(zone.origin, RRType.NSEC) is not None

    def test_rollover_adds_incoming_key(self):
        normal = make_signed_root(RootRunConfig(zsk_bits=2048))
        rolling = make_signed_root(RootRunConfig(zsk_bits=2048,
                                                 rollover=True))
        assert len(rolling.get(rolling.origin, RRType.DNSKEY)) == \
            len(normal.get(normal.origin, RRType.DNSKEY)) + 1

    def test_tld_count_respected(self):
        zone = make_signed_root(RootRunConfig(tld_count=12, signed=False))
        tlds = [name for name in zone.names()
                if len(name) == 1 and zone.get(name, RRType.NS)]
        assert len(tlds) == 12


class TestWorkloadBuilder:
    def test_retargeted_to_server(self):
        trace = build_workload(RootRunConfig(scale=TINY))
        assert all(record.dst == "10.0.0.2" for record in trace)

    def test_protocol_mutation(self):
        trace = build_workload(RootRunConfig(scale=TINY, protocol="tls"))
        assert all(record.protocol == "tls" for record in trace)

    def test_original_keeps_mixed_protocols(self):
        trace = build_workload(RootRunConfig(scale=TINY,
                                             protocol="original"))
        protocols = {record.protocol for record in trace}
        assert "udp" in protocols

    def test_do_fraction_override(self):
        trace = build_workload(RootRunConfig(scale=TINY, do_fraction=0.0))
        assert not any(record.message().dnssec_ok for record in trace)

    def test_seed_controls_workload(self):
        a = build_workload(RootRunConfig(scale=TINY, seed=1))
        b = build_workload(RootRunConfig(scale=TINY, seed=1))
        c = build_workload(RootRunConfig(scale=TINY, seed=2))
        assert [r.wire for r in a] == [r.wire for r in b]
        assert [r.wire for r in a] != [r.wire for r in c]


class TestRunOutput:
    @pytest.fixture(scope="class")
    def output(self):
        return run_root_replay(RootRunConfig(scale=TINY, protocol="tcp",
                                             tcp_timeout=5.0))

    def test_samples_cover_run(self, output):
        times = [sample.time for sample in output.monitor.samples]
        assert times == sorted(times)
        assert times[-1] >= TINY.duration - TINY.monitor_period

    def test_scale_factor_attached(self, output):
        assert output.scale_factor == pytest.approx(TINY.report_factor)
        assert output.resources.scale_factor == output.scale_factor

    def test_bandwidth_series_scaled(self, output):
        series = output.response_mbps_series()
        assert series
        # Scaled bandwidth should be in a plausible root-server range
        # (tens to hundreds of Mb/s), not the raw sampled kb/s.
        assert 1.0 < max(series) < 2000.0

    def test_cpu_utilization_positive(self, output):
        assert 0.0 < output.cpu_utilization_scaled() < 1.0

    def test_steady_samples_subset(self, output):
        steady = output.steady_samples()
        assert len(steady) <= len(output.monitor.samples)

    def test_telemetry_attached_to_output(self, output):
        assert output.telemetry is not None
        assert output.telemetry.sampler is output.monitor.sampler
        assert output.telemetry.sampler.period == TINY.monitor_period
        # Hosting-layer probes landed on the sampler.
        assert "server.queue_depth" in output.telemetry.sampler.columns()


def run_with_resource_monitor(config):
    """The pre-telemetry harness: same workload, polled by the old
    :class:`ResourceMonitor` instead of the telemetry sampler."""
    testbed = build_evaluation_topology(client_rtt=config.client_rtt)
    zone = make_signed_root(config)
    trace = build_workload(config)

    resources = ServerResourceModel(testbed.loop, cores=SERVER_CORES)
    resources.scale_factor = config.scale.report_factor
    HostedDnsServer(
        testbed.server_host,
        AuthoritativeServer.single_view([zone]),
        config=TransportConfig(udp=True, tcp=True, tls=True,
                               tcp_idle_timeout=config.tcp_timeout),
        resources=resources)
    monitor = ResourceMonitor(testbed.loop, resources,
                              period=config.scale.monitor_period)
    monitor.start()

    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(client_instances=4, queriers_per_instance=6,
                     track_timing=config.track_timing,
                     jitter=TimerJitterModel(None, seed=config.seed)
                     if config.jitter else None,
                     querier=QuerierConfig(nagle=False)))
    start_time = testbed.loop.now
    engine.schedule_trace(trace)
    testbed.loop.run_until(start_time + config.scale.duration + 5.0)
    monitor.stop()
    return monitor


class TestSamplerAgreesWithResourceMonitor:
    """Fig 11/13/14 now read the telemetry sampler; the series must be
    the ones the old bespoke ResourceMonitor polling produced."""

    @pytest.fixture(scope="class", params=["original", "tcp"])
    def pair(self, request):
        config = RootRunConfig(scale=TINY, protocol=request.param,
                               tcp_timeout=5.0)
        return (run_with_resource_monitor(config),
                run_root_replay(config).monitor)

    def test_sample_times_identical(self, pair):
        old, new = pair
        assert [s.time for s in old.samples] == \
            [s.time for s in new.samples]

    def test_cpu_series_identical(self, pair):
        old, new = pair
        assert [s.cpu_utilization for s in old.samples] == \
            [s.cpu_utilization for s in new.samples]

    def test_memory_and_connection_series_identical(self, pair):
        old, new = pair
        for field in ("memory_total", "memory_process", "established",
                      "time_wait"):
            assert [getattr(s, field) for s in old.samples] == \
                [getattr(s, field) for s in new.samples], field

    def test_steady_state_identical(self, pair):
        old, new = pair
        assert [s.time for s in old.steady_state(skip=5.0)] == \
            [s.time for s in new.steady_state(skip=5.0)]
