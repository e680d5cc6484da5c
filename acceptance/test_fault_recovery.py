"""Fault recovery acceptance check: syn-1 through loss and a server outage.

The acceptance bar for the fault-injection subsystem: replaying a
Table 1 synthetic trace under 5 % packet loss plus one 2 s server
crash/restart, the retry/reconnect machinery must still complete
≥ 99 % of queries, with nothing silently stranded at drain time.
"""

import pytest

from repro.experiments.fig6_timing import wildcard_example_zone
from repro.experiments.topology import build_evaluation_topology
from repro.netsim import FaultInjector, FaultPlan, RetryPolicy
from repro.replay import QuerierConfig, ReplayConfig, SimReplayEngine
from repro.server import AuthoritativeServer, HostedDnsServer
from repro.trace import make_root_zone, table1_synthetic

pytestmark = pytest.mark.faults


def replay_syn1_with_faults(duration=60.0):
    trace = table1_synthetic("syn-1", duration=duration)
    testbed = build_evaluation_topology()
    HostedDnsServer(testbed.server_host,
                    AuthoritativeServer.single_view(
                        [wildcard_example_zone(), make_root_zone(30)]))
    plan = (FaultPlan()
            # 5 % loss across the whole replay window...
            .loss_burst(start=0.0, duration=duration + 10.0, rate=0.05)
            # ...plus one 2 s server outage in the middle.
            .server_outage(start=duration / 2, duration=2.0,
                           host="server"))
    injector = FaultInjector(testbed.network, plan, seed=3)
    retry = RetryPolicy(udp_timeout=0.5, backoff=2.0, max_timeout=4.0,
                        max_retries=4)
    engine = SimReplayEngine(
        testbed.network,
        ReplayConfig(querier=QuerierConfig(retry=retry)))
    result = engine.replay(trace, extra_time=30.0)
    return trace, injector, result


def test_syn1_recovers_from_loss_and_outage():
    trace, injector, result = replay_syn1_with_faults()
    counts = result.failure_counts()
    print()
    print(f"{len(result)} queries, injector: {injector.counters()}")
    print(f"recovery: {counts}")

    assert len(result) == len(trace.records)
    # The faults really happened...
    assert injector.dropped_by_loss > 0
    assert injector.crashes == 1 and injector.restarts == 1
    # ...the recovery machinery really ran...
    assert counts["udp_timeouts"] > 0
    assert counts["retries"] > 0
    # ...and ≥99% of queries completed anyway.
    answered = len(result) - counts["unanswered"]
    assert answered / len(result) >= 0.99
    # Nothing hides: at drain time every query is answered (the retry
    # budget comfortably covers 5% loss and a 2 s outage).
    assert counts["unanswered"] == 0
    assert counts["gave_up"] == 0
