"""Application checks: DoS study and sharded hierarchy (paper §1/§2.2
applications and stated future work)."""

from repro.experiments import Scale, dos_attack

DOS_SCALE = Scale("dos-bench", rate=60.0, duration=30.0, monitor_period=10.0)


def test_dos_attack_study():
    output = dos_attack.run(DOS_SCALE)
    print()
    print(output.render())
    rows = {row[0]: row for row in output.rows}

    baseline = rows["baseline"]
    udp20 = rows["udp-flood x20"]
    syn20 = rows["syn-flood x20"]

    # UDP flood burns CPU (possibly past saturation) without touching
    # the connection table.
    assert udp20[1] == "100 (sat.)" or float(udp20[1]) > \
        float(baseline[1]) * 3
    assert udp20[3] == baseline[3] == 0  # no half-open from UDP

    # SYN flood fills the table and starves legitimate TCP clients.
    assert syn20[3] > 50_000            # half-open population
    assert syn20[4] > 0                 # SYN drops at the table cap
    assert syn20[6] < baseline[6] - 0.1  # legit answered fraction falls


def test_sharded_hierarchy_scales_out():
    from repro.dns import DNS_PORT, Message, Name, RRType
    from repro.hierarchy import ShardedHierarchyEmulation
    from repro.netsim import EventLoop, Network
    from repro.trace import RecursiveWorkload, make_hierarchy_zones
    from repro.zonegen import unique_questions

    def run_sharded():
        zones = make_hierarchy_zones(4, 6)
        trace = RecursiveWorkload(duration=30, total_queries=400,
                                  zones=zones).generate()
        loop = EventLoop()
        network = Network(loop)
        emulation = ShardedHierarchyEmulation(network, zones, shards=4)
        stub = network.add_host("stub", "10.80.0.1")
        results = {}

        def callback_for(key):
            def callback(_s, wire, _a, _p):
                results[key] = Message.from_wire(wire).rcode.name
            return callback

        questions = unique_questions(trace)[:60]
        for index, (qname, qtype) in enumerate(questions):
            sock = stub.bind_udp("10.80.0.1", 0,
                                 callback_for((qname, qtype)))
            sock.sendto(Message.make_query(qname, qtype,
                                           msg_id=index + 1).to_wire(),
                        emulation.recursive_address, DNS_PORT)
        loop.run(max_time=120)
        return emulation, results, questions

    emulation, results, questions = run_sharded()
    per_shard = emulation.queries_per_shard()
    print(f"\nshards={emulation.shards}, per-shard queries={per_shard}, "
          f"answered={len(results)}/{len(questions)}")
    assert len(results) == len(questions)
    assert all(rcode in ("NOERROR", "NXDOMAIN")
               for rcode in results.values())
    assert all(count > 0 for count in per_shard)  # load spread out
    assert emulation.recursive_proxy.unroutable == 0
