"""Figure 11: server CPU usage vs TCP timeout, per protocol."""

from repro.experiments import fig11_cpu


def test_fig11_cpu_usage(bench_scale):
    output = fig11_cpu.run(bench_scale, timeouts=(5.0, 10.0, 20.0, 40.0))
    print()
    print(output.render())
    rows = {(row[0], row[1]): row[2] for row in output.rows}

    # The paper's surprise: the original UDP-dominated trace costs MORE
    # CPU than all-TCP (NIC offload), ~10 % vs ~5 % on 48 cores.
    assert rows[("original", 20.0)] > rows[("tcp", 20.0)]
    assert 2.5 < rows[("tcp", 20.0)] < 9.0
    assert 6.0 < rows[("original", 20.0)] < 15.0

    # TLS lands between, ~9-10 %, with a bump at the 5 s timeout from
    # extra handshake churn.
    assert rows[("tcp", 20.0)] < rows[("tls", 20.0)] < 16.0
    assert rows[("tls", 5.0)] > rows[("tls", 20.0)]

    # Flat across timeouts for TCP (the paper's flat lines).
    tcp_values = [rows[("tcp", t)] for t in (5.0, 10.0, 20.0, 40.0)]
    assert max(tcp_values) - min(tcp_values) < 2.0
