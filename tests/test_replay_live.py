"""Tests for the live path's loopback fixtures.  Kept short: these use
real wall-clock time on loopback."""

import pytest

from repro.replay import (LiveUdpEchoServer, ThroughputReport,
                          measure_throughput)


class TestEchoServer:
    def test_start_stop(self):
        with LiveUdpEchoServer() as server:
            assert server.port > 0
            assert server.address == "127.0.0.1"

    def test_echoes_with_qr_bit(self):
        import socket
        with LiveUdpEchoServer() as server:
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(2.0)
            query = b"\x12\x34\x01\x00" + b"\x00" * 8 + b"payload"
            sock.sendto(query, (server.address, server.port))
            reply, _peer = sock.recvfrom(65535)
            sock.close()
        assert reply[:2] == b"\x12\x34"
        assert reply[2] & 0x80  # QR set
        assert reply[3:] == query[3:]


class TestThroughput:
    def test_measure_throughput_reports(self):
        report = measure_throughput(duration=0.4, sample_period=0.2)
        assert isinstance(report, ThroughputReport)
        assert report.queries_sent > 100
        assert report.mean_qps > 500
        assert report.responses_received > 0
        assert report.samples
        assert report.mean_mbps > 0
