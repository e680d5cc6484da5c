"""Tests for the live path's loopback fixtures.  Kept short: these use
real wall-clock time on loopback."""

from repro.replay import LiveUdpEchoServer


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
