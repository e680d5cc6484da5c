"""Loopback fixtures for the live path.

The simulator reproduces the paper's *experiments*; the live replay
(:class:`repro.replay.multiproc.ProcessTopology`) keeps the system
honest against a real OS.  This module holds what that replay runs
against on one host: a UDP echo server and the receive-buffer sizing
every replay socket shares.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

LOOPBACK = "127.0.0.1"

# Asked of the kernel for every UDP socket that receives a replay's
# queries or echoes, best effort (the kernel clamps to ``rmem_max``): a
# burst must survive its reader being descheduled for a few
# milliseconds, and a redelivery burst must not outrun the echo thread.
UDP_RCVBUF = 1 << 22


def grow_receive_buffer(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RCVBUF)
    except OSError:
        pass


class LiveUdpEchoServer:
    """A minimal UDP DNS responder: flips QR and echoes the message.

    Runs in a daemon thread.  Deliberately does no parsing beyond the
    header so the *client* is the measured bottleneck, matching the
    paper's single-host throughput methodology (the query generator
    saturated one core, §4.3).
    """

    def __init__(self, address: str = LOOPBACK, port: int = 0):
        self._socket = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        grow_receive_buffer(self._socket)
        self._socket.bind((address, port))
        self._socket.settimeout(0.2)
        self.address, self.port = self._socket.getsockname()
        self.responses_sent = 0
        self._running = False
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "LiveUdpEchoServer":
        self._running = True
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def _serve(self) -> None:
        while self._running:
            try:
                data, peer = self._socket.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break
            if len(data) < 12:
                continue
            reply = bytearray(data)
            reply[2] |= 0x80  # set QR
            try:
                self._socket.sendto(bytes(reply), peer)
                self.responses_sent += 1
            except OSError:
                break

    def stop(self) -> None:
        self._running = False
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._socket.close()

    def __enter__(self) -> "LiveUdpEchoServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
