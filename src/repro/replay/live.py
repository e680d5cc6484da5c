"""Loopback fixtures for the live path, and the Figure 9 flood.

The simulator reproduces the paper's *experiments*; the live replay
(:class:`repro.replay.multiproc.ProcessTopology`) keeps the system
honest against a real OS.  This module holds what that replay runs
against on one host — a UDP echo server and the receive-buffer sizing
every replay socket shares — plus the single-socket maximum send rate
of Figure 9.

The paper's C++ implementation reaches 87 k q/s on one core; a Python
reproduction will be slower (the repro calibration flags exactly this),
so Figure 9's bench reports the measured rate alongside the paper's and
the ratio to a typical root-letter load.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional

from ..dns import Message, Name, RRType

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


@dataclass
class ThroughputSample:
    time_offset: float
    queries_per_second: float
    megabits_per_second: float


@dataclass
class ThroughputReport:
    """Figure 9: sustained replay rate of a continuous query stream."""

    duration: float
    queries_sent: int
    responses_received: int
    mean_qps: float
    mean_mbps: float
    samples: List[ThroughputSample] = field(default_factory=list)


def measure_throughput(duration: float = 2.0,
                       qname: str = "www.example.com.",
                       sample_period: float = 0.5) -> ThroughputReport:
    """Blast identical queries over loopback UDP as fast as possible.

    Mirrors §4.3: a continuous stream of identical queries
    (www.example.com), sent over UDP without timer events, against a
    server that answers every query.
    """
    wire = Message.make_query(Name.from_text(qname), RRType.A,
                              msg_id=1234).to_wire()
    with LiveUdpEchoServer() as server:
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sender.connect((server.address, server.port))
        sender.setblocking(False)

        sent = 0
        received = 0
        samples: List[ThroughputSample] = []
        start = time.monotonic()
        next_sample = start + sample_period
        sent_at_sample = 0
        while True:
            now = time.monotonic()
            if now - start >= duration:
                break
            try:
                sender.send(wire)
                sent += 1
            except BlockingIOError:
                pass
            # Drain responses opportunistically.
            try:
                while True:
                    sender.recv(65535)
                    received += 1
            except BlockingIOError:
                pass
            if now >= next_sample:
                window_queries = sent - sent_at_sample
                qps = window_queries / sample_period
                samples.append(ThroughputSample(
                    now - start, qps, qps * len(wire) * 8 / 1e6))
                sent_at_sample = sent
                next_sample += sample_period
        elapsed = time.monotonic() - start
        sender.close()
    mean_qps = sent / elapsed if elapsed > 0 else 0.0
    return ThroughputReport(
        duration=elapsed, queries_sent=sent, responses_received=received,
        mean_qps=mean_qps, mean_mbps=mean_qps * len(wire) * 8 / 1e6,
        samples=samples)
