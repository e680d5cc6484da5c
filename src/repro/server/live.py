"""The socket driver of :class:`~repro.server.hosting.DnsServerCore`:
a child process serves a loopback UDP socket through the datagram
routine ``HostedDnsServer`` runs, off the processes a live replay
measures (§4.3: the query generator is the bottleneck).
"""

from __future__ import annotations

import importlib
import multiprocessing
import selectors
import socket
from typing import Dict, Optional, Tuple

from .hosting import DnsServerCore

LOOPBACK = "127.0.0.1"

# Asked of the kernel for every UDP socket that receives a replay's
# queries or answers, best effort (the kernel clamps to ``rmem_max``): a
# burst must survive its reader being descheduled for a few ms.
UDP_RCVBUF = 1 << 22

# Datagrams served per wake: the stop pipe is looked at between wakes,
# so a stop is seen even while senders keep the socket full.
_DRAIN_LIMIT = 256
_CHILD_TIMEOUT = 10.0

# A callable named by ``(module, attribute path, kwargs)``, resolved by
# import in the process that runs it.
FactorySpec = Tuple[str, str, dict]


def _resolve_factory(spec: FactorySpec):
    module_name, attribute, _kwargs = spec
    target = importlib.import_module(module_name)
    for part in attribute.split("."):
        target = getattr(target, part)
    return target


def _mp_context(start_method: Optional[str] = None):
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def grow_receive_buffer(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RCVBUF)
    except OSError:
        pass


class EchoEngine:
    """Answers a query with itself, QR set, reading nothing past the
    header: the client stays the measured bottleneck."""

    @staticmethod
    def serve_wire_fast(wire: bytes, source: str, transport: str):
        if len(wire) < 12:
            return None     # the core's decode path counts the error
        reply = bytearray(wire)
        reply[2] |= 0x80
        return bytes(reply)


class _Replies:
    """A real socket behind the netsim socket's send calls."""

    closed = False

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def sendto(self, wire, src: str, sport: int) -> None:
        try:        # bytes(): a cached answer may be a WireView
            self._sock.sendto(bytes(wire), (src, sport))
        except OSError:
            pass    # dropped, as a full kernel queue would

    def sendto_batch(self, out) -> None:
        for reply in out:
            self.sendto(*reply)


def _serve_main(conn, spec: FactorySpec) -> None:
    core = DnsServerCore(_resolve_factory(spec)(**spec[2]))
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    grow_receive_buffer(sock)
    sock.bind((LOOPBACK, 0))
    conn.send(sock.getsockname())
    selector = selectors.DefaultSelector()
    selector.register(sock, selectors.EVENT_READ)
    selector.register(conn, selectors.EVENT_READ)
    replies, receive, stopping = _Replies(sock), sock.recvfrom, False
    while not stopping:
        stopping = any(key.fileobj is conn for key, _ in selector.select())
        # The stop wake drains too: what was sent before it is counted.
        datagrams = []
        for _ in range(_DRAIN_LIMIT):
            try:
                data, (src, sport) = receive(65535, socket.MSG_DONTWAIT)
            except OSError:
                break
            datagrams.append((data, src, sport))
        core._on_udp_batch(replies, datagrams)
    sock.close()
    conn.send(core.perf.snapshot())


class LiveDnsServer:
    """The engine ``engine`` names (an echo by default), served on
    ``(address, port)`` from ``start()`` until ``stop()``, which returns
    the child's counters (``hosting.queries``, ``hosting.responses_sent``,
    ``hosting.decode_errors``, ...) and keeps them as ``counters``."""

    def __init__(self, engine: FactorySpec = (__name__, EchoEngine.__name__,
                                              {})):
        self.engine = engine
        self.address: Optional[str] = None
        self.port: Optional[int] = None
        self.counters: Dict[str, int] = {}
        self._conn = self._process = None

    def start(self) -> "LiveDnsServer":
        context = _mp_context()
        self._conn, child_conn = context.Pipe()
        self._process = context.Process(
            target=_serve_main, args=(child_conn, self.engine), daemon=True)
        self._process.start()
        child_conn.close()
        if not self._conn.poll(_CHILD_TIMEOUT):
            self.stop()
            raise RuntimeError("DNS server process failed to start")
        self.address, self.port = self._conn.recv()
        return self

    def stop(self) -> Dict[str, int]:
        if self._conn is not None:
            try:
                self._conn.send("stop")
                if self._conn.poll(_CHILD_TIMEOUT):
                    self.counters = self._conn.recv()
            except (EOFError, OSError):
                pass        # the child died: no counters
            self._conn.close()
        if self._process is not None:
            self._process.join(timeout=2.0)
            self._process.kill()        # a no-op once the child exited
            self._process.join()
        self._conn = self._process = None
        return self.counters

    def __enter__(self) -> "LiveDnsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
