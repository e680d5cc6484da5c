"""The benchmark's own server: a UDP echo that captures arrivals.

Runs as a separate process so that it shares no interpreter with the
program under test.  It answers every datagram with the QR bit set and, for
the first arrival of each record, stamps ``time.monotonic()`` (one clock
for every process on the host) and the sender's UDP port into a file the
benchmark maps too.  The record index is read from the fixed-offset digits
of the query name ``q<9 digits>.example.com.`` that every live workload
uses.  This is the server-side capture the paper's Fig 6 relies on: it does
not depend on what the program itself calls ``sent_at``.

File layout: ``count`` float64 arrival times, then ``count`` uint16 ports.
"""

from __future__ import annotations

import json
import mmap
import os
import signal
import socket
import subprocess
import sys
import time
from array import array
from typing import List, Optional, Tuple

# "q" is the byte after the 12-byte header and the label-length byte.
_DIGITS = slice(14, 23)


def serve(path: str, count: int) -> None:
    with open(path, "r+b") as handle:
        memory = mmap.mmap(handle.fileno(), count * 10)
    view = memoryview(memory)
    times, ports = view[:count * 8].cast("d"), view[count * 8:].cast("H")
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    with open("/proc/sys/net/core/rmem_max") as handle:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                        int(handle.read()))
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(0.1)
    stopping: List[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(1))
    parent = os.getppid()
    print(sock.getsockname()[1], flush=True)

    buffer = bytearray(65535)
    whole = memoryview(buffer)
    packets = duplicates = unparsed = 0
    receive, send, clock = sock.recvfrom_into, sock.sendto, time.monotonic
    while not stopping:
        try:
            size, peer = receive(buffer)
        except socket.timeout:
            if os.getppid() != parent:   # orphaned: the benchmark died
                break
            continue
        now = clock()
        buffer[2] |= 0x80
        send(whole[:size], peer)
        packets += 1
        try:
            index = int(buffer[_DIGITS])
            if times[index] == 0.0:
                times[index] = now
                ports[index] = peer[1]
            else:
                duplicates += 1
        except (ValueError, IndexError):
            unparsed += 1
    used = os.times()
    times.release()
    ports.release()
    view.release()
    memory.flush()
    memory.close()
    sock.close()
    print(json.dumps({"packets": packets, "duplicates": duplicates,
                      "unparsed": unparsed,
                      "cpu_s": used.user + used.system}), flush=True)


class SinkProcess:
    """Parent-side handle: start the sink, stop it, read what it saw."""

    def __init__(self, count: int, directory: str):
        self.count = count
        self.path = os.path.join(directory, "arrivals.bin")
        with open(self.path, "wb") as handle:
            handle.truncate(count * 10)
        self._process: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path,
             str(count)], stdout=subprocess.PIPE, text=True)
        line = self._process.stdout.readline()
        if not line.strip():
            self._process.wait()
            self._process = None
            raise RuntimeError("sink did not start")
        self.address = ("127.0.0.1", int(line))
        self.pid = self._process.pid
        self.summary: Optional[dict] = None

    def stop(self) -> dict:
        """Stop the sink and wait for it; returns its own counters."""
        process, self._process = self._process, None
        if process is not None:
            process.send_signal(signal.SIGTERM)
            try:
                line = process.stdout.readline()
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                raise
            finally:
                process.stdout.close()
            self.summary = json.loads(line)
        return self.summary

    def arrivals(self) -> Tuple[List[float], List[int]]:
        """(first-arrival time, sender port) per record index."""
        with open(self.path, "rb") as handle:
            data = handle.read()
        times, ports = array("d"), array("H")
        times.frombytes(data[:self.count * 8])
        ports.frombytes(data[self.count * 8:])
        return times.tolist(), ports.tolist()


if __name__ == "__main__":
    serve(sys.argv[1], int(sys.argv[2]))
