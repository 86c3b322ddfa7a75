"""Round-trip reference for the ``remote-returning`` workload.

A state-store round trip costs Python work on both sides plus a wake-up
of the other process, and on a shared virtual host the wake-up part
drifts by tens of percent between runs, which CPU reference work does
not see.  :class:`EchoReference` starts this file as a subprocess on the
state server's CPU: a server that answers each length-prefixed JSON
frame with a JSON frame, like the state protocol but running none of the
program's code.  Timing its round trips between batches gives the
workload's slowdown (see :mod:`perfbench.speed`).

Run directly, this file is that echo server: it prints its port, serves
one connection and exits when the connection closes.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys

#: Wall seconds of one :meth:`EchoReference.round_trip` on the
#: development host (2-core VM, 2.1 GHz), both ends on one CPU.
NOMINAL_S = 25e-6
STOP_TIMEOUT = 10.0
_HEADER = struct.Struct(">I")
_REQUEST = json.dumps({"op": "get", "ns": "feedback", "key": "127.255.1.1"})


def _read_frame(conn: socket.socket) -> bytes | None:
    head = conn.recv(_HEADER.size, socket.MSG_WAITALL)
    if len(head) < _HEADER.size:
        return None
    return conn.recv(_HEADER.unpack(head)[0], socket.MSG_WAITALL)


def _send_frame(conn: socket.socket, body: bytes) -> None:
    conn.sendall(_HEADER.pack(len(body)) + body)


def serve() -> None:
    """Echo server: one connection, JSON in, JSON out."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        print(listener.getsockname()[1], flush=True)
        conn, _ = listener.accept()
    with conn:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while (body := _read_frame(conn)) is not None:
            reply = {"ok": True, "found": True, "value": json.loads(body)}
            _send_frame(conn, json.dumps(reply).encode())


class EchoReference:
    """The echo server subprocess and a connection to it.

    Parameters
    ----------
    cpu:
        CPU to run the echo server on, or ``None`` to leave placement
        to the scheduler.
    """

    def __init__(self, cpu: int | None) -> None:
        self._cpu = cpu
        self._proc: subprocess.Popen | None = None
        self._conn: socket.socket | None = None

    def __enter__(self) -> "EchoReference":
        try:
            self._proc = subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                text=True,
            )
            if self._cpu is not None:
                os.sched_setaffinity(self._proc.pid, {self._cpu})
            port = int(self._proc.stdout.readline())
            self._conn = socket.create_connection(("127.0.0.1", port))
            self._conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except BaseException:
            self.__exit__()
            raise
        return self

    def round_trip(self) -> None:
        """Send one state-protocol-sized frame and read the echo."""
        _send_frame(self._conn, _REQUEST.encode())
        if _read_frame(self._conn) is None:
            raise ConnectionError("echo reference closed the connection")

    def __exit__(self, *_exc_info) -> None:
        if self._conn is not None:
            self._conn.close()
        if self._proc is not None:
            try:
                self._proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()


if __name__ == "__main__":
    serve()
