"""Lifecycle of the CLI servers the benchmark drives, and host probes.

:class:`ServerProcess` starts ``python -m repro <args>`` from the
checkout's ``src``, waits for its banner, reads its peak RSS and CPU time
from ``/proc``, and stops it with SIGTERM, requiring exit code 0.  Used
as a context manager it never leaves the child behind: on an error or an
interrupt the child is terminated, then killed, and always reaped.

With two or more CPUs the load generator runs on the first
(:func:`pin_load`) and each server on a CPU its workload chooses.  Left
to the scheduler, the gateway sometimes shares a core with the client
that is grinding a puzzle; a whole run then answers ~2 ms slower at the
90th percentile, and runs split into two modes.
"""

from __future__ import annotations

import os
import pathlib
import queue
import re
import signal
import subprocess
import sys
import threading
import time

BANNER_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def pin_load() -> tuple[int | None, int | None]:
    """Keep this process, the load generator, on its first CPU.

    Returns ``(load_cpu, spare_cpu)``: the CPU the load runs on and the
    last other one, or ``(None, None)`` when there is only one CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[-1]


class ServerProcess:
    """One ``repro`` CLI server subprocess.

    Parameters
    ----------
    root:
        Checkout root; the child imports the program from ``root/src``.
    args:
        Arguments after ``python -m repro``.
    banner:
        Regex matched against each output line; the first match marks
        the server as ready and is kept in :attr:`match`.
    cpu:
        CPU to run the server on, from :func:`pin_load`; ``None`` leaves
        placement to the scheduler.
    """

    def __init__(self, root: pathlib.Path, args: list[str], banner: str,
                 cpu: int | None = None):
        self._root = root
        self._cpu = cpu
        self._args = args
        self._banner = re.compile(banner)
        self._lines: queue.Queue[str | None] = queue.Queue()
        self.output: list[str] = []
        self.proc: subprocess.Popen | None = None
        self.match: re.Match | None = None
        self._reader: threading.Thread | None = None

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _next_line(self, deadline: float) -> str | None:
        try:
            line = self._lines.get(
                timeout=max(0.0, deadline - time.monotonic())
            )
        except queue.Empty:
            raise TimeoutError(
                f"no banner from repro {' '.join(self._args)} "
                f"within {BANNER_TIMEOUT:g}s"
            ) from None
        if line is not None:
            self.output.append(line)
        return line

    def start(self) -> "ServerProcess":
        """Spawn the server and block until its banner line appears."""
        env = dict(os.environ, PYTHONPATH=str(self._root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *self._args],
            cwd=self._root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if self._cpu is not None:
            os.sched_setaffinity(self.proc.pid, {self._cpu})
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + BANNER_TIMEOUT
        while True:
            line = self._next_line(deadline)
            if line is None:
                raise RuntimeError(
                    f"repro {' '.join(self._args)} exited before its "
                    f"banner:\n" + "\n".join(self.output)
                )
            self.match = self._banner.search(line)
            if self.match is not None:
                return self

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the running child, in MiB."""
        return vm_hwm_mb(self.pid)

    def cpu_seconds(self) -> float:
        """User plus system CPU time the child has used so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> list[str]:
        """SIGTERM, wait, and require exit code 0; returns all output."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(
                f"repro {' '.join(self._args)} ignored SIGTERM"
            ) from None
        deadline = time.monotonic() + STOP_TIMEOUT
        while self._next_line(deadline) is not None:
            pass
        self._reader.join(timeout=STOP_TIMEOUT)
        if code != 0:
            raise RuntimeError(
                f"repro {' '.join(self._args)} exited {code}:\n"
                + "\n".join(self.output)
            )
        return self.output

    def kill(self) -> None:
        """Terminate, then kill, and reap; a no-op once exited."""
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.terminate()
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def __enter__(self) -> "ServerProcess":
        try:
            return self.start()
        except BaseException:
            self.__exit__()
            raise

    def __exit__(self, *_exc_info) -> None:
        self.kill()
        if self._reader is not None:
            self._reader.join(timeout=STOP_TIMEOUT)
        if self.proc is not None:
            self.proc.stdout.close()


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of ``pid``, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def time_wait_sockets() -> int:
    """TCP sockets in TIME_WAIT in this network namespace."""
    count = 0
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table, encoding="ascii") as rows:
                next(rows, None)
                count += sum(1 for row in rows if row.split()[3] == "06")
        except FileNotFoundError:
            continue
    return count
