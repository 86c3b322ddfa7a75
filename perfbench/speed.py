"""In-run reference of the host's speed.

On a shared host the same code runs up to ~20% faster or slower from
one minute to the next, and even from one second to the next; raw
timings of identical runs spread as much.  A :class:`Speedometer` runs a
fixed piece of reference work, written in this file and running no
program code, between the measured operations of a run.  Its CPU time
per call, over :data:`NOMINAL_S`, is the host's *slowdown* at that
moment: 1.0 on a host as fast as the development host was when the
constant was taken, 1.2 on one 20% slower.

Every timed end-to-end figure is reported at nominal speed: each
measured duration is divided by the slowdown around the moment it was
taken (:meth:`Speedometer.at`), and rates are computed from the scaled
durations.  A change to the program moves these figures exactly as it
moves the raw ones, since the reference work runs none of its code; a
change of host speed moves the reference work too and cancels out.
The run's mean slowdown is the per-layer metric ``bench.slowdown``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import time

#: CPU seconds of one :func:`reference_work` call on the development
#: host (2-core VM, 2.1 GHz).
NOMINAL_S = 125e-6
#: Ticks within this many seconds of a moment give its slowdown.
WINDOW_S = 0.1


def reference_work() -> tuple:
    """Dict, string, float and hashing work, like the admission path's."""
    table: dict[str, list] = {}
    digest = hashlib.sha256()
    total = 0.0
    for i in range(120):
        key = f"127.{i % 7}.{i % 13}.{i}"
        table[key] = [i * 0.5, key]
        digest.update(key.encode())
        total += table[key][0] ** 0.5
    return digest.digest(), total, min(table)


class Speedometer:
    """Reference work, timed and kept as a time series.

    Parameters
    ----------
    work:
        The reference work; :func:`reference_work` by default.
    clock:
        Clock timing it: the thread's CPU time by default, so time the
        process spends descheduled does not count; wall time for work
        that waits.
    nominal:
        Seconds one call of ``work`` takes at nominal speed.
    """

    def __init__(self, work=reference_work, clock=time.thread_time,
                 nominal: float = NOMINAL_S) -> None:
        self._work = work
        self._clock = clock
        self._nominal = nominal
        self._times: list[float] = []
        self._costs: list[float] = []
        self._sums: list[float] | None = None

    def tick(self, count: int = 1) -> None:
        """Time ``count`` calls of the reference work on this thread.

        One untimed call first brings the reference work's data back
        into the caches, so the timed calls measure the host, not what
        the measured code left in the caches before them.
        """
        self._work()
        start = self._clock()
        for _ in range(count):
            self._work()
        cost = (self._clock() - start) / count
        self._times.append(time.perf_counter())
        self._costs.append(cost)
        self._sums = None

    def _mean(self, lo: int, hi: int) -> float:
        if self._sums is None:
            self._sums = [0.0, *itertools.accumulate(self._costs)]
        return (self._sums[hi] - self._sums[lo]) / (hi - lo)

    def between(self, start: float, end: float) -> float:
        """Mean slowdown of the ticks taken from ``start`` to ``end``.

        Falls back to :meth:`at` the midpoint when no tick fell inside.
        """
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        if hi == lo:
            return self.at((start + end) / 2)
        return self._mean(lo, hi) / self._nominal

    def at(self, moment: float) -> float:
        """Slowdown around ``moment`` (``time.perf_counter`` seconds).

        The ticks within :data:`WINDOW_S` of it, or the nearest tick.
        """
        if not self._times:
            raise RuntimeError("no reference work was run")
        lo = bisect.bisect_left(self._times, moment - WINDOW_S)
        hi = bisect.bisect_right(self._times, moment + WINDOW_S)
        if hi == lo:
            lo = min(lo, len(self._times) - 1)
            if lo > 0 and (moment - self._times[lo - 1]
                           < self._times[lo] - moment):
                lo -= 1
            hi = lo + 1
        return self._mean(lo, hi) / self._nominal

    def scale(self, samples) -> list[float]:
        """``(moment, seconds)`` durations, each at nominal speed."""
        return [seconds / self.at(moment) for moment, seconds in samples]

    @property
    def slowdown(self) -> float:
        """Mean slowdown over the whole run."""
        if not self._costs:
            raise RuntimeError("no reference work was run")
        return self._mean(0, len(self._costs)) / self._nominal
