"""Bucketed calendar-queue scheduler for cohort-based simulation.

A callback event engine orders events in a binary heap and dispatches
them one Python callback at a time — ideal for correctness, hopeless
for a million agents.  A *calendar queue*
(Brown, CACM 1988) instead hashes events into time buckets; the
vectorized simulator exploits the structure by dequeuing a whole bucket
— a *cohort* of same-instant events — in one operation and processing
it with array code.

:class:`CalendarQueue` keeps the exact ordering contract of the heap
engine: cohorts pop in strictly increasing time order, and items within
a cohort keep FIFO (insertion) order, which is precisely the heap's
``(time, seq)`` order flattened.  A property test
(``tests/net/test_calendar.py``) checks this equivalence against
``heapq`` on random schedules.

With ``tick`` set, event times are quantized *up* onto a uniform grid
(never down: an event may run up to one tick late, never early, which
preserves causality).  Quantization is what merges near-simultaneous
events — a flash crowd's arrivals, a wave of solve completions — into
the large cohorts the vectorized simulator feeds to
:meth:`~repro.core.framework.AIPoWFramework.challenge_batch`.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterator

from repro.core.errors import SimulationError

__all__ = ["CalendarQueue"]


class CalendarQueue:
    """Time-bucketed FIFO priority queue over ``(time, insertion order)``.

    Parameters
    ----------
    tick:
        Optional bucket width in seconds.  ``None`` keeps exact event
        times (every distinct timestamp is its own cohort); a positive
        tick quantizes times up onto the ``tick`` grid so events within
        one grid step share a cohort.
    start:
        Scheduling before ``start`` raises — mirroring the engine's
        no-past-events rule.
    """

    def __init__(self, tick: float | None = None, start: float = 0.0) -> None:
        if tick is not None and tick <= 0:
            raise SimulationError(f"tick must be > 0, got {tick}")
        self.tick = tick
        self._floor = float(start)
        self._buckets: dict[float, list[Any]] = {}
        self._times: list[float] = []  # heap of bucket keys
        self._len = 0

    # ------------------------------------------------------------------
    def _key(self, when: float) -> float:
        """Quantize ``when`` up onto the tick grid (identity when exact)."""
        if not math.isfinite(when):
            raise SimulationError(f"event time must be finite, got {when!r}")
        if when < self._floor:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self._floor}"
            )
        if self.tick is None:
            return when
        return math.ceil(when / self.tick) * self.tick

    def push(self, when: float, item: Any) -> None:
        """Schedule ``item`` at time ``when`` (quantized up to the grid)."""
        key = self._key(when)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [item]
            heapq.heappush(self._times, key)
        else:
            bucket.append(item)
        self._len += 1

    def __len__(self) -> int:
        return self._len

    def __bool__(self) -> bool:
        return self._len > 0

    def peek_time(self) -> float | None:
        """Time of the next cohort, or ``None`` when empty."""
        return self._times[0] if self._times else None

    def pop_cohort(self) -> tuple[float, list[Any]]:
        """Remove and return the earliest cohort as ``(time, items)``.

        Items come back in insertion order.  Popping advances the
        queue's clock floor: later pushes must be at or after the
        popped time.
        """
        if not self._times:
            raise SimulationError("pop from an empty CalendarQueue")
        key = heapq.heappop(self._times)
        items = self._buckets.pop(key)
        self._len -= len(items)
        self._floor = max(self._floor, key)
        return key, items

    def drain(self) -> Iterator[tuple[float, list[Any]]]:
        """Yield cohorts in time order until the queue empties.

        New events pushed while draining are dequeued in their proper
        order — the loop keeps going until genuinely empty.
        """
        while self._len:
            yield self.pop_cohort()

    def drain_until(self, bound: float) -> Iterator[tuple[float, list[Any]]]:
        """Yield cohorts with quantized time ``<= bound``, then stop.

        The epoch-slicing primitive of the parallel driver: draining a
        queue in consecutive ``drain_until`` windows visits exactly the
        cohorts an uninterrupted :meth:`drain` would, in the same
        (time, FIFO) order — events only ever schedule at or after the
        cohort that causes them, so a follow-on event either lands in
        the current window (and pops here, in order) or in a later one.
        The bound compares against *quantized* cohort keys: a window
        boundary never splits a cohort.
        """
        while self._times and self._times[0] <= bound:
            yield self.pop_cohort()
