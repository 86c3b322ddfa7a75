"""Unit and property tests for the reference simulator's event engine."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_sim import EventEngine
from repro.core.errors import SimulationError


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = EventEngine()
        seen = []
        engine.schedule_at(3.0, lambda: seen.append("c"))
        engine.schedule_at(1.0, lambda: seen.append("a"))
        engine.schedule_at(2.0, lambda: seen.append("b"))
        engine.run()
        assert seen == ["a", "b", "c"]
        assert engine.now == 3.0

    def test_fifo_among_equal_times(self):
        engine = EventEngine()
        seen = []
        for label in "abc":
            engine.schedule_at(1.0, lambda l=label: seen.append(l))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_relative_schedule(self):
        engine = EventEngine(start=10.0)
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [15.0]

    def test_scheduling_in_past_rejected(self):
        engine = EventEngine(start=10.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_nonfinite_time_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(float("inf"), lambda: None)

    def test_events_can_schedule_events(self):
        engine = EventEngine()
        seen = []

        def first():
            seen.append("first")
            engine.schedule(1.0, lambda: seen.append("second"))

        engine.schedule_at(1.0, first)
        engine.run()
        assert seen == ["first", "second"]
        assert engine.now == 2.0


class TestRunControl:
    def test_run_until_stops_clock(self):
        engine = EventEngine()
        seen = []
        engine.schedule_at(1.0, lambda: seen.append(1))
        engine.schedule_at(10.0, lambda: seen.append(10))
        engine.run(until=5.0)
        assert seen == [1]
        assert engine.now == 5.0
        assert engine.pending_count == 1

    def test_run_until_advances_clock_when_drained(self):
        engine = EventEngine()
        engine.schedule_at(1.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_max_events_cap(self):
        engine = EventEngine()
        seen = []
        for i in range(5):
            engine.schedule_at(float(i), lambda i=i: seen.append(i))
        engine.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        assert not EventEngine().step()

    def test_cancelled_events_skipped(self):
        engine = EventEngine()
        seen = []
        event = engine.schedule_at(1.0, lambda: seen.append("cancelled"))
        engine.schedule_at(2.0, lambda: seen.append("kept"))
        event.cancel()
        engine.run()
        assert seen == ["kept"]

    def test_processed_count(self):
        engine = EventEngine()
        for i in range(4):
            engine.schedule_at(float(i), lambda: None)
        engine.run()
        assert engine.processed_count == 4

    def test_clock_callable(self):
        engine = EventEngine(start=7.5)
        assert engine.clock() == 7.5


class TestPendingAccounting:
    """pending_count is a live counter; cancellations compact the heap."""

    def test_pending_tracks_schedule_and_execution(self):
        engine = EventEngine()
        events = [engine.schedule_at(float(i), lambda: None) for i in range(5)]
        assert engine.pending_count == 5
        engine.step()
        assert engine.pending_count == 4
        events[-1].cancel()
        assert engine.pending_count == 3
        engine.run()
        assert engine.pending_count == 0

    def test_cancel_is_idempotent(self):
        engine = EventEngine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.schedule_at(2.0, lambda: None)
        event.cancel()
        event.cancel()
        event.cancel()
        assert engine.pending_count == 1

    def test_mass_cancellation_compacts_heap(self):
        """Cancelled entries must not linger in the heap indefinitely."""
        engine = EventEngine()
        doomed = [
            engine.schedule_at(float(i), lambda: None) for i in range(1000)
        ]
        survivors = [
            engine.schedule_at(2000.0 + i, lambda: None) for i in range(10)
        ]
        for event in doomed:
            event.cancel()
        assert engine.pending_count == 10
        # The heap itself has been swept: cancelled events outnumbered
        # live ones, so compaction dropped them without waiting for pops.
        assert len(engine._heap) < 100
        engine.run()
        assert engine.processed_count == len(survivors)

    def test_compaction_preserves_execution_order(self):
        engine = EventEngine()
        seen = []
        doomed = [
            engine.schedule_at(float(i), lambda: seen.append("doomed"))
            for i in range(200)
        ]
        engine.schedule_at(50.5, lambda: seen.append("mid"))
        engine.schedule_at(0.5, lambda: seen.append("early"))
        engine.schedule_at(300.0, lambda: seen.append("late"))
        for event in doomed:
            event.cancel()
        engine.run()
        assert seen == ["early", "mid", "late"]

    def test_cancelling_executed_event_does_not_underflow(self):
        engine = EventEngine()
        event = engine.schedule_at(1.0, lambda: None)
        engine.run()
        assert engine.pending_count == 0
        event.cancel()
        # Cancelling an already-executed event is a pure no-op.
        assert engine.pending_count == 0


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=100))
def test_execution_order_is_sorted_property(times):
    engine = EventEngine()
    seen = []
    for t in times:
        engine.schedule_at(t, lambda t=t: seen.append(t))
    engine.run()
    assert seen == sorted(times)
    assert engine.processed_count == len(times)
