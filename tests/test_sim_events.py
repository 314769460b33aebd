"""Unit tests for the event queue primitives."""

from __future__ import annotations

import pytest

from repro.sim.events import Event, EventQueue


class TestEvent:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-1.0, 0, lambda: None)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            Event(float("nan"), 0, lambda: None)

    def test_infinite_time_allowed(self):
        assert Event(float("inf"), 0, lambda: None).time == float("inf")

    def test_cancel_prevents_fire(self):
        fired = []
        event = Event(1.0, 0, fired.append, args=("x",))
        event.cancel()
        event.fire()
        assert fired == []

    def test_fire_invokes_callback_with_args(self):
        fired = []
        event = Event(1.0, 0, fired.append, args=("x",))
        event.fire()
        assert fired == ["x"]

    def test_cancel_is_idempotent(self):
        event = Event(1.0, 0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_ordering_by_time(self):
        early = Event(1.0, 5, lambda: None)
        late = Event(2.0, 0, lambda: None)
        assert early < late

    def test_ordering_by_priority_at_same_time(self):
        high = Event(1.0, 5, lambda: None, priority=-10)
        low = Event(1.0, 0, lambda: None, priority=0)
        assert high < low

    def test_ordering_by_sequence_as_tiebreak(self):
        first = Event(1.0, 0, lambda: None)
        second = Event(1.0, 1, lambda: None)
        assert first < second


class TestEventQueue:
    def test_empty_queue(self):
        queue = EventQueue()
        assert len(queue) == 0
        assert not queue
        assert queue.pop() is None
        assert queue.peek_time() is None

    def test_push_pop_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, lambda: "c")
        queue.push(1.0, lambda: "a")
        queue.push(2.0, lambda: "b")
        times = [queue.pop().time for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_same_time_pops_in_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, order.append, args=("first",))
        queue.push(1.0, order.append, args=("second",))
        queue.pop().fire()
        queue.pop().fire()
        assert order == ["first", "second"]

    def test_priority_beats_insertion_order(self):
        queue = EventQueue()
        order = []
        queue.push(1.0, order.append, args=("late",), priority=0)
        queue.push(1.0, order.append, args=("early",), priority=-1)
        queue.pop().fire()
        queue.pop().fire()
        assert order == ["early", "late"]

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(event)
        assert len(queue) == 1
        popped = queue.pop()
        assert popped.time == 2.0

    def test_peek_time_skips_cancelled_head(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(5.0, lambda: None)
        queue.cancel(event)
        assert queue.peek_time() == 5.0

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert not queue
        assert queue.pop() is None

    def test_live_count_tracks_pushes_and_pops(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1

    def test_push_rejects_nan_time(self):
        queue = EventQueue()
        with pytest.raises(ValueError):
            queue.push(float("nan"), lambda: None)
        assert len(queue) == 0
        assert queue.pop() is None

    def test_heap_entries_are_sort_key_plus_event(self):
        queue = EventQueue()
        events = [
            queue.push(2.0, lambda: None),
            queue.push(1.0, lambda: None, priority=3),
            queue.push(1.0, lambda: None, priority=-3),
        ]
        for entry in queue._heap:
            assert entry[:3] == entry[3].sort_key()
        assert [entry[3] for entry in sorted(queue._heap)] == sorted(events)

    def test_cancel_counts_only_queued_live_events(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        assert queue.pop() is first
        queue.cancel(first)  # already popped: flag only
        assert first.cancelled
        assert len(queue) == 1
        queue.cancel(second)
        queue.cancel(second)
        assert len(queue) == 0
        assert queue.pop() is None

    def test_clear_then_cancel_keeps_count(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.clear()
        queue.cancel(event)
        assert len(queue) == 0
        queue.push(2.0, lambda: None)
        assert len(queue) == 1
