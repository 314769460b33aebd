"""Unit tests for the simulator engine, clock, and periodic processes."""

from __future__ import annotations

import pytest

from repro.sim.clock import SimClock, hours, minutes
from repro.sim.engine import Simulator
from repro.sim.processes import PeriodicProcess


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_cannot_move_backwards(self):
        clock = SimClock(5.0)
        with pytest.raises(ValueError):
            clock.advance_to(4.0)

    def test_unit_helpers(self):
        assert minutes(5) == 300.0
        assert hours(2) == 7200.0


class TestSimulator:
    def test_schedule_and_run(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "a")
        sim.schedule(3.0, fired.append, "b")
        processed = sim.run()
        assert processed == 2
        assert fired == ["b", "a"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_past_last_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_run_until_leaves_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=3.0)
        assert fired == []
        assert sim.pending_events == 1
        sim.run(until=10.0)
        assert fired == ["late"]

    def test_schedule_at_absolute(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(7.0, fired.append, "x")
        sim.run()
        assert sim.now == 7.0
        assert fired == ["x"]

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        sim.cancel(event)
        sim.run()
        assert fired == []
        assert sim.pending_events == 0

    def test_cancel_none_is_noop(self):
        sim = Simulator()
        sim.cancel(None)

    def test_cancel_after_fire_keeps_pending_count(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        sim.cancel(first)
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert sim.pending_events == 0

    def test_cancel_after_lazy_drop_is_noop(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(event)
        sim.run(until=1.5)  # drops the cancelled head
        sim.cancel(event)
        assert sim.pending_events == 1

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="NaN"):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending_events == 0

    def test_schedule_at_infinity_is_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(float("inf"), fired.append, "x")
        sim.schedule(float("inf"), fired.append, "y")
        assert sim.run(until=1e12) == 0
        assert sim.run() == 2
        assert fired == ["x", "y"]

    def test_run_for_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.run_for(float("nan"))

    def test_events_processed_exact_inside_and_after_raising_callback(self):
        sim = Simulator()
        seen = []

        def boom():
            raise RuntimeError("boom")

        sim.schedule(1.0, lambda: seen.append(sim.events_processed))
        sim.schedule(2.0, lambda: seen.append(sim.events_processed))
        sim.schedule(3.0, boom)
        sim.schedule(4.0, lambda: seen.append(sim.events_processed))
        with pytest.raises(RuntimeError):
            sim.run()
        assert seen == [0, 1]
        assert sim.events_processed == 2
        assert sim.now == 3.0
        assert sim.run() == 1
        assert seen == [0, 1, 2]
        assert sim.events_processed == 3

    def test_now_tracks_clock(self):
        sim = Simulator(start_time=2.5)
        assert sim.now == sim.clock.now == 2.5
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.now == sim.clock.now == 3.5

    def test_event_behind_clock_is_rejected(self):
        sim = Simulator()
        sim.run_for(5.0)
        sim._queue.push(1.0, lambda: None)  # bypasses schedule_at's guard
        with pytest.raises(ValueError, match="backwards"):
            sim.run()
        assert sim.now == 5.0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bound(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        processed = sim.run(max_events=10)
        assert processed == 10

    def test_run_for(self):
        sim = Simulator()
        sim.run_for(42.0)
        assert sim.now == 42.0

    def test_not_reentrant(self):
        sim = Simulator()
        errors = []

        def recurse():
            try:
                sim.run()
            except RuntimeError as exc:
                errors.append(exc)

        sim.schedule(1.0, recurse)
        sim.run()
        assert len(errors) == 1

    def test_determinism_same_seed(self):
        def trace(seed):
            sim = Simulator(seed=seed)
            rng = sim.rng.stream("test")
            values = []
            for i in range(5):
                sim.schedule(rng.random() * 10, values.append, i)
            sim.run()
            return values

        assert trace(99) == trace(99)


class TestPeriodicProcess:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_start_delay(self):
        sim = Simulator()
        ticks = []
        PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now), start_delay=0.0)
        sim.run(until=25.0)
        assert ticks == [0.0, 10.0, 20.0]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        process = PeriodicProcess(sim, 10.0, lambda: ticks.append(sim.now))
        sim.run(until=15.0)
        process.stop()
        sim.run(until=100.0)
        assert ticks == [10.0]
        assert process.stopped

    def test_stop_from_callback(self):
        sim = Simulator()
        process = PeriodicProcess(sim, 5.0, lambda: process.stop())
        sim.run(until=100.0)
        assert process.firings == 1

    def test_max_firings(self):
        sim = Simulator()
        process = PeriodicProcess(sim, 1.0, lambda: None, max_firings=3)
        sim.run(until=100.0)
        assert process.firings == 3
        assert process.stopped

    def test_invalid_period(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicProcess(sim, 0.0, lambda: None)
