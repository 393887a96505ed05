"""Unit tests for the event engine."""
import pytest

from repro.sim.engine import Engine, SimulationError, SimulationTimeout


class TestScheduling:
    def test_events_fire_in_time_order(self):
        e = Engine()
        order = []
        e.schedule(10, lambda: order.append("b"))
        e.schedule(5, lambda: order.append("a"))
        e.schedule(20, lambda: order.append("c"))
        e.run()
        assert order == ["a", "b", "c"]

    def test_same_cycle_fifo(self):
        e = Engine()
        order = []
        for i in range(10):
            e.schedule(7, lambda i=i: order.append(i))
        e.run()
        assert order == list(range(10))

    def test_now_tracks_cycle(self):
        e = Engine()
        seen = []
        e.schedule(3, lambda: seen.append(e.now))
        e.schedule(9, lambda: seen.append(e.now))
        end = e.run()
        assert seen == [3, 9]
        assert end == 9

    def test_callbacks_can_schedule(self):
        e = Engine()
        seen = []

        def first():
            seen.append(e.now)
            e.schedule(5, lambda: seen.append(e.now))

        e.schedule(1, first)
        e.run()
        assert seen == [1, 6]

    def test_negative_delay_rejected(self):
        e = Engine()
        with pytest.raises(ValueError):
            e.schedule(-1, lambda: None)


class TestRunControl:
    def test_timeout_raises(self):
        e = Engine()

        def forever():
            e.schedule(1, forever)

        e.schedule(0, forever)
        with pytest.raises(SimulationTimeout):
            e.run(max_cycles=100)

    def test_max_events(self):
        e = Engine()

        def forever():
            e.schedule(0, forever)

        e.schedule(0, forever)
        with pytest.raises(SimulationTimeout):
            e.run(max_events=50)

    def test_not_reentrant(self):
        e = Engine()

        def bad():
            e.run()

        e.schedule(0, bad)
        with pytest.raises(SimulationError):
            e.run()

    def test_run_until_stops_midway(self):
        e = Engine()
        seen = []
        for t in (1, 5, 9):
            e.schedule(t, lambda t=t: seen.append(t))
        e.run_until(5)
        assert seen == [1, 5]
        assert e.pending() == 1
        e.run()
        assert seen == [1, 5, 9]

    def test_run_until_advances_clock_when_idle(self):
        e = Engine()
        e.run_until(42)
        assert e.now == 42

    def test_run_until_batched_same_cycle_dispatch_sees_new_events(self):
        """run_until shares run()'s batched dispatch: zero-delay events a
        same-cycle callback adds fire within the same cycle (not left
        queued behind the stop cycle)."""
        e = Engine()
        order = []

        def first():
            order.append(("first", e.now))
            e.schedule(0, lambda: order.append(("chained", e.now)))

        e.schedule(4, first)
        e.schedule(4, lambda: order.append(("second", e.now)))
        e.run_until(4)
        assert order == [("first", 4), ("second", 4), ("chained", 4)]
        assert e.pending() == 0

    def test_run_until_counts_executed_events(self):
        e = Engine()
        for i in range(5):
            e.schedule(i % 2, lambda: None)
        e.run_until(0)
        assert e.events_executed == 3
        e.run_until(1)
        assert e.events_executed == 5

    def test_run_until_max_events_guards_same_cycle_spin(self):
        """A zero-delay self-rescheduling loop trips the max_events
        budget with the run()-style diagnostic (timeout_hook included)."""
        e = Engine()
        e.timeout_hook = lambda: "hook-context"

        def forever():
            e.schedule(0, forever)

        e.schedule(3, forever)
        with pytest.raises(SimulationTimeout) as exc:
            e.run_until(10, max_events=25)
        assert "run_until exceeded 25 events" in str(exc.value)
        assert "hook-context" in str(exc.value)
        assert e.events_executed == 26
        assert e.now == 3  # never escaped the spinning cycle

    def test_run_until_not_reentrant(self):
        e = Engine()

        def bad():
            e.run_until(99)

        e.schedule(0, bad)
        with pytest.raises(SimulationError):
            e.run_until(5)

    def test_events_executed_counts_everything(self):
        e = Engine()
        for i in range(7):
            e.schedule(i % 3, lambda: None)
        e.run()
        assert e.events_executed == 7

    def test_batched_same_cycle_dispatch_sees_new_events(self):
        """Zero-delay events added by a same-cycle callback fire within
        the same cycle, after already-queued same-cycle events."""
        e = Engine()
        order = []

        def first():
            order.append(("first", e.now))
            e.schedule(0, lambda: order.append(("chained", e.now)))

        e.schedule(4, first)
        e.schedule(4, lambda: order.append(("second", e.now)))
        e.run()
        assert order == [("first", 4), ("second", 4), ("chained", 4)]

    def test_max_events_counts_across_batches(self):
        e = Engine()

        def forever():
            e.schedule(1, forever)

        e.schedule(0, forever)
        with pytest.raises(SimulationTimeout) as exc:
            e.run(max_events=10)
        assert "exceeded 10 events" in str(exc.value)
        assert e.events_executed == 11

    def test_determinism(self):
        def trace():
            e = Engine()
            out = []
            for t in (4, 4, 2, 8, 2):
                e.schedule(t, lambda t=t: out.append((e.now, t)))
            e.run()
            return out

        assert trace() == trace()
