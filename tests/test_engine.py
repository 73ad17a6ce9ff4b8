import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.at(300, fired.append, "c")
        sim.at(100, fired.append, "a")
        sim.at(200, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.at(50, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.at(100, lambda: sim.after(50, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [150]

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.at(100, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.at(50, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.after(-1, lambda: None)


class TestRun:
    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        fired = []
        sim.at(100, fired.append, 1)
        sim.at(900, fired.append, 2)
        n = sim.run(until=500)
        assert n == 1
        assert fired == [1]
        assert sim.now == 500
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 900

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.at(i + 1, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.now == 3

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        count = [0]

        def chain():
            count[0] += 1
            if count[0] < 5:
                sim.after(10, chain)

        sim.at(0, chain)
        sim.run()
        assert count[0] == 5
        assert sim.now == 40


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.at(100, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.at(100, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_peek_time_skips_cancelled(self):
        """The next event to run is the next live one: a cancelled
        entry ahead of it is skipped, not executed."""
        sim = Simulator()
        h1 = sim.at(100, lambda: None)
        sim.at(200, lambda: None)
        h1.cancel()
        assert sim.run(max_events=1) == 1
        assert sim.now == 200

    def test_peek_time_empty(self):
        sim = Simulator()
        assert sim.run(max_events=1) == 0
        assert sim.now == 0


class TestCounters:
    def test_events_executed(self):
        sim = Simulator()
        for i in range(4):
            sim.at(i, lambda: None)
        sim.run()
        assert sim.events_executed == 4

    def test_step(self):
        sim = Simulator()
        fired = []
        sim.at(10, fired.append, 1)
        sim.at(20, fired.append, 2)
        assert sim.run(max_events=1) == 1
        assert fired == [1]
        assert sim.run(max_events=1) == 1
        assert sim.run(max_events=1) == 0
