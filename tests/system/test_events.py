"""The discrete-event simulator."""

import pytest

from repro.system.events import EventSimulator, SimulationError


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = EventSimulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.run()
        assert log == ["a", "b"]

    def test_equal_times_fifo(self):
        sim = EventSimulator()
        log = []
        for tag in "abc":
            sim.schedule(1.0, lambda t=tag: log.append(t))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_now_advances(self):
        sim = EventSimulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_past_scheduling_rejected(self):
        sim = EventSimulator(start=10.0)
        with pytest.raises(SimulationError):
            sim.schedule(5.0, lambda: None)

    def test_schedule_in(self):
        sim = EventSimulator(start=3.0)
        fired = []
        sim.schedule_in(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_run_until_bound(self):
        sim = EventSimulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(10.0, lambda: log.append(10))
        processed = sim.run(until=5.0)
        assert processed == 1
        assert log == [1]
        assert sim.now == 5.0
        assert len(sim._queue) == 1

    def test_events_can_schedule_events(self):
        sim = EventSimulator()
        log = []

        def first():
            log.append("first")
            sim.schedule_in(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]

    def test_returns_processed_count(self):
        sim = EventSimulator()
        for t in range(5):
            sim.schedule(float(t), lambda: None)
        assert sim.run() == 5


class TestRunUntilClock:
    """The documented ``until`` clock-advance semantics."""

    def test_until_advances_idle_clock(self):
        sim = EventSimulator()
        assert sim.run(until=5.0) == 0
        assert sim.now == 5.0

    def test_until_beyond_last_event_advances_clock(self):
        sim = EventSimulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=9.0) == 1
        assert sim.now == 9.0

    def test_until_in_the_past_never_rewinds(self):
        sim = EventSimulator(start=10.0)
        sim.schedule(12.0, lambda: None)
        assert sim.run(until=3.0) == 0
        assert sim.now == 10.0
        assert len(sim._queue) == 1

    def test_consecutive_runs_accumulate(self):
        sim = EventSimulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(7.0, lambda: log.append(7))
        sim.run(until=5.0)
        assert (log, sim.now) == ([1], 5.0)
        sim.run(until=10.0)
        assert (log, sim.now) == ([1, 7], 10.0)


class TestStep:
    def test_step_processes_one_event(self):
        sim = EventSimulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        assert sim.step() == 1.0
        assert log == ["a"]
        assert sim.now == 1.0
        assert len(sim._queue) == 1

    def test_step_on_empty_returns_none(self):
        sim = EventSimulator(start=4.0)
        assert sim.step() is None
        assert sim.now == 4.0

    def test_step_drains_in_time_order(self):
        sim = EventSimulator()
        log = []
        for t in (3.0, 1.0, 2.0):
            sim.schedule(t, lambda t=t: log.append(t))
        times = []
        while True:
            fired = sim.step()
            if fired is None:
                break
            times.append(fired)
        assert times == [1.0, 2.0, 3.0]
        assert log == [1.0, 2.0, 3.0]

    def test_step_sees_events_scheduled_by_events(self):
        sim = EventSimulator()
        log = []

        def first():
            log.append("first")
            sim.schedule_in(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        assert sim.step() == 1.0
        assert sim.step() == 2.0
        assert log == ["first", "second"]

    def test_step_and_run_interleave(self):
        sim = EventSimulator()
        log = []
        for t in range(4):
            sim.schedule(float(t), lambda t=t: log.append(t))
        assert sim.step() == 0.0
        assert sim.run() == 3
        assert log == [0, 1, 2, 3]
