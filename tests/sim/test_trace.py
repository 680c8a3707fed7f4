"""Trace recording and ddmin schedule shrinking."""

import pytest

from repro.sim.trace import ChaosTrace, shrink_schedule


class TestChaosTrace:
    def test_records_in_order(self):
        trace = ChaosTrace()
        trace.record("a")
        trace.record("b")
        assert trace.render().splitlines() == ["a", "b"]
        assert trace.render() == "a\nb"
        assert len(trace) == 2

    def test_equality_and_digest(self):
        one, two = ChaosTrace(), ChaosTrace()
        for line in ("x", "y"):
            one.record(line)
            two.record(line)
        assert one == two
        assert one.digest() == two.digest()
        two.record("z")
        assert one != two
        assert one.digest() != two.digest()

class TestShrinkSchedule:
    def test_shrinks_to_single_culprit(self):
        events = list(range(32))
        minimal = shrink_schedule(events, fails=lambda c: 13 in c)
        assert minimal == [13]

    def test_shrinks_to_interacting_pair(self):
        events = list(range(20))
        minimal = shrink_schedule(events, fails=lambda c: 3 in c and 17 in c)
        assert minimal == [3, 17]

    def test_preserves_relative_order(self):
        events = ["d", "c", "b", "a"]
        minimal = shrink_schedule(
            events, fails=lambda c: "c" in c and "a" in c
        )
        assert minimal == ["c", "a"]

    def test_rejects_passing_input(self):
        with pytest.raises(ValueError):
            shrink_schedule([1, 2, 3], fails=lambda c: False)

    def test_respects_run_budget(self):
        calls = []

        def fails(candidate):
            calls.append(1)
            return 5 in candidate

        shrink_schedule(list(range(100)), fails, max_runs=10)
        # One initial sanity check plus at most max_runs candidates.
        assert len(calls) <= 11

    def test_everything_needed_stays(self):
        events = [0, 1, 2]
        minimal = shrink_schedule(events, fails=lambda c: c == [0, 1, 2])
        assert minimal == [0, 1, 2]
