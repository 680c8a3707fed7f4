"""Schedule generation: perturbation, fault planning, merging."""

import random

from repro.sim.schedule import (
    ChaosSchedule,
    DropEvent,
    FaultEvent,
    InjectEvent,
    LinkModel,
    merge_events,
    perturb_feed,
    plan_faults,
)

FEED = [
    (float(i), "Temp", {"station": i % 3, "celsius": 10.0 + i})
    for i in range(40)
]


class TestPerturbFeed:
    def test_lossless_link_is_identity(self):
        events = perturb_feed(FEED, {"Temp": LinkModel(0.0, 0.0, 0.0)}, random.Random(1))
        assert len(events) == len(FEED)
        assert all(isinstance(e, InjectEvent) for e in events)
        assert [e.time for e in events] == [t for t, __, __ in FEED]
        # Payloads are canonicalised to sorted items.
        assert events[0].payload == (("celsius", 10.0), ("station", 0))

    def test_drops_become_drop_events(self):
        events = perturb_feed(FEED, {"Temp": LinkModel(0.0, 1.0, 0.0)}, random.Random(1))
        assert all(isinstance(e, DropEvent) for e in events)
        assert len(events) == len(FEED)

    def test_duplicates_flagged_and_later(self):
        events = perturb_feed(FEED, {"Temp": LinkModel(5.0, 0.0, 1.0)}, random.Random(1))
        injects = [e for e in events if isinstance(e, InjectEvent)]
        assert len(injects) == 2 * len(FEED)
        dups = [e for e in injects if e.duplicate]
        assert len(dups) == len(FEED)
        for dup in dups:
            twin = next(
                e for e in injects
                if not e.duplicate and e.payload == dup.payload
            )
            assert dup.time >= twin.time

    def test_delay_bounded_and_resorted(self):
        link = LinkModel(max_delay=30.0, drop_p=0.0, dup_p=0.0)
        events = perturb_feed(FEED, {"Temp": link}, random.Random(7))
        times = [e.time for e in events]
        assert times == sorted(times)
        for event, (original, __, __) in zip(
            sorted(events, key=lambda e: e.payload), sorted(FEED, key=lambda f: tuple(sorted(f[2].items())))
        ):
            assert original <= event.time <= original + 30.0

    def test_same_rng_seed_same_perturbation(self):
        link = {"Temp": LinkModel(10.0, 0.3, 0.2)}
        first = perturb_feed(FEED, link, random.Random(9))
        second = perturb_feed(FEED, link, random.Random(9))
        assert first == second

    def test_unknown_stream_passes_through(self):
        events = perturb_feed(
            [(1.0, "Other", {"x": 1})], {"Temp": LinkModel(5.0, 1.0, 0.0)},
            random.Random(1),
        )
        assert events == [InjectEvent(1.0, "Other", (("x", 1),))]


class TestPlanFaults:
    def test_faults_inside_window_sorted(self):
        faults = plan_faults(
            random.Random(3), 4, (100.0, 200.0),
            broker_candidates=[5, 6, 7, 8, 9], processor_candidates=[0, 1],
        )
        assert len(faults) == 4
        assert all(100.0 <= f.time <= 200.0 for f in faults)
        assert [f.time for f in faults] == sorted(f.time for f in faults)

    def test_victims_drawn_without_replacement(self):
        faults = plan_faults(
            random.Random(3), 5, (0.0, 1.0),
            broker_candidates=[5, 6, 7], processor_candidates=[0, 1],
        )
        victims = [(f.kind, f.node) for f in faults]
        assert len(set(victims)) == len(victims)

    def test_at_least_one_processor_survives(self):
        for seed in range(30):
            faults = plan_faults(
                random.Random(seed), 6, (0.0, 1.0),
                broker_candidates=[5, 6], processor_candidates=[0, 1, 2],
                processor_fault_p=1.0,
            )
            downed = [f for f in faults if f.kind == "processor"]
            assert len(downed) <= 2  # of 3 processors

    def test_exhausted_candidates_truncate_plan(self):
        faults = plan_faults(
            random.Random(1), 10, (0.0, 1.0),
            broker_candidates=[5], processor_candidates=[0],
        )
        assert len(faults) <= 1


class TestMergeAndRender:
    def test_merge_sorts_by_time(self):
        a = [InjectEvent(5.0, "Temp", (("x", 1),))]
        b = [FaultEvent(2.0, "broker", 9), DropEvent(7.0, "Temp")]
        merged = merge_events(a, b)
        assert [e.time for e in merged] == [2.0, 5.0, 7.0]
