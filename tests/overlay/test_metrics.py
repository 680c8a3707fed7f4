"""Link traffic accounting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.overlay.metrics import LinkStats, Tally


class TestLinkStats:
    def test_record_and_usage(self):
        stats = LinkStats()
        stats.record(0, 1, 100.0)
        stats.record(1, 0, 50.0)  # same undirected link
        usage = stats.usage(0, 1)
        assert usage.messages == 2
        assert usage.bytes == 150.0

    def test_totals(self):
        stats = LinkStats()
        stats.record(0, 1, 10.0)
        stats.record(2, 3, 20.0, count=2)
        assert stats.total_messages() == 3
        assert stats.total_bytes() == 30.0
        assert len(stats.as_dict()) == 2

    def test_record_count_is_messages_totalling_size(self):
        stats = LinkStats()
        stats.record(2, 3, 30.0, count=3)
        assert stats.as_dict() == {(2, 3): (3, 30.0)}

    def test_replay_takes_no_count(self):
        # one message of ``size`` bytes per record; repeated use is a Tally
        with pytest.raises(TypeError):
            LinkStats().replay((((0, 1), 5.0),), 2)

    def test_weighted_cost(self):
        stats = LinkStats({(0, 1): 2.0})
        stats.record(0, 1, 10.0)
        stats.record(1, 2, 10.0)  # unknown weight defaults to 1.0
        assert stats.weighted_cost() == 30.0

    def test_unused_link_zero(self):
        stats = LinkStats()
        assert stats.usage(5, 6).messages == 0

    def test_as_dict(self):
        stats = LinkStats()
        stats.record(0, 1, 10.0)
        assert stats.as_dict() == {(0, 1): (1, 10.0)}


class TestReplay:
    RECORDS = (((2, 3), 5.0), ((0, 1), 7.0), ((2, 3), 1.0))

    def test_replay_is_the_records_in_order(self):
        replayed, recorded = LinkStats(), LinkStats()
        replayed.replay(self.RECORDS)
        for (u, v), size in self.RECORDS:
            recorded.record(v, u, size)
        # same totals and the same first-use order of the links
        assert list(replayed.as_dict().items()) == list(recorded.as_dict().items())
        assert list(replayed.as_dict()) == [(2, 3), (0, 1)]

    def test_a_usage_is_made_only_for_a_new_link(self, monkeypatch):
        import repro.overlay.metrics as metrics

        made = []

        class Counted(metrics.LinkUsage):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(metrics, "LinkUsage", Counted)
        stats = LinkStats()
        for __ in range(50):
            stats.record(5, 4, 1.0)
            stats.replay(self.RECORDS)
        assert len(made) == 3  # links (4, 5), (2, 3), (0, 1)


class TestWeightKeyCanonicalization:
    def test_reversed_init_keys_priced_correctly(self):
        # Weights supplied as (v, u) must still be found by
        # weighted_cost(), which looks up canonical edge keys.
        stats = LinkStats({(1, 0): 2.0})
        stats.record(0, 1, 10.0)
        assert stats.weighted_cost() == 20.0


#: links and costs chosen so summation order shows in weighted_cost
EDGES = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (3, 6)]
WEIGHTS = {edge: 0.1 * (3 + index) for index, edge in enumerate(EDGES)}


@st.composite
def route_records(draw, sizes):
    return tuple(
        draw(st.lists(st.tuples(st.sampled_from(EDGES), sizes), min_size=1, max_size=5))
    )


WHOLE = st.sampled_from([1.0, 4.0, 12.0, 13.0, 24.0, 1000.0, 123456789.0])
FRACTIONAL = st.sampled_from([0.1, 2.5, 1e-3, 7.3])


def tally_history(data, sizes):
    """Drive a tallying and an all-eager accumulator through one random
    history of walks (a new route, applied in order), hits (a bump)
    and reads, comparing every read exactly."""
    tallied, eager = LinkStats(WEIGHTS), LinkStats(WEIGHTS)
    routes = []
    for step in range(data.draw(st.integers(1, 40), label="steps")):
        op = data.draw(
            st.sampled_from(["walk", "hit", "hit", "hit", "read"]),
            label=f"op{step}",
        )
        if op == "walk" or (op == "hit" and not routes):
            tally = Tally(data.draw(route_records(sizes), label=f"route{step}"))
            routes.append(tally)
            tallied.bump(tally)
            eager.replay(tally.records)
        elif op == "hit":
            tally = data.draw(st.sampled_from(routes), label=f"hit{step}")
            tallied.bump(tally)
            eager.replay(tally.records)
        else:
            reader = data.draw(
                st.sampled_from(["as_dict", "weighted_cost", "total_bytes", "usage"]),
                label=f"read{step}",
            )
            if reader == "usage":
                edge = data.draw(st.sampled_from(EDGES), label=f"edge{step}")
                assert tallied.usage(*edge) == eager.usage(*edge)
            else:
                assert repr(getattr(tallied, reader)()) == repr(getattr(eager, reader)())
    assert list(tallied.as_dict().items()) == list(eager.as_dict().items())
    assert repr(tallied.weighted_cost()) == repr(eager.weighted_cost())
    assert tallied.total_messages() == eager.total_messages()
    return tallied


class TestTally:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_whole_sizes_match_eager_replay(self, data):
        tallied = tally_history(data, WHOLE)
        assert tallied._pending == []  # every read folded

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_mixed_sizes_match_eager_replay(self, data):
        tally_history(data, st.one_of(WHOLE, FRACTIONAL))

    def test_first_use_is_in_order_and_later_uses_are_counted(self):
        stats = LinkStats()
        tally = Tally((((2, 3), 5.0), ((0, 1), 7.0)))
        stats.bump(tally)
        assert list(stats._usage) == [(2, 3), (0, 1)] and stats._pending == []
        stats.bump(tally)
        stats.bump(tally)
        assert tally.uses == 2 and stats._pending == [tally]
        assert stats.as_dict() == {(2, 3): (3, 15.0), (0, 1): (3, 21.0)}
        assert tally.uses == 0 and stats._pending == []

    def test_a_route_with_a_fractional_size_stays_eager(self):
        stats = LinkStats()
        tally = Tally((((0, 1), 4.0), ((1, 2), 2.5)))
        for __ in range(3):
            stats.bump(tally)
            assert tally.uses == 0 and stats._pending == []
        assert stats.as_dict() == {(0, 1): (3, 12.0), (1, 2): (3, 7.5)}

    def test_a_fractional_size_folds_what_is_pending_first(self):
        stats = LinkStats()
        whole = Tally((((0, 1), 5.0),))
        stats.bump(whole)
        stats.bump(whole)
        assert stats._pending == [whole]
        stats.record(0, 1, 0.1)
        assert stats._pending == [] and stats._usage[(0, 1)].bytes == 5.0 + 5.0 + 0.1
        stats.bump(whole)  # totals are fractional now: applied at once
        assert stats._pending == [] and stats.usage(0, 1).messages == 4
