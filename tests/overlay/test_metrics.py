"""Link traffic accounting."""

from repro.overlay.metrics import LinkStats


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
        assert stats.links_used == 2

    def test_weighted_cost(self):
        stats = LinkStats({(0, 1): 2.0})
        stats.record(0, 1, 10.0)
        stats.record(1, 2, 10.0)  # unknown weight defaults to 1.0
        assert stats.weighted_cost() == 30.0

    def test_unused_link_zero(self):
        stats = LinkStats()
        assert stats.usage(5, 6).messages == 0

    def test_reset(self):
        stats = LinkStats()
        stats.record(0, 1, 10.0)
        stats.reset()
        assert stats.total_bytes() == 0.0

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

    def test_reset_between_two_replays_of_the_same_records(self):
        stats = LinkStats()
        stats.replay(self.RECORDS)
        stats.reset()
        stats.replay(self.RECORDS)
        assert stats.as_dict() == {(2, 3): (2, 6.0), (0, 1): (1, 7.0)}

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
