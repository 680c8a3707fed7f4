"""The incremental greedy grouping optimizer."""

import pytest

from repro.core.containment import contains
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer
from repro.cql.parser import parse_query


def q(text, name):
    return parse_query(text, name=name)


@pytest.fixture
def optimizer(sensor_catalog):
    return GroupingOptimizer(sensor_catalog, CostModel())


class TestBasicGrouping:
    def test_first_query_founds_group(self, optimizer):
        decision = optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        assert decision.created_group
        assert optimizer.group_count == 1

    def test_identical_queries_share_group(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", "a"))
        decision = optimizer.add(
            q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", "b")
        )
        assert not decision.created_group
        assert decision.benefit_delta > 0
        assert optimizer.group_count == 1

    def test_incompatible_queries_separate_groups(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        optimizer.add(q("SELECT W.speed FROM Wind W", "b"))
        assert optimizer.group_count == 2

    def test_unprofitable_merge_rejected(self, optimizer):
        optimizer.add(
            q(
                "SELECT T.temperature FROM Temp T "
                "WHERE T.temperature >= -20 AND T.temperature <= -15",
                "cold",
            )
        )
        optimizer.add(
            q(
                "SELECT T.temperature FROM Temp T "
                "WHERE T.temperature >= 35 AND T.temperature <= 40",
                "hot",
            )
        )
        assert optimizer.group_count == 2

    def test_duplicate_name_rejected(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        with pytest.raises(ValueError):
            optimizer.add(q("SELECT T.humidity FROM Temp T", "a"))

    def test_unnamed_query_rejected(self, optimizer):
        with pytest.raises(ValueError):
            optimizer.add(parse_query("SELECT T.temperature FROM Temp T"))

    def test_group_of(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        group = optimizer.group_of("a")
        assert group is not None
        assert [q.name for q in group.members] == ["a"]
        assert optimizer.group_of("zzz") is None

    def test_group_by_id(self, optimizer):
        decision = optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        gid = decision.group.group_id
        assert optimizer.group(gid) is decision.group
        optimizer.extract_group(gid)
        assert optimizer.group(gid) is None


class TestInvariants:
    def test_members_always_contained_in_representative(self, optimizer, sensor_catalog):
        queries = [
            q("SELECT T.temperature FROM Temp [Range 1 Hour] T WHERE T.temperature > 30", "a"),
            q("SELECT T.temperature FROM Temp [Range 2 Hour] T WHERE T.temperature > 20", "b"),
            q("SELECT T.humidity, T.temperature FROM Temp [Range 1 Hour] T", "c"),
            q("SELECT W.speed FROM Wind W WHERE W.speed > 10", "d"),
            q("SELECT W.speed FROM Wind W WHERE W.speed > 30", "e"),
        ]
        for query in queries:
            optimizer.add(query)
        for group in optimizer.groups:
            for member in group.members:
                assert contains(member, group.representative, sensor_catalog)

    def test_query_count_and_ratio(self, optimizer):
        assert optimizer.grouping_ratio() == 1.0
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        optimizer.add(q("SELECT T.temperature FROM Temp T", "b"))
        optimizer.add(q("SELECT W.speed FROM Wind W", "c"))
        assert optimizer.query_count == 3
        assert optimizer.group_count == 2
        assert optimizer.grouping_ratio() == pytest.approx(2 / 3)

    def test_benefit_accounting(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", "a"))
        optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", "b"))
        assert optimizer.total_benefit() == pytest.approx(
            optimizer.total_unmerged_rate() - optimizer.total_merged_rate()
        )
        assert 0 < optimizer.benefit_ratio() < 1

    def test_representative_rate_cached_consistently(self, optimizer, sensor_catalog):
        model = optimizer.cost_model
        optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 30", "a"))
        optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 10", "b"))
        for group in optimizer.groups:
            assert group.representative_rate == pytest.approx(
                model.result_rate(group.representative, sensor_catalog)
            )


class TestThreshold:
    def test_infinite_threshold_disables_merging(self, sensor_catalog):
        optimizer = GroupingOptimizer(
            sensor_catalog, CostModel(), merge_threshold=float("inf")
        )
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        optimizer.add(q("SELECT T.temperature FROM Temp T", "b"))
        assert optimizer.group_count == 2
        assert optimizer.benefit_ratio() == 0.0


class TestRemoval:
    def test_remove_query_recomposes(self, optimizer, sensor_catalog):
        optimizer.add(q("SELECT T.temperature FROM Temp [Range 1 Hour] T", "a"))
        optimizer.add(q("SELECT T.temperature FROM Temp [Range 9 Hour] T", "b"))
        assert optimizer.group_count == 1
        optimizer.remove("b")
        group = optimizer.group_of("a")
        assert group.representative.stream_ref("Temp").window.size == 3600

    def test_remove_last_member_deletes_group(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        optimizer.remove("a")
        assert optimizer.group_count == 0
        assert optimizer.query_count == 0

    def test_remove_unknown_raises(self, optimizer):
        with pytest.raises(KeyError):
            optimizer.remove("nope")

    def test_readd_after_remove(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        optimizer.remove("a")
        optimizer.add(q("SELECT T.temperature FROM Temp T", "a"))
        assert optimizer.query_count == 1


class TestReoptimize:
    def test_preserves_queries(self, optimizer):
        optimizer.add(q("SELECT T.temperature FROM Temp T WHERE T.temperature > 30", "a"))
        optimizer.add(q("SELECT T.humidity FROM Temp T", "b"))
        optimizer.add(q("SELECT W.speed FROM Wind W", "c"))
        optimizer.reoptimize()
        assert optimizer.query_count == 3
        for name in ("a", "b", "c"):
            assert optimizer.group_of(name) is not None

    def test_never_increases_groups_on_trivial_sets(self, optimizer):
        for index in range(6):
            optimizer.add(
                q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", f"q{index}")
            )
        before = optimizer.group_count
        delta = optimizer.reoptimize()
        assert optimizer.group_count <= before
        assert delta == before - optimizer.group_count

    def test_members_still_contained(self, optimizer, sensor_catalog):
        from repro.core.containment import contains

        optimizer.add(q("SELECT T.temperature FROM Temp [Range 1 Hour] T WHERE T.temperature > 30", "a"))
        optimizer.add(q("SELECT T.temperature FROM Temp [Range 2 Hour] T WHERE T.temperature > 10", "b"))
        optimizer.add(q("SELECT T.humidity FROM Temp [Range 1 Hour] T", "c"))
        optimizer.reoptimize()
        for group in optimizer.groups:
            for member in group.members:
                assert contains(member, group.representative, sensor_catalog)

    def test_can_improve_order_sensitive_grouping(self, sensor_catalog):
        """A workload where insertion order leaves benefit on the table."""
        import random

        from repro.workload.queries import QueryWorkload, WorkloadConfig
        from repro.workload.sensorscope import sensorscope_catalog

        catalog = sensorscope_catalog(8, rng=random.Random(1))
        workload = QueryWorkload(
            catalog, WorkloadConfig(skew=1.0, join_fraction=0.0, seed=5)
        )
        from repro.core.cost import CostModel
        from repro.core.grouping import GroupingOptimizer

        optimizer = GroupingOptimizer(catalog, CostModel())
        for query in workload.generate(200):
            optimizer.add(query)
        before = optimizer.benefit_ratio()
        optimizer.reoptimize()
        assert optimizer.benefit_ratio() >= before - 1e-9
