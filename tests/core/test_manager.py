"""The per-processor query manager: grouping, naming and member
profiles.  What a group installs on the SPE is tested at the processor
(tests/system/test_node.py)."""

import pytest

from repro.core.grouping import GroupingDecision, GroupingOptimizer
from repro.core.manager import QueryManager
from repro.core.profiles import result_profile, source_profile
from repro.core.cost import CostModel
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.workload.auction import TABLE1_Q1, TABLE1_Q2


@pytest.fixture
def manager(auction_catalog):
    return QueryManager(auction_catalog)


class TestSubmission:
    def test_first_submission_creates_group(self, manager):
        sub = manager.submit(parse_query(TABLE1_Q1), name="q1")
        assert sub.created_group
        assert manager.result_stream_of(sub.group).endswith(":results")
        assert sub.query.name == "q1"

    def test_overlapping_query_joins_group(self, manager):
        manager.submit(parse_query(TABLE1_Q1), name="q1")
        sub = manager.submit(parse_query(TABLE1_Q2), name="q2")
        assert not sub.created_group
        assert sub.benefit_delta > 0
        assert len(manager.groups) == 1

    def test_result_profiles_cover_all_members(self, manager):
        manager.submit(parse_query(TABLE1_Q1), name="q1")
        sub = manager.submit(parse_query(TABLE1_Q2), name="q2")
        assert set(manager.result_profiles_of(sub.group)) == {"q1", "q2"}

    def test_source_profile_covers_inputs(self, manager, auction_catalog):
        # What the processor subscribes with: composed from the group
        # the submission hands back.
        sub = manager.submit(parse_query(TABLE1_Q1), name="q1")
        profile = source_profile(sub.group.representative, auction_catalog)
        assert profile.streams == frozenset({"OpenAuction", "ClosedAuction"})

    def test_returns_the_optimizers_decision(self, manager):
        first = manager.submit(parse_query(TABLE1_Q1), name="q1")
        second = manager.submit(parse_query(TABLE1_Q2), name="q2")
        assert isinstance(first, GroupingDecision)
        assert isinstance(second, GroupingDecision)
        assert second.group is first.group is manager.grouping.group_of("q2")
        assert manager.grouping.group_of("q1") is first.group

    def test_auto_naming(self, manager):
        sub = manager.submit(parse_query(TABLE1_Q1))
        assert sub.query.name is not None

    def test_invalid_query_rejected(self, manager):
        with pytest.raises(Exception):
            manager.submit(parse_query("SELECT X.a FROM X"), name="bad")


class TestWithdraw:
    def test_withdraw_last_member_removes_group(self, manager):
        manager.submit(parse_query(TABLE1_Q1), name="q1")
        assert manager.withdraw("q1") is None
        assert manager.groups == []

    def test_withdraw_member_recomposes(self, manager):
        manager.submit(parse_query(TABLE1_Q1), name="q1")
        manager.submit(parse_query(TABLE1_Q2), name="q2")
        group = manager.withdraw("q2")
        assert group is not None
        assert [q.name for q in group.members] == ["q1"]
        assert set(manager.result_profiles_of(group)) == {"q1"}

    def test_withdraw_unknown_raises(self, manager):
        with pytest.raises(KeyError):
            manager.withdraw("zzz")


class TestComposedProfiles:
    """``result_profiles_of`` hands back the profiles it composed last
    only while they are still what a fresh composition would give."""

    def test_widened_schema_recomposes_a_star_member(self, sensor_catalog):
        manager = QueryManager(sensor_catalog)
        sub = manager.submit(
            parse_query("SELECT T.* FROM Temp [Now] T WHERE T.temperature > 10"),
            name="q1",
        )
        group = sub.group
        before = manager.result_profiles_of(group)["q1"]
        temp = sensor_catalog.get("Temp")
        sensor_catalog.register(
            StreamSchema(
                "Temp",
                temp.attributes + (Attribute("pressure", "float", 900.0, 1100.0),),
                rate=temp.rate,
            )
        )
        after = manager.result_profiles_of(group)["q1"]
        stream = manager.result_stream_of(group)
        fresh = result_profile(
            group.members[0], group.representative, sensor_catalog, stream,
            subscriber="q1",
        )
        assert after == fresh
        assert after.projection_for(stream) == before.projection_for(stream) | {
            "Temp.pressure"
        }

    def test_unchanged_group_hands_back_the_same_profiles(self, manager):
        manager.submit(parse_query(TABLE1_Q1), name="q1")
        sub = manager.submit(parse_query(TABLE1_Q2), name="q2")
        first = manager.result_profiles_of(sub.group)
        again = manager.result_profiles_of(sub.group)
        assert all(again[name] is first[name] for name in ("q1", "q2"))


class TestMergingDisabled:
    def test_infinite_threshold_keeps_groups_apart(self, auction_catalog):
        manager = QueryManager(
            auction_catalog,
            grouping=GroupingOptimizer(
                auction_catalog, CostModel(), merge_threshold=float("inf")
            ),
        )
        manager.submit(parse_query(TABLE1_Q1), name="q1")
        manager.submit(parse_query(TABLE1_Q2), name="q2")
        assert len(manager.groups) == 2
