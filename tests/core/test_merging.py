"""Representative-query composition."""

import pytest

from repro.core.containment import contains
from repro.core.merging import (
    MergeError,
    mergeable,
    merge_queries,
    representative,
    residual_atoms,
    window_residuals,
)
from repro.cql.parser import parse_query
from repro.cql.predicates import Interval


def q(text, name=None):
    return parse_query(text, name=name)


class TestMergeable:
    def test_same_stream_spj(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp T")
        b = q("SELECT T.humidity FROM Temp T")
        assert mergeable(a, b, sensor_catalog)

    def test_different_streams(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp T")
        b = q("SELECT W.speed FROM Wind W")
        assert not mergeable(a, b, sensor_catalog)

    def test_spj_vs_aggregate(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp T")
        b = q("SELECT AVG(T.temperature) FROM Temp T GROUP BY T.station")
        assert not mergeable(a, b, sensor_catalog)

    def test_aggregates_need_same_signature(self, sensor_catalog):
        a = q("SELECT AVG(T.temperature) FROM Temp T GROUP BY T.station")
        b = q("SELECT MAX(T.temperature) FROM Temp T GROUP BY T.station")
        assert not mergeable(a, b, sensor_catalog)

    def test_aggregates_need_same_windows(self, sensor_catalog):
        a = q("SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T GROUP BY T.station")
        b = q("SELECT AVG(T.temperature) FROM Temp [Range 2 Hour] T GROUP BY T.station")
        assert not mergeable(a, b, sensor_catalog)

    def test_self_join_not_mergeable(self, sensor_catalog):
        a = q("SELECT x.temperature FROM Temp x, Temp y WHERE x.station = y.station")
        assert not mergeable(a, a, sensor_catalog)


class TestSPJMerging:
    def test_windows_take_maximum(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp [Range 1 Hour] T", "a")
        b = q("SELECT T.temperature FROM Temp [Range 3 Hour] T", "b")
        rep = merge_queries(a, b, sensor_catalog)
        assert rep.stream_ref("Temp").window.size == 3 * 3600

    def test_predicate_hull(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp T WHERE T.temperature >= 0 AND T.temperature <= 10", "a")
        b = q("SELECT T.temperature FROM Temp T WHERE T.temperature >= 5 AND T.temperature <= 20", "b")
        rep = merge_queries(a, b, sensor_catalog)
        assert rep.predicate.intervals["Temp.temperature"] == Interval(0, 20)

    def test_projection_unions_outputs(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp T", "a")
        b = q("SELECT T.humidity FROM Temp T", "b")
        rep = merge_queries(a, b, sensor_catalog)
        outputs = set(rep.output_attribute_names(sensor_catalog))
        assert {"Temp.temperature", "Temp.humidity"} <= outputs

    def test_residual_attributes_added_to_projection(self, sensor_catalog):
        # b's filter on humidity is loosened away; humidity must be
        # carried for the re-tightening even though nobody selects it.
        a = q("SELECT T.temperature FROM Temp T", "a")
        b = q("SELECT T.temperature FROM Temp T WHERE T.humidity > 50", "b")
        rep = merge_queries(a, b, sensor_catalog)
        assert "Temp.humidity" in rep.output_attribute_names(sensor_catalog)

    def test_members_contained_in_rep(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp [Range 1 Hour] T WHERE T.temperature > 20", "a")
        b = q("SELECT T.humidity FROM Temp [Range 2 Hour] T WHERE T.humidity < 30", "b")
        rep = merge_queries(a, b, sensor_catalog)
        assert contains(a, rep, sensor_catalog)
        assert contains(b, rep, sensor_catalog)

    def test_join_windows_need_timestamps(self, auction_catalog, q1, q2):
        rep = merge_queries(q1, q2, auction_catalog)
        outputs = set(rep.output_attribute_names(auction_catalog))
        assert "OpenAuction.timestamp" in outputs
        assert "ClosedAuction.timestamp" in outputs

    def test_incompatible_queries_raise(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp T", "a")
        b = q("SELECT W.speed FROM Wind W", "b")
        with pytest.raises(MergeError):
            merge_queries(a, b, sensor_catalog)

    def test_empty_group_raises(self, sensor_catalog):
        with pytest.raises(MergeError):
            representative([], sensor_catalog)

    def test_singleton_group_is_canonical_member(self, sensor_catalog):
        a = q("SELECT x.temperature FROM Temp x", "a")
        rep = representative([a], sensor_catalog)
        assert rep.reference_names == ("Temp",)

    def test_three_way_merge(self, sensor_catalog):
        queries = [
            q("SELECT T.temperature FROM Temp [Range 1 Hour] T WHERE T.temperature > 30", "a"),
            q("SELECT T.temperature FROM Temp [Range 2 Hour] T WHERE T.temperature > 20", "b"),
            q("SELECT T.humidity FROM Temp [Range 3 Hour] T WHERE T.temperature > 10", "c"),
        ]
        rep = representative(queries, sensor_catalog)
        for member in queries:
            assert contains(member, rep, sensor_catalog)

    def test_incremental_composition_contains_members(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp [Range 1 Hour] T WHERE T.temperature > 30", "a")
        b = q("SELECT T.humidity FROM Temp [Range 2 Hour] T WHERE T.humidity < 40", "b")
        c = q("SELECT T.station FROM Temp [Range 3 Hour] T WHERE T.station <= 5", "c")
        incremental = representative(
            [representative([a, b], sensor_catalog), c], sensor_catalog
        )
        for member in (a, b, c):
            assert contains(member, incremental, sensor_catalog)


class TestAggregateMerging:
    def test_group_attribute_filters_hull(self, sensor_catalog):
        a = q(
            "SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T "
            "WHERE T.station <= 3 GROUP BY T.station",
            "a",
        )
        b = q(
            "SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T "
            "WHERE T.station <= 6 GROUP BY T.station",
            "b",
        )
        rep = merge_queries(a, b, sensor_catalog)
        assert rep.predicate.intervals["Temp.station"].hi == 6
        assert contains(a, rep, sensor_catalog)
        assert contains(b, rep, sensor_catalog)

    def test_non_group_filters_block_merge(self, sensor_catalog):
        a = q(
            "SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T "
            "WHERE T.temperature > 0 GROUP BY T.station",
            "a",
        )
        b = q(
            "SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T "
            "GROUP BY T.station",
            "b",
        )
        with pytest.raises(MergeError):
            merge_queries(a, b, sensor_catalog)

    def test_identical_non_group_filters_merge(self, sensor_catalog):
        a = q(
            "SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T "
            "WHERE T.temperature > 0 AND T.station <= 3 GROUP BY T.station",
            "a",
        )
        b = q(
            "SELECT AVG(T.temperature) FROM Temp [Range 1 Hour] T "
            "WHERE T.temperature > 0 AND T.station <= 7 GROUP BY T.station",
            "b",
        )
        rep = merge_queries(a, b, sensor_catalog)
        assert contains(a, rep, sensor_catalog)
        assert contains(b, rep, sensor_catalog)


class TestResiduals:
    def test_residual_atoms_of_tighter_member(self, sensor_catalog):
        member = q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", "m").canonical(sensor_catalog)
        rep = q("SELECT T.temperature FROM Temp T WHERE T.temperature > 0", "r").canonical(sensor_catalog)
        atoms = residual_atoms(member, rep.predicate)
        assert len(atoms) == 1
        assert "20" in str(atoms[0])

    def test_no_residual_when_identical(self, sensor_catalog):
        member = q("SELECT T.temperature FROM Temp T WHERE T.temperature > 20", "m").canonical(sensor_catalog)
        assert residual_atoms(member, member.predicate) == []

    def test_window_residuals_for_widened_join(self, auction_catalog, q1, q2):
        rep = merge_queries(q1, q2, auction_catalog)
        constraints = window_residuals(q1.canonical(auction_catalog), rep)
        assert len(constraints) == 1
        (constraint,) = constraints
        assert constraint.left == "ClosedAuction.timestamp"
        assert constraint.right == "OpenAuction.timestamp"
        assert constraint.interval.hi == 3 * 3600

    def test_no_window_residuals_for_single_stream(self, sensor_catalog):
        a = q("SELECT T.temperature FROM Temp [Range 1 Hour] T", "a").canonical(sensor_catalog)
        rep = q("SELECT T.temperature FROM Temp [Range 9 Hour] T", "r").canonical(sensor_catalog)
        assert window_residuals(a, rep) == []

    def test_no_window_residuals_when_windows_equal(self, auction_catalog, q2, q3):
        assert window_residuals(q2.canonical(auction_catalog), q3.canonical(auction_catalog)) == []
