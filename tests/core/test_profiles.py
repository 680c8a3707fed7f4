"""Profile composition: source, direct-result, re-tightening."""

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES
from repro.core.merging import merge_queries
from repro.core.profiles import (
    ProfileCompositionError,
    result_profile,
    source_profile,
)
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, Catalog, StreamSchema


@pytest.fixture
def rs_catalog():
    """The R/S example of section 4."""
    return Catalog(
        [
            StreamSchema(
                "R",
                [Attribute("A", "float", 0, 100), Attribute("B", "int", 0, 9), Attribute("D", "float")],
            ),
            StreamSchema(
                "S",
                [Attribute("B", "int", 0, 9), Attribute("C", "float"), Attribute("E", "float")],
            ),
        ]
    )


class TestSourceProfile:
    def test_paper_example(self, rs_catalog):
        """Section 4: S={R,S}, P={R.A,R.B,S.B,S.C}, F={R.A>10}."""
        query = parse_query(
            "SELECT R.A, S.C FROM R [Now], S [Now] "
            "WHERE R.B = S.B AND R.A > 10"
        )
        profile = source_profile(query, rs_catalog)
        assert profile.streams == frozenset({"R", "S"})
        assert profile.projection_for("R") == frozenset({"A", "B"})
        assert profile.projection_for("S") == frozenset({"B", "C"})
        r_filter = profile.filters_for("R")[0]
        assert r_filter.covers(Datagram("R", {"A": 11, "B": 1}))
        assert not r_filter.covers(Datagram("R", {"A": 9, "B": 1}))

    def test_join_predicates_not_in_filters(self, rs_catalog):
        query = parse_query("SELECT R.A FROM R, S WHERE R.B = S.B")
        profile = source_profile(query, rs_catalog)
        for flt in profile.filters:
            assert not flt.condition.links

    def test_unfiltered_stream_requested_unconditionally(self, rs_catalog):
        query = parse_query("SELECT R.A, S.C FROM R, S WHERE R.A > 10")
        profile = source_profile(query, rs_catalog)
        s_filters = profile.filters_for("S")
        assert all(f.condition.is_true for f in s_filters)

    def test_aliases_stripped(self, rs_catalog):
        query = parse_query("SELECT x.A FROM R x WHERE x.A > 10")
        profile = source_profile(query, rs_catalog)
        assert profile.streams == frozenset({"R"})
        flt = profile.filters_for("R")[0]
        assert flt.covers(Datagram("R", {"A": 11}))

    def test_group_by_attributes_projected(self, rs_catalog):
        query = parse_query("SELECT AVG(R.A) FROM R GROUP BY R.B")
        profile = source_profile(query, rs_catalog)
        assert profile.projection_for("R") == frozenset({"A", "B"})

    def test_star_projects_everything(self, rs_catalog):
        query = parse_query("SELECT R.* FROM R")
        profile = source_profile(query, rs_catalog)
        assert profile.projection_for("R") == frozenset({"A", "B", "D"})


class TestResultProfile:
    def test_table1_p1(self, auction_catalog, q1, q2):
        rep = merge_queries(q1, q2, auction_catalog, name="q3")
        p1 = result_profile(q1, rep, auction_catalog, "s3", subscriber="u1")
        assert p1.streams == frozenset({"s3"})
        assert p1.projection_for("s3") == frozenset(
            {
                "OpenAuction.itemID",
                "OpenAuction.sellerID",
                "OpenAuction.start_price",
                "OpenAuction.timestamp",
            }
        )
        flt = p1.filters[0]
        # Result at the window edge: closed exactly 3h after opening.
        edge = Datagram(
            "s3",
            {"OpenAuction.timestamp": 0.0, "ClosedAuction.timestamp": 10800.0},
            10800.0,
        )
        beyond = Datagram(
            "s3",
            {"OpenAuction.timestamp": 0.0, "ClosedAuction.timestamp": 10801.0},
            10801.0,
        )
        assert flt.condition.evaluate(edge.payload)
        assert not flt.condition.evaluate(beyond.payload)

    def test_table1_p2_unfiltered(self, auction_catalog, q1, q2):
        rep = merge_queries(q1, q2, auction_catalog, name="q3")
        p2 = result_profile(q2, rep, auction_catalog, "s3")
        assert p2.filters[0].condition.is_true
        assert p2.projection_for("s3") == frozenset(
            {
                "OpenAuction.itemID",
                "OpenAuction.timestamp",
                "ClosedAuction.buyerID",
                "ClosedAuction.timestamp",
            }
        )

    def test_selection_residual_refilters(self, sensor_catalog):
        a = parse_query("SELECT T.temperature FROM Temp T WHERE T.temperature > 30", name="a")
        b = parse_query("SELECT T.temperature FROM Temp T WHERE T.temperature > 10", name="b")
        rep = merge_queries(a, b, sensor_catalog)
        pa = result_profile(a, rep, sensor_catalog, "out")
        assert pa.covers(Datagram("out", {"Temp.temperature": 35.0}))
        assert not pa.covers(Datagram("out", {"Temp.temperature": 20.0}))

    def test_identical_member_gets_trivial_filter(self, sensor_catalog):
        a = parse_query("SELECT T.temperature FROM Temp T", name="a")
        b = parse_query("SELECT T.temperature FROM Temp T", name="b")
        rep = merge_queries(a, b, sensor_catalog)
        pa = result_profile(a, rep, sensor_catalog, "out")
        assert pa.filters[0].condition.is_true

    def test_unrecoverable_member_raises(self, sensor_catalog):
        # Hand-build a bogus representative lacking the residual attr.
        member = parse_query(
            "SELECT T.temperature FROM Temp T WHERE T.humidity > 50", name="m"
        )
        bogus_rep = parse_query("SELECT T.temperature FROM Temp T", name="r")
        with pytest.raises(ProfileCompositionError):
            result_profile(member, bogus_rep, sensor_catalog, "out")

    def test_member_output_missing_raises(self, sensor_catalog):
        member = parse_query("SELECT T.humidity FROM Temp T", name="m")
        bogus_rep = parse_query("SELECT T.temperature FROM Temp T", name="r")
        with pytest.raises(ProfileCompositionError):
            result_profile(member, bogus_rep, sensor_catalog, "out")
