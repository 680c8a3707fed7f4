"""Query AST: validation, canonicalisation, windows, projections."""

import math

import pytest

from repro.cql.ast import (
    Aggregate,
    ContinuousQuery,
    NOW,
    QueryError,
    Star,
    StreamRef,
    UNBOUNDED,
    Unresolved,
    Window,
    query_problems,
)
from repro.cql.parser import parse_query
from repro.cql.predicates import AttrRef, Comparison, Conjunction
from repro.cql.schema import Attribute, Catalog, StreamSchema


class TestWindow:
    def test_now_and_unbounded(self):
        assert NOW.is_now
        assert UNBOUNDED.is_unbounded
        assert not Window(10).is_now

    def test_rendering(self):
        assert str(NOW) == "[Now]"
        assert str(UNBOUNDED) == "[Unbounded]"
        assert str(Window(3 * 3600)) == "[Range 3 Hour]"
        assert str(Window(90)) == "[Range 90 Second]"

    def test_ordering(self):
        assert Window(1) < Window(2)


class TestConstruction:
    def test_needs_streams(self):
        with pytest.raises(QueryError):
            ContinuousQuery(select_items=(AttrRef("S", "a"),), streams=())

    def test_needs_select_items(self):
        with pytest.raises(QueryError):
            ContinuousQuery(select_items=(), streams=(StreamRef("S"),))

    def test_duplicate_reference_names_rejected(self):
        with pytest.raises(QueryError):
            ContinuousQuery(
                select_items=(AttrRef("S", "a"),),
                streams=(StreamRef("S"), StreamRef("S")),
            )

    def test_self_join_with_aliases_allowed(self):
        q = ContinuousQuery(
            select_items=(AttrRef("a1", "x"),),
            streams=(StreamRef("S", alias="a1"), StreamRef("S", alias="a2")),
        )
        assert q.has_self_join


class TestValidation:
    def test_unknown_stream(self, auction_catalog):
        q = parse_query("SELECT X.a FROM X")
        with pytest.raises(QueryError):
            q.validate(auction_catalog)

    def test_unknown_attribute(self, auction_catalog):
        q = parse_query("SELECT O.nope FROM OpenAuction O")
        with pytest.raises(QueryError):
            q.validate(auction_catalog)

    def test_where_attribute_checked(self, auction_catalog):
        q = parse_query("SELECT O.itemID FROM OpenAuction O WHERE O.bogus > 1")
        with pytest.raises(QueryError):
            q.validate(auction_catalog)

    def test_valid_query_passes(self, q1, auction_catalog):
        q1.validate(auction_catalog)

    def test_star_qualifier_checked(self, auction_catalog):
        q = parse_query("SELECT Z.* FROM OpenAuction O")
        with pytest.raises(QueryError, match="'Z'"):
            q.validate(auction_catalog)

    def test_group_by_attribute_checked(self, auction_catalog):
        q = parse_query(
            "SELECT COUNT(*) AS n FROM OpenAuction O GROUP BY O.bogus"
        )
        with pytest.raises(QueryError, match="bogus"):
            q.validate(auction_catalog)

    def test_unqualified_attribute_rejected(self, auction_catalog):
        q = ContinuousQuery(
            select_items=(AttrRef(None, "itemID"),),
            streams=(StreamRef("OpenAuction", NOW),),
        )
        with pytest.raises(QueryError, match="must be qualified"):
            q.validate(auction_catalog)


class TestQueryProblems:
    """``query_problems``: every admission error, with its analyzer code
    and the position it points at; ``validate`` raises the first."""

    CATALOG = Catalog(
        [
            StreamSchema("A", [Attribute("x", "int"), Attribute("t", "timestamp")]),
            StreamSchema("B", [Attribute("y", "str"), Attribute("t", "timestamp")]),
        ]
    )

    @pytest.mark.parametrize(
        "text, code, at",
        [
            ("SELECT N.x FROM Nope [Now] N", "COS101", "Nope"),
            ("SELECT Z.* FROM A [Now] A", "COS101", "Z.*"),
            ("SELECT A.x FROM A [Now] A WHERE A.bogus > 1", "COS102", "A.bogus"),
            ("SELECT A.x FROM A [Now] A WHERE A.x = 'q'", "COS103", "A.x = 'q'"),
            ("SELECT B.y FROM B [Now] B WHERE B.y < 3", "COS103", "B.y < 3"),
            ("SELECT A.x FROM A [Now] A, B [Now] B WHERE A.x = B.y", "COS103", "A.x = B.y"),
            ("SELECT A.x FROM A [Now] A, B [Now] B WHERE B.y - A.t > 3", "COS103", "B.y - A.t"),
            ("SELECT SUM(B.y) AS s FROM B [Range 10 Second] B", "COS103", "SUM"),
            ("SELECT A.x FROM A [Now] A WHERE A.x > 5 AND A.x < 2", "COS201", "A.x > 5"),
        ],
        ids=[
            "stream", "star-qualifier", "attribute", "string-on-numeric",
            "number-on-string", "mixed-equijoin", "difference-on-string",
            "sum-of-string", "unsatisfiable",
        ],
    )
    def test_each_error_has_its_code_and_position(self, text, code, at):
        [problem] = query_problems(parse_query(text), self.CATALOG)
        assert problem.code == code
        assert text[problem.pos:].startswith(at)
        with pytest.raises(QueryError) as raised:
            parse_query(text).validate(self.CATALOG)
        assert str(raised.value) == problem.message

    def test_unqualified_attribute(self):
        query = ContinuousQuery((AttrRef(None, "x"),), (StreamRef("A", NOW),))
        assert [p.code for p in query_problems(query, self.CATALOG)] == ["COS105"]

    def test_clean_query_has_none(self):
        query = parse_query("SELECT A.x FROM A [Now] A, B [Now] B WHERE A.t - B.t < 3")
        assert query_problems(query, self.CATALOG) == []

    def test_validate_raises_the_first_of_several(self):
        query = parse_query(
            "SELECT A.nope FROM A [Now] A WHERE A.x = 'q' AND A.t > 5 AND A.t < 2"
        )
        problems = query_problems(query, self.CATALOG)
        assert [p.code for p in problems] == ["COS102", "COS103", "COS201"]
        with pytest.raises(QueryError, match="no attribute 'nope'"):
            query.validate(self.CATALOG)

    def test_each_reference_is_resolved_once(self, monkeypatch):
        query = parse_query(
            "SELECT A.x, A.t FROM A [Now] A, B [Now] B "
            "WHERE A.x > 1 AND A.x < 9 AND A.t = B.t AND A.t - B.t < 3"
        )
        calls = []
        resolve = ContinuousQuery.resolve
        monkeypatch.setattr(
            ContinuousQuery,
            "resolve",
            lambda self, attr, catalog: calls.append(attr.key) or resolve(self, attr, catalog),
        )
        assert query_problems(query, self.CATALOG) == []
        assert sorted(calls) == ["A.t", "A.x", "B.t"]


class TestResolve:
    """``ContinuousQuery.resolve``: the one rule both ``validate`` and
    the analyzer's COS101/102/105 read."""

    QUERY = "SELECT O.itemID FROM OpenAuction O, ClosedAuction C"

    def test_attribute_resolves_to_its_schema_attribute(self, auction_catalog):
        q = parse_query(self.QUERY)
        resolved = q.resolve(AttrRef("C", "buyerID"), auction_catalog)
        assert resolved == auction_catalog.get("ClosedAuction").attribute("buyerID")

    @pytest.mark.parametrize(
        "attr, kind",
        [
            (AttrRef(None, "itemID"), "unqualified"),
            (AttrRef("Z", "itemID"), "qualifier"),
            (AttrRef("O", "buyerID"), "attribute"),
        ],
    )
    def test_each_problem_has_its_kind(self, auction_catalog, attr, kind):
        resolved = parse_query(self.QUERY).resolve(attr, auction_catalog)
        assert isinstance(resolved, Unresolved)
        assert resolved.kind == kind
        assert attr.name in resolved.message or attr.qualifier in resolved.message

    def test_unknown_stream_is_its_own_kind(self, auction_catalog):
        q = parse_query("SELECT X.a FROM X")
        assert q.resolve(AttrRef("X", "a"), auction_catalog).kind == "stream"
        assert q.resolve_qualifier("X", auction_catalog).kind == "stream"

    def test_qualifier_resolves_to_its_stream_schema(self, auction_catalog):
        q = parse_query(self.QUERY)
        assert q.resolve_qualifier("O", auction_catalog) is auction_catalog.get(
            "OpenAuction"
        )
        assert q.resolve_qualifier("Z", auction_catalog).kind == "qualifier"


class TestProjection:
    def test_star_expansion(self, q1, auction_catalog):
        attrs = q1.projected_attributes(auction_catalog)
        assert [a.key for a in attrs] == [
            "O.itemID",
            "O.sellerID",
            "O.start_price",
            "O.timestamp",
        ]

    def test_output_names(self, q2, auction_catalog):
        assert q2.output_attribute_names(auction_catalog) == [
            "O.itemID",
            "O.timestamp",
            "C.buyerID",
            "C.timestamp",
        ]

    def test_aggregate_output_names(self):
        q = parse_query("SELECT AVG(S.t) AS m FROM S GROUP BY S.station")
        from repro.cql.schema import Attribute, Catalog, StreamSchema

        catalog = Catalog(
            [StreamSchema("S", [Attribute("t"), Attribute("station", "int")])]
        )
        assert q.output_attribute_names(catalog) == ["S.station", "m"]


class TestCanonical:
    def test_aliases_replaced(self, q1, auction_catalog):
        c = q1.canonical(auction_catalog)
        assert c.reference_names == ("OpenAuction", "ClosedAuction")
        assert ("ClosedAuction.itemID", "OpenAuction.itemID") in c.predicate.links

    def test_already_canonical_fast_path(self, auction_catalog):
        q = parse_query("SELECT OpenAuction.itemID FROM OpenAuction")
        assert q.canonical(auction_catalog) is q

    def test_self_join_rejected(self, auction_catalog):
        q = parse_query(
            "SELECT a.itemID FROM OpenAuction a, OpenAuction b "
            "WHERE a.itemID = b.itemID"
        )
        with pytest.raises(QueryError):
            q.canonical(auction_catalog)

    def test_canonical_preserves_windows(self, q1, auction_catalog):
        c = q1.canonical(auction_catalog)
        assert c.stream_ref("OpenAuction").window.size == 3 * 3600
        assert c.stream_ref("ClosedAuction").window == NOW

    def test_canonical_star(self, q1, auction_catalog):
        c = q1.canonical(auction_catalog)
        assert Star("OpenAuction") in c.select_items


class TestWindowManipulation:
    def test_window_of_unknown_reference(self, q1):
        with pytest.raises(QueryError):
            q1.stream_ref("Z").window


class TestAggregateItem:
    def test_bad_function(self):
        with pytest.raises(QueryError):
            Aggregate("median", AttrRef("S", "x"))

    def test_star_only_for_count(self):
        with pytest.raises(QueryError):
            Aggregate("sum", None)

    def test_default_name_includes_arg(self):
        assert Aggregate("max", AttrRef("S", "temp")).name == "max_S_temp"
        assert Aggregate("count", None).name == "count_star"
