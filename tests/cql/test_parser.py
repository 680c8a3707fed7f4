"""Lexer and parser behaviour on the CQL-like surface syntax."""

import math

import pytest

from repro.cql.ast import Aggregate, NOW, Star, UNBOUNDED, Window
from repro.cql.lexer import LexError, Token, tokenize
from repro.cql.parser import ParseError, parse_query
from repro.cql.predicates import (
    AttrRef,
    Comparison,
    Conjunction,
    DifferenceConstraint,
    Interval,
    JoinPredicate,
)


class TestLexer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.kind for t in tokens[:-1]] == ["keyword"] * 3

    def test_numbers(self):
        tokens = tokenize("3 4.5")
        assert tokens[0].value == 3
        assert tokens[1].value == 4.5

    def test_string_literals(self):
        assert tokenize("'hello'")[0].value == "hello"
        assert tokenize('"x y"')[0].value == "x y"

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize("'oops")

    def test_two_char_operators(self):
        kinds = [t.text for t in tokenize("<= >= != <>")[:-1]]
        assert kinds == ["<=", ">=", "!=", "!="]

    def test_qualified_name_punct(self):
        texts = [t.text for t in tokenize("O.itemID")[:-1]]
        assert texts == ["O", ".", "itemID"]

    def test_unknown_char(self):
        with pytest.raises(LexError):
            tokenize("a ; b")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "eof"

    @pytest.mark.parametrize("char", ["²", "①", "⁵"])
    def test_a_digit_that_is_not_decimal_is_a_lex_error(self, char):
        # str.isdigit accepts these, int() does not: no ValueError leaks.
        with pytest.raises(LexError, match=r"unexpected character .* at position 6"):
            tokenize(f"S.a > {char}")
        with pytest.raises(LexError):
            parse_query(f"SELECT S.a FROM S WHERE S.a > 3{char}")

    def test_decimal_digits_of_other_scripts_are_numbers(self):
        assert tokenize("٣.٥")[0] == Token("number", "٣.٥", 3.5, 0)


class TestTokenContract:
    def test_a_token_is_a_tuple_without_a_dict(self):
        token = tokenize("S")[0]
        assert isinstance(token, tuple)
        assert not hasattr(token, "__dict__")
        with pytest.raises(AttributeError):
            token.kind = "keyword"

    def test_fields_and_defaults(self):
        assert Token._fields == ("kind", "text", "value", "pos")
        assert Token._field_defaults == {"value": None, "pos": 0}
        token = Token("punct", ",")
        assert (token.value, token.pos) == (None, 0)

    def test_str(self):
        assert [str(t) for t in tokenize("S.a >= 3")] == [
            "ident('S')",
            "punct('.')",
            "ident('a')",
            "op('>=')",
            "number('3')",
            "eof('')",
        ]


class TestParserBasics:
    def test_minimal_query(self):
        q = parse_query("SELECT S.a FROM S")
        assert q.stream_names == ("S",)
        assert q.streams[0].window == UNBOUNDED
        assert q.select_items == (AttrRef("S", "a"),)

    def test_star_projection(self):
        q = parse_query("SELECT O.* FROM OpenAuction O")
        assert q.select_items == (Star("O"),)

    def test_alias(self):
        q = parse_query("SELECT O.a FROM OpenAuction O")
        assert q.streams[0].alias == "O"
        assert q.streams[0].name == "O"

    def test_multiple_streams(self):
        q = parse_query("SELECT R.a FROM R [Now], S [Now]")
        assert q.stream_names == ("R", "S")

    def test_missing_from_is_error(self):
        with pytest.raises(ParseError):
            parse_query("SELECT S.a")

    def test_trailing_garbage_is_error(self):
        with pytest.raises(ParseError):
            parse_query("SELECT S.a FROM S extra ,")


class TestWindows:
    def test_now(self):
        q = parse_query("SELECT S.a FROM S [Now]")
        assert q.streams[0].window == NOW

    def test_unbounded_explicit(self):
        q = parse_query("SELECT S.a FROM S [Unbounded]")
        assert q.streams[0].window.is_unbounded

    def test_range_hours(self):
        q = parse_query("SELECT S.a FROM S [Range 3 Hour]")
        assert q.streams[0].window.size == 3 * 3600

    def test_range_minutes_plural(self):
        q = parse_query("SELECT S.a FROM S [Range 5 Minutes]")
        assert q.streams[0].window.size == 300

    def test_range_bare_seconds(self):
        q = parse_query("SELECT S.a FROM S [Range 42]")
        assert q.streams[0].window.size == 42

    def test_negative_window_rejected(self):
        with pytest.raises(Exception):
            Window(-1)


class TestWhereClause:
    def test_constant_comparison(self):
        q = parse_query("SELECT S.a FROM S WHERE S.a > 10")
        assert q.predicate.intervals["S.a"] == Interval(10, None, True, False)

    def test_flipped_constant(self):
        q = parse_query("SELECT S.a FROM S WHERE 10 < S.a")
        assert q.predicate.intervals["S.a"] == Interval(10, None, True, False)

    def test_equijoin(self):
        q = parse_query("SELECT R.a FROM R, S WHERE R.a = S.b")
        assert ("R.a", "S.b") in q.predicate.links

    def test_between(self):
        q = parse_query("SELECT S.a FROM S WHERE S.a BETWEEN 1 AND 5")
        assert q.predicate.intervals["S.a"] == Interval(1, 5)

    def test_negative_constant(self):
        q = parse_query("SELECT S.a FROM S WHERE S.a >= -3")
        assert q.predicate.intervals["S.a"] == Interval(-3, None)

    def test_string_constant(self):
        q = parse_query("SELECT S.a FROM S WHERE S.name = 'alice'")
        assert q.predicate.intervals["S.name"].is_point

    def test_timestamp_difference(self):
        q = parse_query(
            "SELECT O.a FROM O, C WHERE O.timestamp - C.timestamp <= 0"
        )
        assert ("C.timestamp", "O.timestamp") in q.predicate.diffs

    def test_two_sided_difference(self):
        q = parse_query(
            "SELECT O.a FROM O, C "
            "WHERE O.ts - C.ts <= 0 AND O.ts - C.ts >= -10800"
        )
        diff = q.predicate.diffs[("C.ts", "O.ts")]
        assert diff == Interval(0, 10800)

    def test_nonequality_join_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT R.a FROM R, S WHERE R.a < S.b")

    def test_constant_vs_constant_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT S.a FROM S WHERE 1 = 1")

    @pytest.mark.parametrize(
        "text, pos",
        [
            ("SELECT T.station FROM ss00 [Now] T "
             "WHERE T.station > 3 AND T.station = 'abc'", 59),
            ("SELECT T.station FROM ss00 [Now] T "
             "WHERE T.station - T.ambient_temperature > 'x'", 41),
        ],
        ids=["string-and-number-bounds", "difference-against-string"],
    )
    def test_ill_typed_condition_rejected_with_its_position(self, text, pos):
        with pytest.raises(ParseError, match=f"at position {pos}$"):
            parse_query(text)

    def test_conjunction_chains(self):
        q = parse_query("SELECT S.a FROM S WHERE S.a > 1 AND S.a < 5 AND S.b = 2")
        assert len(q.predicate.intervals) == 2


class TestAggregates:
    def test_count_star(self):
        q = parse_query("SELECT COUNT(*) FROM S [Range 60]")
        agg = q.select_items[0]
        assert isinstance(agg, Aggregate)
        assert agg.func == "count" and agg.arg is None

    def test_avg_with_alias(self):
        q = parse_query("SELECT AVG(S.temp) AS avg_temp FROM S")
        agg = q.select_items[0]
        assert agg.func == "avg"
        assert agg.name == "avg_temp"

    def test_group_by(self):
        q = parse_query("SELECT MAX(S.t) FROM S GROUP BY S.station")
        assert q.group_by == (AttrRef("S", "station"),)
        assert q.is_aggregate

    def test_default_output_name(self):
        q = parse_query("SELECT SUM(S.x) FROM S")
        assert q.select_items[0].name == "sum_S_x"

    def test_mixed_star_and_aggregate_rejected(self):
        with pytest.raises(Exception):
            parse_query("SELECT S.*, COUNT(*) FROM S")


class TestTable1Queries:
    def test_q1_parses(self):
        q = parse_query(
            "SELECT O.* FROM OpenAuction [Range 3 Hour] O, "
            "ClosedAuction [Now] C WHERE O.itemID = C.itemID"
        )
        assert q.stream_ref("O").window.size == 10800
        assert q.stream_ref("C").window == NOW
        assert ("C.itemID", "O.itemID") in q.predicate.links

    def test_paper_section4_example(self):
        q = parse_query(
            "SELECT R.A, S.C FROM R [Now], S [Now] "
            "WHERE R.B = S.B AND R.A > 10"
        )
        assert q.select_items == (AttrRef("R", "A"), AttrRef("S", "C"))
        assert ("R.B", "S.B") in q.predicate.links
        assert q.predicate.intervals["R.A"] == Interval(10, None, True, False)


class TestParserErrors:
    def test_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_query("SELECT S.a FROM S WHERE S.a >")
        assert "position" in str(exc.value)

    def test_between_requires_constants(self):
        with pytest.raises(ParseError):
            parse_query("SELECT S.a FROM S WHERE S.a BETWEEN S.b AND 5")

    def test_diff_must_compare_to_constant(self):
        with pytest.raises(ParseError):
            parse_query("SELECT R.a FROM R, S WHERE R.x - R.y = S.z")

    def test_diff_not_equal_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT R.a FROM R, S WHERE R.x - S.y != 0")

    def test_missing_closing_bracket(self):
        with pytest.raises(ParseError):
            parse_query("SELECT S.a FROM S [Range 5")

    def test_bad_window_keyword(self):
        with pytest.raises(ParseError):
            parse_query("SELECT S.a FROM S [Sliding 5]")

    def test_empty_select(self):
        with pytest.raises(ParseError):
            parse_query("SELECT FROM S")

    def test_whitespace_insensitive(self):
        a = parse_query("SELECT   S.a\n FROM\tS [ Range 5 ]  WHERE  S.a>1")
        b = parse_query("SELECT S.a FROM S [Range 5] WHERE S.a > 1")
        assert a.predicate == b.predicate
        assert a.streams == b.streams
