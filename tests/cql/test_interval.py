"""Interval lattice: membership, containment, intersection, hull."""

import pytest

from repro.cql.predicates import Interval, PredicateError


class TestClassification:
    def test_universal(self):
        assert Interval().is_universal
        assert not Interval(lo=1).is_universal

    def test_empty_when_bounds_cross(self):
        assert Interval(5, 3).is_empty

    def test_empty_point_with_strict_end(self):
        assert Interval(5, 5, lo_strict=True).is_empty
        assert Interval(5, 5, hi_strict=True).is_empty

    def test_point(self):
        assert Interval.point(7).is_point
        assert not Interval(7, 8).is_point

    def test_unbounded_not_empty(self):
        assert not Interval(lo=3).is_empty
        assert not Interval(hi=3).is_empty

    def test_mixed_types_rejected(self):
        with pytest.raises(PredicateError):
            Interval(1, "b")


class TestMembership:
    def test_closed_bounds_inclusive(self):
        iv = Interval(1, 5)
        assert iv.contains_value(1)
        assert iv.contains_value(5)

    def test_strict_bounds_exclusive(self):
        iv = Interval(1, 5, lo_strict=True, hi_strict=True)
        assert not iv.contains_value(1)
        assert not iv.contains_value(5)
        assert iv.contains_value(3)

    def test_unbounded_sides(self):
        assert Interval(lo=0).contains_value(1e12)
        assert Interval(hi=0).contains_value(-1e12)

    def test_string_interval(self):
        iv = Interval("a", "m")
        assert iv.contains_value("hello")
        assert not iv.contains_value("zebra")

    def test_type_mismatch_is_not_member(self):
        assert not Interval(1, 5).contains_value("three")
        assert not Interval("a", "b").contains_value(3)


class TestContainment:
    def test_wider_contains_narrower(self):
        assert Interval(0, 10).contains_interval(Interval(2, 8))

    def test_narrower_does_not_contain_wider(self):
        assert not Interval(2, 8).contains_interval(Interval(0, 10))

    def test_equal_contains(self):
        assert Interval(0, 10).contains_interval(Interval(0, 10))

    def test_strict_boundary_excludes_closed(self):
        strict = Interval(0, 10, lo_strict=True)
        closed = Interval(0, 10)
        assert not strict.contains_interval(closed)
        assert closed.contains_interval(strict)

    def test_everything_contains_empty(self):
        assert Interval(5, 6).contains_interval(Interval(9, 1))

    def test_universal_contains_all(self):
        assert Interval().contains_interval(Interval(lo=3))
        assert Interval().contains_interval(Interval())


class TestLattice:
    def test_intersect_overlapping(self):
        assert Interval(0, 10).intersect(Interval(5, 15)) == Interval(5, 10)

    def test_intersect_disjoint_is_empty(self):
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty

    def test_intersect_keeps_strictness(self):
        result = Interval(0, 10, hi_strict=True).intersect(Interval(0, 10))
        assert result.hi_strict

    def test_hull_covers_gap(self):
        assert Interval(0, 1).hull(Interval(5, 6)) == Interval(0, 6)

    def test_hull_with_empty_is_identity(self):
        iv = Interval(2, 4)
        assert iv.hull(Interval(9, 1)) == iv
        assert Interval(9, 1).hull(iv) == iv

    def test_hull_unbounded_absorbs(self):
        assert Interval(0, 1).hull(Interval(lo=5)) == Interval(lo=0)

    def test_hull_strictness_weakens(self):
        # Hull of an open and a closed endpoint at the same value is closed.
        result = Interval(0, 5, hi_strict=True).hull(Interval(0, 5))
        assert not result.hi_strict

    def test_intersect_then_contains(self):
        a, b = Interval(0, 10), Interval(5, 20)
        meet = a.intersect(b)
        assert a.contains_interval(meet)
        assert b.contains_interval(meet)

    def test_hull_contains_both(self):
        a, b = Interval(0, 3), Interval(8, 9, hi_strict=True)
        join = a.hull(b)
        assert join.contains_interval(a)
        assert join.contains_interval(b)


class TestArithmetic:
    def test_negate(self):
        assert Interval(1, 2).negate() == Interval(-2, -1)

    def test_negate_preserves_strictness_swapped(self):
        iv = Interval(1, 2, lo_strict=True)
        neg = iv.negate()
        assert neg == Interval(-2, -1, hi_strict=True)

    def test_negate_unbounded_side_flips(self):
        assert Interval(lo=1).negate() == Interval(hi=-1)
        assert Interval(hi=0, hi_strict=True).negate() == Interval(lo=0, lo_strict=True)

    def test_negate_point(self):
        assert Interval.point(3).negate() == Interval.point(-3)

    def test_negate_involution(self):
        iv = Interval(-3, 7, lo_strict=True, hi_strict=False)
        assert iv.negate().negate() == iv

    def test_str(self):
        assert str(Interval(1, 2, lo_strict=True)) == "(1, 2]"
        assert str(Interval()) == "[-inf, +inf]"
