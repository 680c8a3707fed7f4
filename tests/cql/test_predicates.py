"""Conjunction algebra: construction, implication, hull, evaluation."""

import pytest

from repro.cql.predicates import (
    AttrRef,
    Comparison,
    Conjunction,
    DifferenceConstraint,
    Interval,
    JoinPredicate,
    PredicateError,
)


def conj(*atoms):
    return Conjunction.from_atoms(atoms)


class TestConstruction:
    def test_true_is_empty(self):
        assert Conjunction.true().is_true

    def test_comparisons_fold_into_intervals(self):
        c = conj(Comparison("a", ">", 1), Comparison("a", "<=", 5))
        assert c.intervals["a"] == Interval(1, 5, lo_strict=True)

    def test_equality_is_point_interval(self):
        c = conj(Comparison("a", "=", 3))
        assert c.intervals["a"].is_point

    def test_not_equal_collects(self):
        c = conj(Comparison("a", "!=", 1), Comparison("a", "!=", 2))
        assert c.excluded["a"] == frozenset({1, 2})

    def test_links_normalized(self):
        c = conj(JoinPredicate("z", "a"))
        assert ("a", "z") in c.links

    def test_diffs_normalized_orientation(self):
        c = conj(DifferenceConstraint("z", "a", Interval(0, 5)))
        assert ("a", "z") in c.diffs
        assert c.diffs[("a", "z")] == Interval(-5, 0)

    def test_bad_operator_rejected(self):
        with pytest.raises(PredicateError):
            Comparison("a", "~", 1)

    def test_atoms_roundtrip(self):
        original = conj(
            Comparison("a", ">=", 1),
            Comparison("a", "<=", 9),
            Comparison("b", "!=", 0),
            JoinPredicate("a", "c"),
            DifferenceConstraint("a", "c", Interval(hi=10)),
        )
        rebuilt = Conjunction.from_atoms(original.atoms())
        assert rebuilt == original

    def test_referenced_terms(self):
        c = conj(
            Comparison("a", ">", 1),
            JoinPredicate("b", "c"),
            DifferenceConstraint("d", "e", Interval(hi=1)),
        )
        assert c.referenced_terms() == {"a", "b", "c", "d", "e"}


class TestImplication:
    def test_tighter_implies_looser(self):
        assert conj(Comparison("a", ">", 10)).implies(conj(Comparison("a", ">", 5)))

    def test_looser_does_not_imply_tighter(self):
        assert not conj(Comparison("a", ">", 5)).implies(
            conj(Comparison("a", ">", 10))
        )

    def test_anything_implies_true(self):
        assert conj(Comparison("a", "=", 1)).implies(Conjunction.true())

    def test_true_implies_only_true(self):
        assert not Conjunction.true().implies(conj(Comparison("a", ">", 0)))

    def test_equality_implies_range(self):
        assert conj(Comparison("a", "=", 7)).implies(
            conj(Comparison("a", ">=", 0), Comparison("a", "<=", 10))
        )

    def test_range_implies_not_equal_outside(self):
        assert conj(Comparison("a", "<", 5)).implies(conj(Comparison("a", "!=", 9)))

    def test_range_does_not_imply_not_equal_inside(self):
        assert not conj(Comparison("a", "<", 5)).implies(
            conj(Comparison("a", "!=", 3))
        )

    def test_join_predicate_needs_link(self):
        assert conj(JoinPredicate("a", "b")).implies(conj(JoinPredicate("b", "a")))
        assert not Conjunction.true().implies(conj(JoinPredicate("a", "b")))

    def test_link_transitivity(self):
        c = conj(JoinPredicate("a", "b"), JoinPredicate("b", "c"))
        assert c.implies(conj(JoinPredicate("a", "c")))

    def test_closure_propagates_constants_through_links(self):
        c = conj(JoinPredicate("R.A", "S.B"), Comparison("R.A", ">", 10))
        assert c.implies(conj(Comparison("S.B", ">", 10)))

    def test_diff_constraint_implication(self):
        tight = conj(DifferenceConstraint("x", "y", Interval(-1, 1)))
        loose = conj(DifferenceConstraint("x", "y", Interval(-5, 5)))
        assert tight.implies(loose)
        assert not loose.implies(tight)

    def test_diff_reversed_orientation(self):
        c = conj(DifferenceConstraint("x", "y", Interval(0, 2)))
        assert c.implies(conj(DifferenceConstraint("y", "x", Interval(-2, 0))))

    def test_equal_terms_imply_zero_diff(self):
        c = conj(JoinPredicate("x", "y"))
        assert c.implies(conj(DifferenceConstraint("x", "y", Interval(-1, 1))))

    def test_value_intervals_bound_difference(self):
        c = conj(
            Comparison("x", ">=", 10),
            Comparison("x", "<=", 12),
            Comparison("y", ">=", 0),
            Comparison("y", "<=", 1),
        )
        assert c.implies(conj(DifferenceConstraint("x", "y", Interval(9, 12))))
        assert not c.implies(conj(DifferenceConstraint("x", "y", Interval(10, 11))))

    def test_unsatisfiable_implies_anything(self):
        bottom = conj(Comparison("a", ">", 5), Comparison("a", "<", 1))
        assert bottom.implies(conj(Comparison("z", "=", 42)))

    def test_implication_reflexive(self):
        c = conj(Comparison("a", ">", 1), JoinPredicate("a", "b"))
        assert c.implies(c)

    def test_equivalent(self):
        a = conj(Comparison("a", ">=", 1), Comparison("a", "<=", 1))
        b = conj(Comparison("a", "=", 1))
        assert a.equivalent(b)


class TestSatisfiability:
    def test_true_satisfiable(self):
        assert Conjunction.true().solved().satisfiable

    def test_crossed_bounds_unsat(self):
        assert not conj(Comparison("a", ">", 5), Comparison("a", "<", 5)).solved().satisfiable

    def test_point_excluded_unsat(self):
        assert not conj(
            Comparison("a", "=", 3), Comparison("a", "!=", 3)
        ).solved().satisfiable

    def test_link_forces_conflicting_constants_unsat(self):
        c = conj(
            JoinPredicate("a", "b"),
            Comparison("a", "=", 1),
            Comparison("b", "=", 2),
        )
        assert not c.solved().satisfiable

    def test_diff_conflicts_with_value_ranges_unsat(self):
        c = conj(
            Comparison("x", ">=", 100),
            Comparison("y", "<=", 0),
            DifferenceConstraint("x", "y", Interval(-5, 5)),
        )
        assert not c.solved().satisfiable

    def test_linked_terms_with_nonzero_diff_unsat(self):
        c = conj(
            JoinPredicate("x", "y"),
            DifferenceConstraint("x", "y", Interval(1, 2)),
        )
        assert not c.solved().satisfiable


class TestCombination:
    def test_hull_implied_by_both(self):
        a = conj(Comparison("a", ">=", 0), Comparison("a", "<=", 5))
        b = conj(Comparison("a", ">=", 3), Comparison("a", "<=", 9))
        h = a.hull(b)
        assert a.implies(h)
        assert b.implies(h)
        assert h.intervals["a"] == Interval(0, 9)

    def test_hull_drops_one_sided_terms(self):
        a = conj(Comparison("a", ">", 0), Comparison("b", "=", 1))
        b = conj(Comparison("a", ">", 2))
        h = a.hull(b)
        assert "b" not in h.intervals
        assert "a" in h.intervals

    def test_hull_keeps_common_links_only(self):
        a = conj(JoinPredicate("x", "y"), JoinPredicate("y", "z"))
        b = conj(JoinPredicate("x", "y"))
        h = a.hull(b)
        assert h.links == frozenset({("x", "y")})

    def test_hull_with_true_is_true(self):
        a = conj(Comparison("a", ">", 0))
        assert a.hull(Conjunction.true()).is_true

    def test_hull_uses_closure(self):
        # a = b AND a > 10 also constrains b; hull with (b > 5) keeps b > 5.
        a = conj(JoinPredicate("a", "b"), Comparison("a", ">", 10))
        b = conj(Comparison("b", ">", 5))
        h = a.hull(b)
        assert h.intervals["b"] == Interval(5, None, True, False)

    def test_rename(self):
        c = conj(Comparison("O.a", ">", 1), JoinPredicate("O.a", "C.b"))
        renamed = c.rename({"O.a": "x", "C.b": "y"})
        assert renamed == conj(Comparison("x", ">", 1), JoinPredicate("x", "y"))

    def test_restrict_to(self):
        c = conj(
            Comparison("a", ">", 1),
            Comparison("b", "<", 2),
            JoinPredicate("a", "b"),
            JoinPredicate("a", "c"),
        )
        r = c.restrict_to({"a", "b"})
        assert "b" in r.intervals and "a" in r.intervals
        assert r.links == frozenset({("a", "b")})


class TestEvaluation:
    def test_interval_match(self):
        c = conj(Comparison("a", ">", 1))
        assert c.evaluate({"a": 2})
        assert not c.evaluate({"a": 1})

    def test_missing_term_fails(self):
        assert not conj(Comparison("a", ">", 1)).evaluate({"b": 5})

    def test_excluded_value_fails(self):
        c = conj(Comparison("a", "!=", 3))
        assert not c.evaluate({"a": 3})
        assert c.evaluate({"a": 4})

    def test_link_equality(self):
        c = conj(JoinPredicate("a", "b"))
        assert c.evaluate({"a": 1, "b": 1})
        assert not c.evaluate({"a": 1, "b": 2})

    def test_diff_evaluation(self):
        c = conj(DifferenceConstraint("a", "b", Interval(-3, 0)))
        assert c.evaluate({"a": 1.0, "b": 2.0})
        assert not c.evaluate({"a": 5.0, "b": 2.0})

    def test_diff_on_strings_fails(self):
        c = conj(DifferenceConstraint("a", "b", Interval(-3, 0)))
        assert not c.evaluate({"a": "x", "b": "y"})

    def test_true_always_matches(self):
        assert Conjunction.true().evaluate({})

    def test_string_equality(self):
        c = conj(Comparison("name", "=", "alice"))
        assert c.evaluate({"name": "alice"})
        assert not c.evaluate({"name": "bob"})


class TestUnimpliedAtoms:
    def test_matches_per_atom_implication(self):
        rep = conj(Comparison("a", ">=", 0), Comparison("a", "<=", 10))
        atoms = [
            Comparison("a", ">=", 2),   # not implied
            Comparison("a", "<=", 20),  # implied
            JoinPredicate("a", "b"),    # not implied
        ]
        residual = rep.unimplied_atoms(atoms)
        assert Comparison("a", ">=", 2) in residual
        assert Comparison("a", "<=", 20) not in residual
        assert JoinPredicate("a", "b") in residual

    def test_agrees_with_full_implication(self):
        rep = conj(
            JoinPredicate("x", "y"),
            Comparison("x", ">", 5),
            DifferenceConstraint("x", "z", Interval(-2, 2)),
        )
        atoms = [
            Comparison("y", ">", 5),
            Comparison("y", ">", 6),
            DifferenceConstraint("z", "x", Interval(-3, 3)),
            JoinPredicate("y", "x"),
            Comparison("x", "!=", 4),
        ]
        residual = set(map(str, rep.unimplied_atoms(atoms)))
        for atom in atoms:
            single = Conjunction.from_atoms([atom])
            expected_implied = rep.implies(single)
            assert (str(atom) not in residual) == expected_implied


class TestAttrRef:
    def test_parse_qualified(self):
        ref = AttrRef.parse("O.timestamp")
        assert ref.qualifier == "O" and ref.name == "timestamp"
        assert ref.key == "O.timestamp"

    def test_parse_bare(self):
        ref = AttrRef.parse("temperature")
        assert ref.qualifier is None
        assert ref.key == "temperature"
