"""The difference-bound solver: the one decision procedure of the algebra."""

import pytest

from repro.cql.parser import ParseError, parse_query
from repro.cql.predicates import (
    Comparison,
    Conjunction,
    ConstraintSystem,
    DifferenceConstraint,
    Interval,
    JoinPredicate,
    PredicateError,
    implies,
    vacuous_atoms,
)


def conj(*atoms):
    return Conjunction.from_atoms(list(atoms))


def is_unsatisfiable(conjunction, seed=None):
    return not ConstraintSystem(conjunction, seed).satisfiable


class TestSatisfiability:
    def test_empty_is_satisfiable(self):
        assert not is_unsatisfiable(Conjunction())

    def test_empty_interval(self):
        assert is_unsatisfiable(conj(Comparison("S.a", ">", 5), Comparison("S.a", "<", 3)))

    def test_point_exclusion(self):
        assert is_unsatisfiable(conj(Comparison("S.a", "=", 5), Comparison("S.a", "!=", 5)))

    def test_transitive_difference_chain(self):
        # a <= b - 1, b <= c - 1, but a >= c: unsat only via the chain.
        chain = conj(
            DifferenceConstraint("S.a", "S.b", Interval(None, -1)),
            DifferenceConstraint("S.b", "S.c", Interval(None, -1)),
            DifferenceConstraint("S.a", "S.c", Interval(0, None)),
        )
        assert is_unsatisfiable(chain)
        assert not chain.solved().satisfiable

    def test_strict_zero_cycle(self):
        # a - b < 0 and b - a <= 0 has no model.
        cycle = conj(
            DifferenceConstraint("S.a", "S.b", Interval(None, 0, hi_strict=True)),
            DifferenceConstraint("S.b", "S.a", Interval(None, 0)),
        )
        assert is_unsatisfiable(cycle)

    def test_equality_link_propagates_bounds(self):
        linked = conj(
            JoinPredicate("S.a", "S.b"),
            Comparison("S.a", ">", 10),
            Comparison("S.b", "<", 5),
        )
        assert is_unsatisfiable(linked)

    def test_seed_domains(self):
        pred = conj(Comparison("S.a", ">", 100))
        assert not is_unsatisfiable(pred)
        assert is_unsatisfiable(pred, {"S.a": Interval(0, 50)})

    def test_string_equality(self):
        assert is_unsatisfiable(
            conj(Comparison("S.a", "=", "x"), Comparison("S.a", "=", "y"))
        )
        assert not is_unsatisfiable(conj(Comparison("S.a", "=", "x")))


class TestSolution:
    def test_tightened_domains(self):
        system = ConstraintSystem(
            conj(
                Comparison("S.a", ">=", 0),
                DifferenceConstraint("S.b", "S.a", Interval(3, None)),
                Comparison("S.b", "<=", 10),
            )
        )
        assert system.satisfiable
        # b >= a + 3 >= 3, and a <= b - 3 <= 7.
        assert system._domain[system._find("S.b")].lo == 3
        assert system._domain[system._find("S.a")].hi == 7

    def test_tightest_diff(self):
        system = ConstraintSystem(
            conj(
                DifferenceConstraint("S.a", "S.b", Interval(None, -1)),
                DifferenceConstraint("S.b", "S.c", Interval(None, -2)),
            )
        )
        diff = system.tightest_diff("S.a", "S.c")
        assert diff.hi == -3

    def test_domain_and_exclusions(self):
        sol = ConstraintSystem(conj(Comparison("S.a", ">", 3), Comparison("S.a", "!=", 7)))
        assert sol.satisfiable
        assert 7 in sol.excluded_values("S.a")
        assert sol._domain[sol._find("S.a")].lo == 3


class TestImplication:
    def test_interval_implication(self):
        assert implies(conj(Comparison("S.a", ">", 5)), conj(Comparison("S.a", ">", 3)))
        assert not implies(conj(Comparison("S.a", ">", 3)), conj(Comparison("S.a", ">", 5)))

    def test_chained_difference_implication(self):
        premise = conj(
            DifferenceConstraint("S.a", "S.b", Interval(None, -1)),
            DifferenceConstraint("S.b", "S.c", Interval(None, -1)),
        )
        conclusion = conj(DifferenceConstraint("S.a", "S.c", Interval(None, 0)))
        assert implies(premise, conclusion)
        assert premise.implies(conclusion)

    def test_unknown_conclusion_term_not_implied(self):
        assert not implies(conj(Comparison("S.a", ">", 5)), conj(Comparison("S.b", ">", 3)))

    def test_seed_can_discharge_conclusion(self):
        assert implies(
            conj(Comparison("S.a", ">", 5)),
            conj(Comparison("S.b", ">=", 0)),
            {"S.b": Interval(0, 10)},
        )


class TestVacuousAtoms:
    def test_redundant_bound(self):
        atoms = [Comparison("S.a", ">", 5), Comparison("S.a", ">", 3)]
        assert vacuous_atoms(atoms) == [atoms[1]]

    def test_independent_atoms_are_kept(self):
        atoms = [Comparison("S.a", ">", 5), Comparison("S.b", ">", 3)]
        assert vacuous_atoms(atoms) == []


class TestCompleteness:
    """Entailments only the shortest-path closure finds."""

    def test_difference_chain_sums(self):
        premise = conj(
            DifferenceConstraint("a", "b", Interval(None, -1)),
            DifferenceConstraint("b", "c", Interval(None, -1)),
        )
        assert premise.implies(conj(DifferenceConstraint("a", "c", Interval(None, -2))))
        assert not premise.implies(conj(DifferenceConstraint("a", "c", Interval(None, -3))))

    def test_strict_three_cycle_is_unsatisfiable(self):
        strictly_less = Interval(None, 0, hi_strict=True)
        cycle = conj(
            DifferenceConstraint("a", "b", strictly_less),
            DifferenceConstraint("b", "c", strictly_less),
            DifferenceConstraint("c", "a", strictly_less),
        )
        assert not cycle.solved().satisfiable

    def test_difference_plus_value_bounds_the_other_term(self):
        premise = conj(
            DifferenceConstraint("a", "b", Interval(0, 5)),
            Comparison("b", "<=", 10),
        )
        assert premise.implies(conj(Comparison("a", "<=", 15)))
        assert not premise.implies(conj(Comparison("a", "<=", 14)))
        residual = premise.unimplied_atoms(
            [Comparison("a", "<=", 15), Comparison("a", "<=", 14)]
        )
        assert residual == [Comparison("a", "<=", 14)]

    def test_equal_values_imply_the_equijoin(self):
        pinned = conj(Comparison("a", "=", 3), Comparison("b", "=", 3))
        assert pinned.implies(conj(JoinPredicate("a", "b")))
        zero_apart = conj(DifferenceConstraint("a", "b", Interval(0, 0)))
        assert zero_apart.implies(conj(JoinPredicate("a", "b")))


class TestExactBounds:
    def test_integer_bounds_beyond_2_53_are_not_rounded(self):
        big = 2**53
        premise = conj(
            Comparison("x", "<=", big + 1),
            DifferenceConstraint("x", "y", Interval(0, 0)),
        )
        assert not premise.implies(conj(Comparison("x", "<=", big)))
        assert not implies(
            conj(Comparison("x", "<=", big + 1)), conj(Comparison("x", "<=", big))
        )

    def test_bounds_keep_the_numeric_type_given(self):
        system = ConstraintSystem(
            conj(
                Comparison("a", ">=", 1),
                Comparison("a", "<=", 5),
                DifferenceConstraint("b", "a", Interval(2, 2)),
            )
        )
        assert repr(system._domain[system._find("a")]) == repr(Interval(1, 5))
        assert repr(system._domain[system._find("b")]) == repr(Interval(3, 7))
        assert repr(system.tightest_diff("a", "b")) == repr(Interval(-2, -2))


class TestMixedTypes:
    def test_mixed_bounds_on_one_term_raise_predicate_error(self):
        with pytest.raises(PredicateError):
            conj(Comparison("S.a", ">", 1), Comparison("S.a", ">", "x"))
        # the parser reports it as a syntax error, with its position
        with pytest.raises(ParseError, match="mixes string and numeric"):
            parse_query("SELECT S.a FROM S S WHERE S.a > 1 AND S.a > 'x'")
        numeric, text = Interval(1, None), Interval("x", None)
        for operation in (numeric.intersect, numeric.contains_interval, numeric.hull):
            with pytest.raises(PredicateError):
                operation(text)

    def test_mixed_equality_class_is_unsatisfiable_not_an_exception(self):
        mixed = conj(
            JoinPredicate("x", "y"),
            Comparison("x", ">", 1),
            Comparison("y", "<", "b"),
        )
        assert not mixed.solved().satisfiable
        assert mixed.implies(conj(Comparison("z", "=", 42)))
        assert "mixes string and numeric" in mixed.solved().unsat_reason
        assert mixed.closure().evaluate({"x": 2, "y": 2}) is False

    @pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "="])
    def test_a_bound_in_one_type_entails_no_ordering_in_the_other(self, op):
        """Strings and numbers are not ordered against each other: the
        decision is "not implied", never an exception (it used to leak
        ``PredicateError`` out of a filter-subsumption test)."""
        numeric, text = conj(Comparison("a", ">", 10)), conj(Comparison("a", "=", "x"))
        assert not numeric.implies(conj(Comparison("a", op, "x")))
        assert not text.implies(conj(Comparison("a", op, 10)))
        assert not text.evaluate({"a": 11}) and not numeric.evaluate({"a": "x"})
        # a value of the other type is still simply a different value
        assert numeric.implies(conj(Comparison("a", "!=", "x")))
        assert text.implies(conj(Comparison("a", "!=", 10)))
