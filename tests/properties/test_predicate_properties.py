"""Property-based checks of the predicate algebra.

Satisfiability and implication are checked against a brute-force
oracle that enumerates every binding on a grid fine enough to be exact
for small integer constants (:class:`TestGridOracle`): the answers must
*equal* the oracle's, soundness and completeness.  The remaining
properties are the algebraic laws: hull (weaker than both), and_
(conjunction semantics), closure and the atom round-trip.
"""

import functools
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cql.predicates import (
    Comparison,
    Conjunction,
    DifferenceConstraint,
    Interval,
    JoinPredicate,
)

from tests.properties.strategies import (
    bindings,
    conjunctions,
    intervals,
    values,
)


class TestIntervalLattice:
    @given(intervals(), intervals(), values)
    def test_intersection_is_conjunction(self, a, b, v):
        meet = a.intersect(b)
        assert meet.contains_value(v) == (a.contains_value(v) and b.contains_value(v))

    @given(intervals(), intervals(), values)
    def test_hull_is_weaker(self, a, b, v):
        join = a.hull(b)
        if a.contains_value(v) or b.contains_value(v):
            assert join.contains_value(v)

    @given(intervals(), intervals())
    def test_containment_consistent_with_membership(self, a, b):
        if a.contains_interval(b):
            for probe in range(-25, 26):
                if b.contains_value(probe):
                    assert a.contains_value(probe)

    @given(intervals())
    def test_empty_interval_has_no_members(self, a):
        if a.is_empty:
            assert not any(a.contains_value(v) for v in range(-25, 26))

    @given(intervals(), values)
    def test_negate_membership(self, a, v):
        assert a.negate().contains_value(-v) == a.contains_value(v)


class TestConjunctionSemantics:
    @given(conjunctions(), conjunctions(), bindings())
    def test_implication_sound(self, a, b, binding):
        if a.implies(b) and a.evaluate(binding):
            assert b.evaluate(binding)

    @given(conjunctions(), conjunctions(), bindings())
    def test_hull_implied_by_both(self, a, b, binding):
        h = a.hull(b)
        if a.evaluate(binding) or b.evaluate(binding):
            assert h.evaluate(binding)

    @given(conjunctions(), bindings())
    def test_satisfiability_sound(self, c, binding):
        # A conjunction some binding satisfies must be reported satisfiable.
        if c.evaluate(binding):
            assert c.solved().satisfiable

    @given(conjunctions(), bindings())
    def test_closure_preserves_semantics(self, c, binding):
        assert c.closure().evaluate(binding) == c.evaluate(binding)

    @given(conjunctions(), bindings())
    def test_atom_roundtrip_preserves_semantics(self, c, binding):
        rebuilt = Conjunction.from_atoms(c.atoms())
        assert rebuilt.evaluate(binding) == c.evaluate(binding)

    @given(conjunctions())
    def test_implication_reflexive(self, c):
        assert c.implies(c)

    @given(conjunctions(), conjunctions(), conjunctions())
    def test_implication_transitive(self, a, b, c):
        if a.implies(b) and b.implies(c):
            assert a.implies(c)

    @given(conjunctions(), conjunctions())
    def test_unimplied_atoms_matches_single_atom_implication(self, a, b):
        residual = a.unimplied_atoms(b.atoms())
        residual_strs = {str(atom) for atom in residual}
        for atom in b.atoms():
            single = Conjunction.from_atoms([atom])
            assert (str(atom) not in residual_strs) == a.implies(single)

    @given(conjunctions(), bindings())
    def test_restrict_to_is_weaker(self, c, binding):
        restricted = c.restrict_to({"S.a", "S.b"})
        if c.evaluate(binding):
            assert restricted.evaluate(binding)


def grid_conjunctions(terms, magnitude):
    """Conjunctions over ``terms`` with integer constants in ±magnitude."""
    constants = st.integers(min_value=-magnitude, max_value=magnitude)
    bound = st.one_of(st.just((None, False)), st.tuples(constants, st.booleans()))
    interval = st.builds(
        lambda lo, hi: Interval(lo[0], hi[0], lo[1], hi[1]), bound, bound
    )
    term = st.sampled_from(terms)
    pair = st.permutations(terms).map(lambda order: order[:2])
    atom = st.one_of(
        st.builds(Comparison, term, st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), constants),
        pair.map(lambda p: JoinPredicate(*p)),
        st.builds(lambda p, iv: DifferenceConstraint(p[0], p[1], iv), pair, interval),
    )
    return st.lists(atom, max_size=4).map(Conjunction.from_atoms)


@functools.lru_cache(maxsize=None)
def grid_bindings(terms, magnitude):
    """Every binding of ``terms`` to quarters within ±(n * magnitude + 1).

    A conjunction of interval, equality and difference constraints with
    integer constants depends only on the integer parts of the values
    and on the order of their fractional parts, so it has a model iff it
    has one whose fractional parts come from any n + 1 distinct values:
    quarters serve n <= 3 terms and are exact in binary floats.  A
    counterexample to an implication chains at most n constraints from
    the origin, so one lies within n * magnitude (+1 for strict slack).
    """
    reach = 4 * (len(terms) * magnitude + 1)
    axis = [k / 4 for k in range(-reach, reach + 1)]
    return [dict(zip(terms, point)) for point in itertools.product(axis, repeat=len(terms))]


def assert_matches_grid(premise, conclusion, terms, magnitude):
    grid = grid_bindings(terms, magnitude)
    models = [binding for binding in grid if premise.evaluate(binding)]
    assert premise.solved().satisfiable == bool(models)
    entailed = all(conclusion.evaluate(binding) for binding in models)
    if premise.implies(conclusion):
        assert entailed
    elif not premise.excluded:
        # ``!=`` in a premise only feeds the point/exclusion analysis
        # (``x <= 5 AND x != 5`` is not seen to imply ``x < 5``); without
        # it the test is complete.
        assert not entailed


TWO_TERMS, THREE_TERMS = ("x", "y"), ("x", "y", "z")


class TestGridOracle:
    @given(grid_conjunctions(TWO_TERMS, 2), grid_conjunctions(TWO_TERMS, 2))
    @settings(max_examples=150, deadline=None)
    def test_two_terms_equal_the_oracle(self, premise, conclusion):
        assert_matches_grid(premise, conclusion, TWO_TERMS, 2)

    @given(grid_conjunctions(THREE_TERMS, 1), grid_conjunctions(THREE_TERMS, 1))
    @settings(max_examples=30, deadline=None)
    def test_three_terms_equal_the_oracle(self, premise, conclusion):
        assert_matches_grid(premise, conclusion, THREE_TERMS, 1)
