"""The outcome index: many conjunctions against one binding, one bit each.

``Conjunction.evaluate`` is the definition; the index must reproduce
it bit for bit for any set of conjunctions and any binding — shared,
open, closed and unbounded bounds, ``int`` and ``float`` bounds of equal
value, ``!=``, links, differences and string bounds (evaluated
directly), and values on, next to and far from every bound, infinite,
NaN, ``bool``, ``str`` or missing.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cql.predicates import (
    Comparison,
    Conjunction,
    DifferenceConstraint,
    Interval,
    JoinPredicate,
    OutcomeIndex,
    PredicateError,
)

TERMS = ["a", "b", "c"]
#: bounds the conjunctions share: equal ints and floats, infinities, a
#: large int floats cannot hold, and the kinds evaluated directly
NUMERIC_BOUNDS = [-3, -1, 0, 0.0, 1, 1.5, 2, 2.0, 7, 2**60 + 1, math.inf, -math.inf]
OTHER_BOUNDS = ["m", "x", True, math.nan]
OPS = ["<", "<=", ">", ">=", "=", "!="]


def expected_mask(conjunctions, binding):
    return sum(1 << i for i, conj in enumerate(conjunctions) if conj.evaluate(binding))


def outcome(compute):
    """The value, or the type of the exception (``evaluate`` itself
    raises ``OverflowError`` on ``a - b`` for an int too large for a
    float)."""
    try:
        return compute()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc)


@st.composite
def conjunctions(draw):
    atoms = []
    for __ in range(draw(st.integers(0, 3))):
        term = draw(st.sampled_from(TERMS))
        bound = draw(
            st.one_of(
                st.sampled_from(NUMERIC_BOUNDS),
                st.sampled_from(NUMERIC_BOUNDS),
                st.sampled_from(OTHER_BOUNDS),
            )
        )
        atoms.append(Comparison(term, draw(st.sampled_from(OPS)), bound))
    if draw(st.integers(0, 9)) == 0:
        atoms.append(JoinPredicate(*draw(st.permutations(TERMS))[:2]))
    if draw(st.integers(0, 9)) == 0:
        left, right = draw(st.permutations(TERMS))[:2]
        atoms.append(DifferenceConstraint(left, right, Interval(-1, 2)))
    try:
        return Conjunction.from_atoms(atoms)
    except PredicateError:  # one term bounded by a string and a number
        return Conjunction.true()


def probe_values():
    """Every bound, the floats right next to each, and the odd kinds."""
    values = []
    for bound in NUMERIC_BOUNDS:
        values.append(bound)
        if isinstance(bound, int) and abs(bound) > 2**53:
            values += [bound - 1, bound + 1]
        else:
            values += [math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return values + [math.nan, True, False, "m", "x", "", 10**400, -(10**400)]


@st.composite
def bindings(draw):
    binding = {}
    for term in TERMS:
        if draw(st.integers(0, 5)):
            binding[term] = draw(st.sampled_from(probe_values()))
    return binding


class TestOutcomeIndex:
    @given(st.lists(conjunctions(), max_size=12), st.lists(bindings(), min_size=1, max_size=8))
    @settings(max_examples=400, deadline=None)
    def test_mask_is_each_conjunctions_evaluate(self, conjs, probes):
        index = OutcomeIndex(conjs)
        for binding in probes:
            assert outcome(lambda: index.outcomes(binding)) == outcome(
                lambda: expected_mask(conjs, binding)
            )

    def test_strict_and_closed_bounds_at_a_shared_value(self):
        conjs = [
            Conjunction.from_atoms([Comparison("a", "<", 5)]),
            Conjunction.from_atoms([Comparison("a", "<=", 5)]),
            Conjunction.from_atoms([Comparison("a", ">", 5)]),
            Conjunction.from_atoms([Comparison("a", ">=", 5.0)]),
            Conjunction.from_atoms([Comparison("a", "=", 5)]),
            Conjunction.true(),
        ]
        index = OutcomeIndex(conjs)
        assert index.outcomes({"a": 5}) == 0b111010
        assert index.outcomes({"a": 5.0}) == 0b111010
        assert index.outcomes({"a": math.nextafter(5, 0)}) == 0b100011
        assert index.outcomes({"a": math.nextafter(5, 9)}) == 0b101100
        assert index.outcomes({"a": -math.inf}) == 0b100011
        assert index.outcomes({}) == 0b100000

    def test_odd_values_go_to_evaluate(self):
        conjs = [
            Conjunction.from_atoms([Comparison("a", ">=", 0)]),
            Conjunction.from_atoms([Comparison("a", "<=", 1)]),
        ]
        index = OutcomeIndex(conjs)
        # True == 1 for evaluate; NaN compares false with every bound,
        # so no bound rejects it; a string meets no numeric bound
        assert index.outcomes({"a": True}) == expected_mask(conjs, {"a": True}) == 0b11
        assert index.outcomes({"a": math.nan}) == expected_mask(conjs, {"a": math.nan}) == 0b11
        assert index.outcomes({"a": "x"}) == 0

    def test_unindexed_conjunctions_keep_their_bit_position(self):
        conjs = [
            Conjunction.from_atoms([Comparison("a", "!=", 3)]),
            Conjunction.from_atoms([Comparison("a", ">", 2)]),
            Conjunction.from_atoms([JoinPredicate("a", "b")]),
            Conjunction.from_atoms([Comparison("s", ">=", "m")]),
        ]
        index = OutcomeIndex(conjs)
        for binding in ({"a": 3, "b": 3, "s": "z"}, {"a": 4, "b": 3, "s": "a"}, {}):
            assert index.outcomes(binding) == expected_mask(conjs, binding)

    def test_no_conjunctions(self):
        assert OutcomeIndex([]).outcomes({"a": 1}) == 0
