"""Property-based checks of query merging and profile re-tightening.

The central invariant of section 4, checked on random query pairs: a
synthetic result row belongs to the member's result iff it satisfies
the member's predicate — and a row of the *representative's* result
stream is routed to the member by its re-tightening profile iff the
member would have produced it.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.core.containment import contains
from repro.core.merging import MergeError, merge_queries
from repro.core.profiles import result_profile
from repro.cql.ast import ContinuousQuery, StreamRef, Window
from repro.cql.predicates import AttrRef, Comparison, Conjunction
from repro.cql.schema import Attribute, Catalog, StreamSchema

CATALOG = Catalog(
    [
        StreamSchema(
            "S",
            [
                Attribute("a", "int", -20, 20),
                Attribute("b", "int", -20, 20),
                Attribute("c", "int", -20, 20),
            ],
            rate=1.0,
        )
    ]
)

ATTRS = ["a", "b", "c"]


@st.composite
def single_stream_queries(draw, name):
    """A random select-project query over S with interval filters."""
    proj_size = draw(st.integers(min_value=1, max_value=3))
    projection = ATTRS[:proj_size]
    atoms = []
    for attr in draw(st.lists(st.sampled_from(ATTRS), max_size=2, unique=True)):
        lo = draw(st.integers(min_value=-15, max_value=10))
        hi = lo + draw(st.integers(min_value=0, max_value=10))
        atoms.append(Comparison(f"S.{attr}", ">=", lo))
        atoms.append(Comparison(f"S.{attr}", "<=", hi))
    window = draw(st.sampled_from([60.0, 300.0, 3600.0]))
    return ContinuousQuery(
        select_items=tuple(AttrRef("S", attr) for attr in projection),
        streams=(StreamRef("S", Window(window)),),
        predicate=Conjunction.from_atoms(atoms),
        name=name,
    )


@st.composite
def rows(draw):
    return {f"S.{attr}": draw(st.integers(-20, 20)) for attr in ATTRS}


class TestMergeInvariants:
    @given(single_stream_queries("m1"), single_stream_queries("m2"))
    @settings(max_examples=60, deadline=None)
    def test_representative_contains_members(self, m1, m2):
        rep = merge_queries(m1, m2, CATALOG, name="rep")
        assert contains(m1, rep, CATALOG)
        assert contains(m2, rep, CATALOG)

    @given(single_stream_queries("m1"), single_stream_queries("m2"), rows())
    @settings(max_examples=60, deadline=None)
    def test_rep_predicate_weaker_than_members(self, m1, m2, row):
        rep = merge_queries(m1, m2, CATALOG, name="rep")
        if m1.predicate.evaluate(row) or m2.predicate.evaluate(row):
            assert rep.predicate.evaluate(row)

    @given(single_stream_queries("m1"), single_stream_queries("m2"), rows())
    @settings(max_examples=60, deadline=None)
    def test_split_profile_reconstructs_member_exactly(self, m1, m2, row):
        """The paper's split correctness, on arbitrary rows.

        A row of the representative's result stream must reach the
        member's user iff the member's own predicate accepts the row,
        and then carry exactly the member's output attributes.
        """
        rep = merge_queries(m1, m2, CATALOG, name="rep")
        assume(rep.predicate.evaluate(row))  # rows the rep actually emits
        rep_outputs = rep.output_attribute_names(CATALOG)
        datagram = Datagram("out", {k: row[k] for k in rep_outputs}, 0.0)
        for member in (m1, m2):
            profile = result_profile(member, rep, CATALOG, "out")
            delivered = profile.apply(datagram)
            expected = member.predicate.evaluate(row)
            assert (delivered is not None) == expected
            if delivered is not None:
                assert set(delivered.payload) == set(
                    member.output_attribute_names(CATALOG)
                )
                for key, value in delivered.payload.items():
                    assert value == row[key]

    @given(single_stream_queries("m1"), single_stream_queries("m2"))
    @settings(max_examples=60, deadline=None)
    def test_windows_take_member_maximum(self, m1, m2):
        rep = merge_queries(m1, m2, CATALOG, name="rep")
        assert rep.stream_ref("S").window.size == max(
            m1.stream_ref("S").window.size, m2.stream_ref("S").window.size
        )

    @given(single_stream_queries("m1"), single_stream_queries("m2"))
    @settings(max_examples=40, deadline=None)
    def test_merge_is_commutative_semantically(self, m1, m2):
        ab = merge_queries(m1, m2, CATALOG, name="ab")
        ba = merge_queries(m2, m1, CATALOG, name="ba")
        assert ab.predicate.equivalent(ba.predicate)
        assert set(ab.output_attribute_names(CATALOG)) == set(
            ba.output_attribute_names(CATALOG)
        )
