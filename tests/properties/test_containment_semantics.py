"""Semantic soundness of the containment test, checked by execution.

Definition 1 grounds containment in actual result sets; here random
query pairs judged contained by Theorem 1 are *executed* on random
feeds, and every result tuple of the contained query must appear
(modulo projection) among the containing query's results.  This ties
the symbolic decision procedure to the engine's operational semantics
— including the window conditions of Lemma 1 for joins.

The pairs are contained by construction (the container is the contained
query loosened), so no drawn example is filtered away: two independent
draws are rarely contained, and rejecting most of them made the test
time out under CPU contention.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.core.containment import contains
from repro.cql.ast import ContinuousQuery, StreamRef, Window
from repro.cql.predicates import AttrRef, Comparison, Conjunction, JoinPredicate
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.spe.engine import StreamProcessingEngine

CATALOG = Catalog(
    [
        StreamSchema(
            "L",
            [Attribute("k", "int", 0, 3), Attribute("x", "int", -10, 10)],
            rate=1.0,
        ),
        StreamSchema(
            "R",
            [Attribute("k", "int", 0, 3), Attribute("y", "int", -10, 10)],
            rate=1.0,
        ),
    ]
)

WINDOWS = [0.0, 2.0, 5.0, 100.0]
SELECT = (AttrRef("L", "k"), AttrRef("L", "x"), AttrRef("R", "y"))


def join_query(name, select, windows, bound):
    """``L ⋈ R`` on ``k`` with the given windows and, unless ``bound``
    is ``None``, the selection ``L.x >= bound``."""
    atoms = [JoinPredicate("L.k", "R.k")]
    if bound is not None:
        atoms.append(Comparison("L.x", ">=", bound))
    left, right = windows
    return ContinuousQuery(
        select_items=select,
        streams=(StreamRef("L", Window(left)), StreamRef("R", Window(right))),
        predicate=Conjunction.from_atoms(atoms),
        name=name,
    )


@st.composite
def join_queries(draw, name):
    windows = (draw(st.sampled_from(WINDOWS)), draw(st.sampled_from(WINDOWS)))
    return join_query(name, SELECT, windows, draw(st.none() | st.integers(-10, 5)))


@st.composite
def contained_pairs(draw):
    """``(q1, q2)`` with ``q1 ⊑ q2``: ``q2`` is ``q1`` loosened — each
    window kept or widened, the bound on ``L.x`` lowered or dropped, the
    projection a superset."""
    narrow = draw(st.sets(st.sampled_from(SELECT), min_size=1))
    wide = narrow | draw(st.sets(st.sampled_from(SELECT)))
    inner = [draw(st.sampled_from(WINDOWS)) for __ in "LR"]
    outer = [
        draw(st.sampled_from([w for w in WINDOWS if w >= size])) for size in inner
    ]
    tight = draw(st.none() | st.integers(-10, 5))
    loose = None if tight is None else draw(st.none() | st.integers(-10, tight))
    return (
        join_query("q1", tuple(a for a in SELECT if a in narrow), inner, tight),
        join_query("q2", tuple(a for a in SELECT if a in wide), outer, loose),
    )


@st.composite
def feeds(draw):
    events = []
    t = 0.0
    for __ in range(draw(st.integers(min_value=4, max_value=20))):
        t += draw(st.sampled_from([0.0, 1.0, 2.0, 4.0]))
        if draw(st.booleans()):
            events.append(
                Datagram(
                    "L",
                    {"k": draw(st.integers(0, 3)), "x": draw(st.integers(-10, 10))},
                    t,
                )
            )
        else:
            events.append(
                Datagram(
                    "R",
                    {"k": draw(st.integers(0, 3)), "y": draw(st.integers(-10, 10))},
                    t,
                )
            )
    return events


def _run(query, feed):
    spe = StreamProcessingEngine(CATALOG)
    spe.register(query, query.name)
    out = []
    for datagram in feed:
        out.extend(r.datagram for r in spe.push(datagram))
    return out


class TestContainmentIsSemanticallySound:
    @given(contained_pairs(), feeds())
    @settings(max_examples=80, deadline=None)
    def test_contained_results_are_subset(self, pair, feed):
        q1, q2 = pair
        assert contains(q1, q2, CATALOG)
        small = _run(q1, feed)
        big = _run(q2, feed)
        kept = {attr.key for attr in q1.select_items}
        big_keys = {
            (
                d.timestamp,
                tuple(sorted(kv for kv in d.payload.items() if kv[0] in kept)),
            )
            for d in big
        }
        for d in small:
            key = (d.timestamp, tuple(sorted(d.payload.items())))
            assert key in big_keys, (
                f"result {key} of contained query missing from container"
            )

    @given(join_queries("q"), feeds())
    @settings(max_examples=40, deadline=None)
    def test_self_containment_execution(self, q, feed):
        assert contains(q, q, CATALOG)
        a = _run(
            q, feed
        )
        b = _run(
            ContinuousQuery(q.select_items, q.streams, q.predicate, q.group_by, "q2"),
            feed,
        )
        assert len(a) == len(b)
