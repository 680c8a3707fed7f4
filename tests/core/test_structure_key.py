"""The grouping index's structure key is the mergeability relation.

``GroupingOptimizer.add`` prices only the groups filed under the new
query's ``_structure_key`` and no longer re-checks :func:`mergeable`, so
two canonical queries must have equal keys exactly when they are
mergeable: same stream set, and for aggregates the same signature and
per-stream windows; a self-join is mergeable with nothing.  Pairs come
from the workload generator (joins, aggregates over few streams, so
equal signatures under different windows occur) and from a Hypothesis
strategy with self-joins, aliases and aggregates whose windows differ.
A canary key that forgets an aggregate's windows must be caught.
"""

import random

from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.core.containment import _aggregate_signature
from repro.core.grouping import GroupingOptimizer
from repro.core.merging import mergeable
from repro.cql.ast import Aggregate, ContinuousQuery, StreamRef, Window
from repro.cql.predicates import AttrRef, Comparison, Conjunction
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog

KEY = GroupingOptimizer._structure_key

CATALOG = Catalog(
    [
        StreamSchema(
            "S",
            [Attribute("a", "int", -10, 10), Attribute("b", "int", -10, 10)],
            rate=1.0,
        ),
        StreamSchema(
            "T",
            [Attribute("a", "int", -10, 10), Attribute("b", "int", -10, 10)],
            rate=2.0,
        ),
    ]
)


def canary_key(query):
    """The structure key with an aggregate's windows left out."""
    if query.has_self_join:
        return object()
    streams = tuple(sorted(query.stream_names))
    if not query.is_aggregate:
        return (streams, None)
    return (streams, _aggregate_signature(query))


def keyed(query, catalog):
    """The form the optimizer files: canonical, unless it cannot be."""
    return query if query.has_self_join else query.canonical(catalog)


def mismatches(key, pairs, catalog):
    """The pairs on which key equality and :func:`mergeable` disagree."""
    return [
        (left, right)
        for left, right in pairs
        if (key(keyed(left, catalog)) == key(keyed(right, catalog)))
        != mergeable(left, right, catalog)
    ]


def workload_pairs():
    catalog = sensorscope_catalog(2, rng=random.Random(3))
    config = WorkloadConfig(
        skew=1.0, join_fraction=0.3, aggregate_fraction=0.5, seed=3
    )
    queries = QueryWorkload(catalog, config).generate(60)
    return catalog, [(left, right) for left in queries for right in queries]


@st.composite
def queries(draw):
    """A query over S and T: one stream, a join, or a self-join of S;
    sometimes aliased; plain or an aggregate; windows drawn per stream."""
    streams = draw(st.sampled_from([("S",), ("T",), ("S", "T"), ("T", "S"), ("S", "S")]))
    self_join = len(set(streams)) < len(streams)
    aliased = self_join or draw(st.booleans())
    refs = tuple(
        StreamRef(
            stream,
            Window(draw(st.sampled_from([0.0, 60.0, 300.0]))),
            f"x{index}" if aliased else None,
        )
        for index, stream in enumerate(streams)
    )
    first = refs[0].name
    lo = draw(st.integers(min_value=-10, max_value=10))
    predicate = Conjunction.from_atoms(
        [Comparison(f"{first}.a", ">=", lo)] if draw(st.booleans()) else []
    )
    if not draw(st.booleans()):
        return ContinuousQuery((AttrRef(first, "a"),), refs, predicate)
    func = draw(st.sampled_from(["avg", "max", "count"]))
    arg = None if func == "count" else AttrRef(first, draw(st.sampled_from(["a", "b"])))
    group_by = tuple(
        AttrRef(first, attr)
        for attr in draw(st.lists(st.sampled_from(["a", "b"]), max_size=2, unique=True))
    )
    return ContinuousQuery((Aggregate(func, arg),), refs, predicate, group_by)


class TestStructureKeyIsMergeability:
    def test_workload_pairs(self):
        catalog, pairs = workload_pairs()
        assert mismatches(KEY, pairs, catalog) == []
        aggregates = [left for left, _ in pairs if left.is_aggregate]
        assert aggregates and len(aggregates) < len(pairs)

    @given(queries(), queries())
    @settings(max_examples=200, deadline=None)
    def test_drawn_pairs(self, left, right):
        assert mismatches(KEY, [(left, right)], CATALOG) == []

    def test_a_self_join_is_keyed_apart_even_from_itself(self):
        refs = (StreamRef("S", Window(60.0), "x"), StreamRef("S", Window(60.0), "y"))
        query = ContinuousQuery((AttrRef("x", "a"),), refs)
        assert not mergeable(query, query, CATALOG)
        assert KEY(query) != KEY(query)

    def test_the_canary_without_windows_is_caught(self):
        catalog, pairs = workload_pairs()
        caught = mismatches(canary_key, pairs, catalog)
        assert caught
        for left, right in caught:
            assert left.is_aggregate and right.is_aggregate
            assert left.streams != right.streams

    def test_the_drawn_pairs_catch_the_canary_too(self):
        left, right = find(
            st.tuples(queries(), queries()),
            lambda pair: bool(mismatches(canary_key, [pair], CATALOG)),
            settings=settings(max_examples=2000, database=None),
        )
        assert left.is_aggregate and right.is_aggregate
