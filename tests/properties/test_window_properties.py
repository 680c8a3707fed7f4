"""Property-based checks of the keyed window and the operators on it.

The definitions the operators are held to live here, outside them:

* the window join is compared against a brute-force oracle that
  enumerates every earlier tuple of the other input and applies Lemma
  1's condition ``-T1 <= t1.ts - t2.ts <= T2`` directly (plus equality
  of the key values when the join is keyed);
* the grouped aggregate is compared against a brute-force oracle that
  enumerates every earlier-or-equal tuple that passed the pre-filter,
  carries the arrival's group values and is stamped inside the window.

Timestamps are quarter seconds, so every subtraction the operators and
the oracles make is exact and equal stamps (what ``[Now]`` matches) are
common.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.cql.predicates import Comparison, Conjunction, JoinPredicate
from repro.spe.operators import (
    AggregateSpec,
    GroupedAggregate,
    JoinInput,
    WindowJoin,
)
from repro.spe.windows import KeyedWindow

timestamps = st.lists(
    st.integers(min_value=0, max_value=400).map(lambda n: n / 4),
    min_size=0,
    max_size=12,
).map(sorted)

#: ``[Now]``, finite ranges and ``[Unbounded]``.
window_sizes = st.sampled_from([0.0, 1.0, 5.0, 20.0, 1000.0, math.inf])

ABSENT = object()
#: ``1`` and ``1.0`` are one key, ``"1"`` another; some tuples lack it.
key_values = st.sampled_from([0, 1, 2, 1.0, 2.5, "1", "x", ABSENT])


class TestKeyedWindowInvariant:
    @given(timestamps, window_sizes, st.data())
    def test_contents_always_inside_window(self, times, size, data):
        window = KeyedWindow(size)
        for ts in times:
            window.insert(data.draw(st.integers(0, 2), label="key"), ts, ts)
            window.expire(ts)
            held = [item for bucket in window._buckets.values() for item in bucket]
            assert len(held) == len(window)
            assert all(ts - size <= item <= ts for item in held)
            assert all(window._buckets.values())  # no bucket outlives its items

    @given(timestamps, window_sizes, st.data())
    def test_every_tuple_expired_exactly_once(self, times, size, data):
        window = KeyedWindow(size)
        expired = 0
        for ts in times:
            before = len(window)
            window.expire(ts)
            expired += before - len(window)
            window.insert(data.draw(st.integers(0, 2), label="key"), ts, ts)
        assert expired + len(window) == len(times)
        assert sum(len(bucket) for bucket in window._buckets.values()) == len(window)


@st.composite
def interleaved_feed(draw):
    """Two streams' tuples ``(stream, ident, ts, key)`` interleaved into
    one timestamp-ordered feed; ``ident`` counts per stream."""
    feed = []
    for stream in "AB":
        for ident, ts in enumerate(draw(timestamps)):
            feed.append((stream, ident, ts, draw(key_values)))
    feed.sort(key=lambda item: item[2])
    return feed


def lemma1_pairs(feed, t_a, t_b, keyed):
    """Every result of the two-way join, in the order it must appear:
    each arrival meets the earlier tuples of the other input, oldest
    first, that Lemma 1 (and, keyed, key equality) lets it join."""
    expected = []
    for index, (stream, ident, ts, key) in enumerate(feed):
        for other_stream, other_ident, other_ts, other_key in feed[:index]:
            if other_stream == stream:
                continue
            mine, theirs = (ident, ts), (other_ident, other_ts)
            (ia, ta), (ib, tb) = (mine, theirs) if stream == "A" else (theirs, mine)
            if not -t_a <= ta - tb <= t_b:
                continue
            if keyed and (key is ABSENT or other_key is ABSENT or key != other_key):
                continue
            expected.append((ia, ib))
    return expected


class TestLemma1Oracle:
    @given(interleaved_feed(), window_sizes, window_sizes, st.booleans())
    @settings(max_examples=160, deadline=None)
    def test_join_matches_brute_force(self, feed, t_a, t_b, keyed):
        join = WindowJoin(
            [JoinInput("A", t_a), JoinInput("B", t_b)],
            [("k", "k")] if keyed else (),
        )
        produced = []
        for stream, ident, ts, key in feed:
            payload = {"id": ident} if key is ABSENT else {"id": ident, "k": key}
            for binding in join.process(stream, Datagram(stream, payload, ts)):
                produced.append((binding["A.id"], binding["B.id"]))
        assert produced == lemma1_pairs(feed, t_a, t_b, keyed)


class TestKeyedJoinDifferential:
    @given(interleaved_feed(), window_sizes, window_sizes)
    @settings(max_examples=60, deadline=None)
    def test_keyed_join_matches_scanned(self, feed, t_a, t_b):
        """Probing a bucket and scanning the window leave the same
        bindings, in the same order, once the link is evaluated."""
        inputs = [JoinInput("A", t_a), JoinInput("B", t_b)]
        scanned, keyed = WindowJoin(inputs), WindowJoin(inputs, [("k", "k")])
        link = Conjunction.from_atoms([JoinPredicate("A.k", "B.k")])
        for stream, ident, ts, key in feed:
            payload = {"id": ident} if key is ABSENT else {"id": ident, "k": key}
            datagram = Datagram(stream, payload, ts)
            scanned_out = [
                b for b in scanned.process(stream, datagram) if link.evaluate(b)
            ]
            assert keyed.process(stream, datagram) == scanned_out


AGGREGATES = [
    AggregateSpec("avg", "S.v", "avg"),
    AggregateSpec("sum", "S.v", "sum"),
    AggregateSpec("min", "S.v", "min"),
    AggregateSpec("max", "S.v", "max"),
    AggregateSpec("count", "S.v", "n"),
    AggregateSpec("count", None, "rows"),
    AggregateSpec("sum", "S.w", "w_sum"),
    AggregateSpec("min", "S.w", "w_min"),
    AggregateSpec("avg", "S.w", "w_avg"),
    AggregateSpec("count", "S.w", "w_n"),
]
#: aggregating the timestamp reads it too (implicit or explicit)
STAMP_AGGREGATES = [
    AggregateSpec("max", "S.timestamp", "last"),
    AggregateSpec("count", "S.timestamp", "stamps"),
]

#: ``int`` and ``float`` mixed, ``1`` next to ``1.0`` and ``0.0`` next
#: to ``-0.0``, so ``min``/``max``/``sum`` show the order they met them in.
sparse_numbers = st.one_of(
    st.just(ABSENT),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 0.2, 0.3, 1e16]),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)


@st.composite
def aggregate_feed(draw):
    """Tuples ``(ts, payload)``: a pre-filter attribute ``p`` always
    present; grouping attributes ``g``/``h``, the aggregated ``v``/``w``
    and an explicit ``timestamp`` sometimes missing."""
    feed = []
    for ts in draw(timestamps):
        drawn = {
            "p": draw(st.integers(-1, 1)),
            "g": draw(key_values),
            "h": draw(st.sampled_from([0, 1, ABSENT])),
            "v": draw(sparse_numbers),
            "w": draw(sparse_numbers),
            "timestamp": draw(st.sampled_from([ABSENT, ABSENT, 0.0, 2.5, 50])),
        }
        feed.append((ts, {k: v for k, v in drawn.items() if v is not ABSENT}))
    return feed


def brute_force_rows(feed, size, group_by, cut, specs):
    """What the grouped aggregate must emit for each arrival of ``feed``:
    ``None`` for one the pre-filter (``p >= 0``, and ``timestamp >= cut``
    unless ``cut`` is ``None``) drops, else the row folded over every
    earlier-or-equal tuple that passed, carries the arrival's group
    values and is stamped inside the window, oldest first.  A tuple's
    ``timestamp`` is its payload's when it carries one, else its
    arrival stamp."""

    def view(ts, payload):
        return {"timestamp": ts, **payload}

    def passes(tup):
        return tup["p"] >= 0 and (cut is None or tup["timestamp"] >= cut)

    expected = []
    for index, (now, payload) in enumerate(feed):
        arrival = view(now, payload)
        if not passes(arrival):
            expected.append(None)
            continue
        group = [arrival.get(name) for name in group_by]
        members = [
            old
            for old in (view(ts, p) for ts, p in feed[: index + 1] if ts >= now - size)
            if passes(old) and [old.get(name) for name in group_by] == group
        ]
        row = {f"S.{name}": value for name, value in zip(group_by, group)}
        for spec in specs:
            if spec.attribute is None:
                row[spec.output_name] = len(members)
                continue
            name = spec.attribute[len("S."):]
            values = [old[name] for old in members if name in old]
            if spec.func == "count":
                row[spec.output_name] = len(values)
            elif values:
                row[spec.output_name] = {
                    "sum": lambda: sum(values),
                    "avg": lambda: sum(values) / len(values),
                    "min": lambda: min(values),
                    "max": lambda: max(values),
                }[spec.func]()
        expected.append(row)
    return expected


#: ``-0.0`` before ``0.0`` and ``1`` before ``1.0``; sums whose last
#: digit depends on the order of addition (``0.1 + 0.2 + 0.3``,
#: ``1e16 + 1.0 + 1.0``), at one stamp and across stamps; explicit and
#: implicit timestamps mixed
FIXED_FEED = [
    (1.0, {"p": 0, "g": 1, "v": -0.0, "w": 1, "timestamp": 2.5}),
    (1.0, {"p": 1, "g": 1.0, "v": 0.0, "w": 1.0}),
    (1.0, {"p": -1, "g": 1, "v": 5}),
    (1.0, {"p": 0, "g": 1, "v": 0.1, "w": 0.1, "timestamp": 2.5}),
    (1.0, {"p": 0, "g": 1, "v": 0.2, "w": 0.2}),
    (1.0, {"p": 0, "g": 1, "v": 0.3, "w": 0.3, "timestamp": 0.0}),
    (3.0, {"p": 0, "g": 1, "w": -0.0}),
    (3.0, {"p": 0, "g": "1", "w": 0.0}),
    (9.5, {"p": 1, "g": 1, "v": 1e16, "w": 1e16}),
    (9.5, {"p": 1, "g": 1, "v": 1.0, "w": 1}),
    (9.5, {"p": 1, "g": 1, "v": 1.0, "w": 1.0}),
]


class TestAggregateOracle:
    @given(
        feed=aggregate_feed(),
        size=window_sizes,
        group_by=st.sampled_from(
            [[], ["g"], ["g", "h"], ["timestamp"], ["g", "timestamp"]]
        ),
        cut=st.sampled_from([None, 2.0, 40.0]),
        stamped=st.booleans(),
    )
    @example(feed=FIXED_FEED, size=0.0, group_by=["g"], cut=None, stamped=True)
    @example(feed=FIXED_FEED, size=math.inf, group_by=["g"], cut=None, stamped=True)
    @example(feed=FIXED_FEED, size=math.inf, group_by=["timestamp"], cut=2.0, stamped=False)
    @example(feed=FIXED_FEED, size=0.0, group_by=["g", "timestamp"], cut=None, stamped=False)
    @settings(max_examples=200, deadline=None)
    def test_rows_match_brute_force(self, feed, size, group_by, cut, stamped):
        specs = AGGREGATES + STAMP_AGGREGATES if stamped else AGGREGATES
        atoms = [Comparison("S.p", ">=", 0)]
        if cut is not None:
            atoms.append(Comparison("S.timestamp", ">=", cut))
        agg = GroupedAggregate(
            "S",
            size,
            [f"S.{name}" for name in group_by],
            specs,
            pre_filter=Conjunction.from_atoms(atoms),
        )
        produced = [
            agg.process(Datagram("S", payload, now)) or None for now, payload in feed
        ]
        expected = brute_force_rows(feed, size, group_by, cut, specs)
        # repr, not ==: -0.0 is not 0.0, 1 is not 1.0, and a float sum
        # added in another order shows in its last digit
        assert repr(produced) == repr([row and [row] for row in expected])
