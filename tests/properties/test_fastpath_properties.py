"""The production data plane is observationally identical to the naive scan.

The per-stream routing index, the per-profile matchers and — above all —
the per-stream **route cache**, the one versioned memo on the data
plane, are pure optimisations: across any
interleaving of advertise / subscribe / unsubscribe / publish
operations, a ``ContentBasedNetwork`` must produce exactly the
deliveries (same subscribers, brokers, payloads and order), the same
per-link ``data_stats`` *in the same first-use order* (the summation
order of ``weighted_cost``) and the same ``routing_state_size()`` as
the ``repro.sim.reference.ReferenceNetwork`` scan, which never sees the
cache.

The cache is what is tested: every datagram is published twice in a
row, and the second publication must be a replayed route (asserted
through ``route_cache_stats()``); earlier datagrams are re-published
from other origins and after the routing state moved, and each is
followed by a near miss (one attribute fewer, an ``int`` as the equal
``float`` or negated, ``seq`` toggled) or put onto a filter's constant
and published one step either side of it; a profile holds zero, one or
two filters (a disjunction), which mix closed and strict bounds, points
and ``!=``; payloads drop attributes (constrained
ones included), mix ``int`` / ``float`` / ``str`` values and carry or
omit ``seq``; streams are priced by a full
schema, a partial one or none; origins include brokers that never
advertised.  ``tests/properties/test_chaos_properties.py`` plants
broken caches and demands that :func:`interleaved_history` notices.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cql.predicates import Comparison, Conjunction
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.tree import DisseminationTree
from repro.sim.reference import ReferenceNetwork

ATTRS = ["a", "b", "c", "d"]
STREAMS = ["S", "T"]

#: How the catalog prices a stream: not at all (type fallbacks), only
#: some attributes, or all of them.
PRICED = {"none": [], "partial": ["a", "c"], "full": ATTRS}

ABSENT = object()
#: Mostly small integers (the filters' constants are in -5..5), some
#: floats and strings, and two chances of dropping the attribute.
VALUES = list(range(-10, 11)) + [-2.5, 0.5, 4.0, "x", "y", ABSENT, ABSENT]
#: What a filter compares an attribute with, and how.
FILTER_VALUES = list(range(-5, 6)) + ["x", "x"]
FILTER_OPS = ["<=", ">=", "<", ">", "=", "!="]


@st.composite
def random_trees(draw):
    """A random tree on 4..10 nodes (node i attaches to a prior node);
    link costs differ, so the order links are summed in shows."""
    n = draw(st.integers(min_value=4, max_value=10))
    edges = []
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.append((parent, node))
    return DisseminationTree(
        edges, {tuple(sorted(e)): 0.1 * (1 + i) for i, e in enumerate(edges)}
    )


def draw_profile(data, stream, label):
    projection = data.draw(
        st.one_of(
            st.just(ALL_ATTRIBUTES),
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=4).map(frozenset),
        ),
        label=f"{label}-projection",
    )
    # F is a disjunction: none (unconditional), one or two filters, each
    # a conjunction of up to two atoms (none: trivially true)
    filters = []
    for index in range(data.draw(st.integers(0, 2), label=f"{label}-filters")):
        atoms = []
        for attr in data.draw(
            st.lists(st.sampled_from(ATTRS), max_size=2, unique=True),
            label=f"{label}-f{index}-attrs",
        ):
            # closed and strict bounds (the outcome index cuts cells at
            # both), points, and exclusions (evaluated directly)
            op = data.draw(st.sampled_from(FILTER_OPS), label=f"{label}-op")
            # any attribute is compared with a number in most profiles and
            # with a string in some (neither kind covers the other);
            # payloads carry either kind under any name
            value = data.draw(st.sampled_from(FILTER_VALUES), label=f"{label}-value")
            atoms.append(Comparison(attr, op, value))
        filters.append(Filter(stream, Conjunction.from_atoms(atoms)))
    return Profile({stream: projection}, filters)


def draw_datagram(data, stream, timestamp, label):
    payload = {
        attr: value
        for attr in ATTRS
        if (value := data.draw(st.sampled_from(VALUES), label=f"{label}-{attr}"))
        is not ABSENT
    }
    seq = data.draw(st.one_of(st.none(), st.integers(0, 99)), label=f"{label}-seq")
    return Datagram(stream, payload, timestamp, seq)


def draw_variant(data, datagram, label, constants):
    """``(datagram, variant)``: the variant has the one thing changed
    that a single component of the route class is there to notice — an
    attribute dropped, an ``int`` sent as the equal ``float``, an ``int``
    mirrored to the other side of the filters' constants, ``seq`` added
    or removed — or, for a *straddle*, ``(datagram, below, above)``: the
    datagram has the attribute of one of the stream's filter
    ``constants`` (``(attribute, int)`` pairs) set to it, the variants
    one step either side (a strict bound and a closed one differ
    there)."""
    payload, seq = dict(datagram.payload), datagram.seq
    change = data.draw(
        st.sampled_from(["drop", "retype", "revalue", "straddle", "straddle", "seq"]),
        label=f"{label}-change",
    )
    ints = sorted(name for name, value in payload.items() if isinstance(value, int))
    if change == "drop" and payload:
        del payload[data.draw(st.sampled_from(sorted(payload)), label=f"{label}-drop")]
    elif change in ("retype", "revalue") and ints:
        name = data.draw(st.sampled_from(ints), label=f"{label}-{change}")
        payload[name] = float(payload[name]) if change == "retype" else -payload[name]
    elif change == "straddle" and constants:
        name, on = data.draw(st.sampled_from(constants), label=f"{label}-straddle")
        return tuple(
            Datagram(datagram.stream, {**payload, name: on + step}, datagram.timestamp, seq)
            for step in (0, -1, 1)
        )
    else:
        seq = 7 if seq is None else None
    return datagram, Datagram(datagram.stream, payload, datagram.timestamp, seq)


def snapshot(deliveries):
    return [
        (d.subscription_id, d.node, d.datagram, tuple(d.datagram.payload))
        for d in deliveries
    ]


def assert_same_accounting(fast, naive):
    """Per-link traffic equal *including the order links were first
    used in*, which is the order ``weighted_cost`` adds them up in."""
    assert list(fast.data_stats.as_dict().items()) == list(
        naive.data_stats.as_dict().items()
    )
    assert fast.data_stats.weighted_cost() == naive.data_stats.weighted_cost()


def interleaved_history(tree, data):
    """Drive a production and a reference network through one random
    history, comparing after every publish."""
    nodes = tree.nodes
    fast = ContentBasedNetwork(tree)
    naive = ReferenceNetwork(tree)
    for stream in STREAMS:
        priced = PRICED[data.draw(st.sampled_from(sorted(PRICED)), label=f"schema-{stream}")]
        if priced:
            schema = StreamSchema(
                stream, [Attribute(name, "int", -10, 10) for name in priced], rate=1.0
            )
            fast.catalog.register(schema)
            naive.catalog.register(schema)
    live = {}
    published = []
    #: stream -> (attribute, int) its subscriptions' filters compared
    constants = {}
    counter = itertools.count()

    def publish(datagram, origin):
        expected = naive.publish_many([datagram], origin)[0]
        assert snapshot(fast.publish_many([datagram], origin)[0]) == snapshot(expected)
        assert_same_accounting(fast, naive)
        # nothing mutated: the second publication replays the first
        before = fast.route_cache_stats()
        assert snapshot(fast.publish_many([datagram], origin)[0]) == snapshot(expected)
        assert snapshot(naive.publish_many([datagram], origin)[0]) == snapshot(expected)
        assert_same_accounting(fast, naive)
        after = fast.route_cache_stats()
        requested = datagram.stream in live.values()
        assert after["hits"] - before["hits"] == (1 if requested else 0)
        assert after["misses"] == before["misses"]

    def unsubscribe(label):
        sid = data.draw(st.sampled_from(sorted(live)), label=label)
        del live[sid]
        fast.unsubscribe(sid)
        naive.unsubscribe(sid)

    n_ops = data.draw(st.integers(min_value=4, max_value=16), label="n_ops")
    for index in range(n_ops):
        choices = ["advertise", "subscribe", "publish"]
        if live:
            choices.append("unsubscribe")
        op = data.draw(st.sampled_from(choices), label=f"op{index}")
        if op == "advertise":
            stream = data.draw(st.sampled_from(STREAMS), label=f"ad{index}")
            node = data.draw(st.sampled_from(nodes), label=f"ad-node{index}")
            fast.advertise(stream, node)
            naive.advertise(stream, node)
        elif op == "subscribe":
            stream = data.draw(st.sampled_from(STREAMS), label=f"sub{index}")
            profile = draw_profile(data, stream, f"sub{index}")
            node = data.draw(st.sampled_from(nodes), label=f"sub-node{index}")
            sid = f"u{next(counter)}"
            fast.subscribe(profile, node, sid)
            naive.subscribe(profile, node, sid)
            live[sid] = stream
            constants.setdefault(stream, set()).update(
                (atom.term, atom.value)
                for flt in profile.filters
                for atom in flt.condition.atoms()
                if isinstance(atom.value, int)
            )
        elif op == "unsubscribe":
            unsubscribe(f"unsub{index}")
        else:
            # any broker may publish, advertised there or not; an
            # earlier datagram may come back at another broker
            origin = data.draw(st.sampled_from(nodes), label=f"pub-node{index}")
            if published and data.draw(st.booleans(), label=f"again{index}"):
                datagram, __ = data.draw(st.sampled_from(published), label=f"old{index}")
            else:
                stream = data.draw(st.sampled_from(STREAMS), label=f"pub{index}")
                datagram = draw_datagram(data, stream, float(index), f"pay{index}")
            near = sorted(constants.get(datagram.stream, ()))
            for each in draw_variant(data, datagram, f"var{index}", near):
                published.append((each, origin))
                publish(each, origin)
    # Every route taken so far is taken again after one more withdrawal.
    if live:
        unsubscribe("unsub-last")
    for datagram, origin in published:
        publish(datagram, origin)
    assert fast.routing_state_size() == naive.routing_state_size()


class TestFastPathEquivalence:
    @given(random_trees(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_interleaved_operations_identical(self, tree, data):
        """Fast and naive networks agree after every publish of any
        random advertise/subscribe/unsubscribe/publish interleaving."""
        interleaved_history(tree, data)

    @given(
        random_trees(),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_publish_many_matches_publish_loop(
        self, tree, n_profiles, n_datagrams, data
    ):
        """Batched publication equals datagram-at-a-time publication."""
        nodes = tree.nodes
        fast = ContentBasedNetwork(tree)
        naive = ReferenceNetwork(tree)
        publisher = data.draw(st.sampled_from(nodes), label="publisher")
        fast.advertise("S", publisher)
        naive.advertise("S", publisher)
        for index in range(n_profiles):
            profile = draw_profile(data, "S", f"p{index}")
            node = data.draw(st.sampled_from(nodes), label=f"node{index}")
            fast.subscribe(profile, node, f"u{index}")
            naive.subscribe(profile, node, f"u{index}")
        feed = [
            draw_datagram(data, "S", float(index), f"d{index}")
            for index in range(n_datagrams)
        ]
        batched = fast.publish_many(feed, publisher)
        looped = [naive.publish_many([datagram], publisher)[0] for datagram in feed]
        assert [snapshot(per) for per in batched] == [snapshot(per) for per in looped]
        assert_same_accounting(fast, naive)
