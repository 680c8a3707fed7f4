"""Property-based checks of CBN routing.

The network-level invariant: for any tree, any subscriber placement and
any datagram, the set of (subscriber, delivered payload) pairs equals
what evaluating each profile directly against the datagram would give —
routing and early projection never lose or corrupt a delivery, and no
history of subscribe, unsubscribe and ``retree`` steps makes them.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cql.predicates import Comparison, Conjunction
from repro.overlay.tree import DisseminationTree
from tests.routing_audit import orphan_entries, unreachable_subscribers

ATTRS = ["a", "b", "c", "d"]

#: A six-node graph with cycles: control-plane histories move the
#: network between its spanning trees.
GRAPH_NODES = range(6)
GRAPH_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3), (1, 4), (2, 5)]


@st.composite
def random_trees(draw):
    """A random tree on 4..10 nodes (node i attaches to a prior node)."""
    n = draw(st.integers(min_value=4, max_value=10))
    edges = []
    for node in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=node - 1))
        edges.append((parent, node))
    return DisseminationTree(edges, {tuple(sorted(e)): 1.0 for e in edges})


@st.composite
def spanning_trees(draw):
    """A spanning tree of the six-node graph: Kruskal over a drawn edge
    order."""
    parent = list(GRAPH_NODES)

    def root(node):
        while parent[node] != node:
            node = parent[node]
        return node

    edges = []
    for u, v in draw(st.permutations(GRAPH_EDGES)):
        ru, rv = root(u), root(v)
        if ru != rv:
            parent[ru] = rv
            edges.append((u, v))
    return DisseminationTree(edges, {edge: 1.0 + edge[0] for edge in edges})


@st.composite
def random_profiles(draw, stream="S"):
    size = draw(st.integers(min_value=1, max_value=4))
    projection = draw(
        st.one_of(
            st.just(ALL_ATTRIBUTES),
            st.sets(st.sampled_from(ATTRS), min_size=1, max_size=4),
        )
    )
    atoms = []
    for attr in draw(st.lists(st.sampled_from(ATTRS), max_size=2, unique=True)):
        op = draw(st.sampled_from(["<=", ">="]))
        atoms.append(Comparison(attr, op, draw(st.integers(-5, 5))))
    filters = [Filter(stream, Conjunction.from_atoms(atoms))] if atoms else []
    return Profile({stream: projection}, filters)


@st.composite
def datagrams(draw, stream="S"):
    payload = {attr: draw(st.integers(-10, 10)) for attr in ATTRS}
    return Datagram(stream, payload, 0.0)


class TestRoutingEquivalence:
    @given(
        random_trees(),
        st.lists(random_profiles(), min_size=1, max_size=5),
        datagrams(),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_delivery_equals_direct_profile_application(
        self, tree, profiles, datagram, data
    ):
        nodes = tree.nodes
        network = ContentBasedNetwork(tree)
        publisher = data.draw(st.sampled_from(nodes), label="publisher")
        network.advertise("S", publisher)
        expected = {}
        for index, profile in enumerate(profiles):
            node = data.draw(st.sampled_from(nodes), label=f"sub{index}")
            sid = f"u{index}"
            network.subscribe(profile, node, sid)
            delivered = profile.apply(datagram)
            if delivered is not None:
                expected[sid] = dict(delivered.payload)
        actual = {
            d.subscription_id: dict(d.datagram.payload)
            for d in network.publish_many([datagram], publisher)[0]
        }
        assert actual == expected

    @given(random_profiles(), datagrams())
    @settings(max_examples=60, deadline=None)
    def test_early_projection_never_adds_bytes(self, profile, datagram):
        delivered = profile.apply(datagram)
        if delivered is not None:
            assert delivered.size_bytes() <= datagram.size_bytes()


class TestControlPlaneHistories:
    STREAMS = ("S", "T")

    @given(spanning_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_step_delivers_what_each_live_profile_admits(self, tree, data):
        """Random subscribe / unsubscribe / ``retree`` histories over the
        spanning trees of one graph.  After every step a datagram of each
        stream, published at each of its advertised publishers, reaches
        every live subscription whose profile admits it exactly once,
        projected as :meth:`Profile.apply` projects it, and nobody else.
        The oracle is the profiles alone: it shares no code with
        propagation, footprints or any routing table."""
        network = ContentBasedNetwork(tree)
        publishers = {
            stream: data.draw(
                st.lists(st.sampled_from(tree.nodes), min_size=1, max_size=2, unique=True),
                label=f"publishers-{stream}",
            )
            for stream in self.STREAMS
        }
        for stream, nodes in publishers.items():
            for node in nodes:
                network.advertise(stream, node)
        live = {}
        for step in range(data.draw(st.integers(min_value=4, max_value=14), label="steps")):
            ops = ["subscribe", "unsubscribe", "retree"] if live else ["subscribe", "retree"]
            op = data.draw(st.sampled_from(ops), label=f"op{step}")
            if op == "subscribe":
                stream = data.draw(st.sampled_from(self.STREAMS), label=f"stream{step}")
                profile = data.draw(random_profiles(stream), label=f"profile{step}")
                node = data.draw(st.sampled_from(tree.nodes), label=f"node{step}")
                network.subscribe(profile, node, f"u{step}")
                live[f"u{step}"] = profile
            elif op == "unsubscribe":
                sid = data.draw(st.sampled_from(sorted(live)), label=f"leaves{step}")
                network.unsubscribe(sid)
                del live[sid]
            else:
                network.retree(data.draw(spanning_trees(), label=f"tree{step}"))
            for stream, nodes in publishers.items():
                datagram = data.draw(datagrams(stream), label=f"datagram{step}-{stream}")
                expected = {}
                for sid, profile in live.items():
                    admitted = profile.apply(datagram)
                    if admitted is not None:
                        expected[sid] = dict(admitted.payload)
                for node in nodes:
                    delivered = network.publish_many([datagram], node)[0]
                    assert len(delivered) == len({d.subscription_id for d in delivered})
                    actual = {d.subscription_id: dict(d.datagram.payload) for d in delivered}
                    assert actual == expected, (op, stream, node)
        for sid in list(live):
            network.unsubscribe(sid)
        assert network.routing_state_size() == 0


class TestSubscriptionIds:
    @given(
        random_trees(),
        st.lists(
            st.tuples(random_profiles(), st.text("aS#:", min_size=1, max_size=5)),
            min_size=1,
            max_size=5,
            unique_by=lambda pair: pair[1],
        ),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_id_routes_and_unroutes_without_orphans(
        self, tree, subscriptions, data
    ):
        network = ContentBasedNetwork(tree)
        network.advertise("S", data.draw(st.sampled_from(tree.nodes), label="pub"))
        for index, (profile, sid) in enumerate(subscriptions):
            node = data.draw(st.sampled_from(tree.nodes), label=f"sub{index}")
            network.subscribe(profile, node, sid)
        assert orphan_entries(network) == []
        assert unreachable_subscribers(network) == []
        order = data.draw(st.permutations([sid for __, sid in subscriptions]))
        for sid in order:
            network.unsubscribe(sid)
            assert orphan_entries(network) == []
        assert network.routing_state_size() == 0
