"""Stateful property tests: random operation sequences.

Two rule-based machines drive the stateful components through random
interleavings of their operations and check the global invariants after
every step:

* the CBN: subscribe / unsubscribe / publish / retree — every
  publication must deliver exactly what direct profile evaluation
  predicts, and every subscription's entries must sit exactly on the
  current tree's paths toward the publishers, at any point in any
  operation sequence;
* the grouping optimizer: add / remove / extract / reoptimize —
  bookkeeping stays consistent, the structure index holds exactly the
  live groups, and every member stays contained in its representative.
"""

import random

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork, entry_id
from repro.cbn.routing import RoutingTable
from repro.core.containment import contains
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer
from repro.cql.ast import Aggregate, ContinuousQuery, StreamRef, Window
from repro.cql.predicates import AttrRef, Comparison, Conjunction
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.overlay.tree import DisseminationTree

ATTRS = ["a", "b"]

#: Spanning trees of the ring 0 - 1 - 2 - 3 - 4 - 5 - 0 with the chord
#: 0 - 3: the line, the line rotated, and two through the chord.
RING_TREES = [
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
    [(1, 2), (2, 3), (3, 4), (4, 5), (5, 0)],
    [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)],
    [(0, 1), (0, 3), (2, 3), (3, 4), (5, 0)],
]

#: where "S" is advertised: paths toward them share a prefix
PUBLISHERS = (0, 3)


def _tree(edges):
    return DisseminationTree(edges, {e: 1.0 for e in edges})


class CBNMachine(RuleBasedStateMachine):
    """Random subscribe/unsubscribe/publish/retree sequences over the
    spanning trees of a ring with a chord."""

    subscriptions = Bundle("subscriptions")

    def __init__(self):
        super().__init__()
        self.network = ContentBasedNetwork(_tree(RING_TREES[0]))
        for publisher in PUBLISHERS:
            self.network.advertise("S", publisher)
        self.live = {}
        self.nodes = {}
        self.counter = 0

    @rule(
        target=subscriptions,
        node=st.integers(min_value=0, max_value=5),
        threshold=st.integers(min_value=-3, max_value=3),
        narrow=st.booleans(),
        unconditional=st.booleans(),
    )
    def subscribe(self, node, threshold, narrow, unconditional):
        projection = frozenset({"a"}) if narrow else ALL_ATTRIBUTES
        filters = []
        if not unconditional:
            filters = [
                Filter(
                    "S",
                    Conjunction.from_atoms([Comparison("a", ">=", threshold)]),
                )
            ]
        profile = Profile({"S": projection}, filters)
        sid = f"u{self.counter}"
        self.counter += 1
        self.network.subscribe(profile, node, sid)
        self.live[sid] = profile
        self.nodes[sid] = node
        return sid

    @rule(sid=subscriptions)
    def unsubscribe(self, sid):
        if sid in self.live:
            self.network.unsubscribe(sid)
            del self.live[sid]
            del self.nodes[sid]

    @rule(index=st.integers(min_value=0, max_value=len(RING_TREES) - 1))
    def retree(self, index):
        self.network.retree(_tree(RING_TREES[index]))

    @rule(
        a=st.integers(min_value=-5, max_value=5),
        b=st.integers(min_value=-5, max_value=5),
        publisher=st.sampled_from(PUBLISHERS),
    )
    def publish(self, a, b, publisher):
        # Note: scoped propagation targets the advertised publishers;
        # publishing elsewhere is legal but may deliver less, so
        # correctness is asserted for the advertised origins.
        datagram = Datagram("S", {"a": a, "b": b}, 0.0)
        actual = {
            d.subscription_id: dict(d.datagram.payload)
            for d in self.network.publish_many([datagram], publisher)[0]
        }
        expected = {}
        for sid, profile in self.live.items():
            out = profile.apply(datagram)
            if out is not None:
                expected[sid] = dict(out.payload)
        assert actual == expected

    @invariant()
    def routing_state_bounded(self):
        # Entries never exceed (subscriptions x streams x nodes).
        assert self.network.routing_state_size() <= len(self.live) * 2 * 6

    @invariant()
    def entries_sit_exactly_on_the_current_paths(self):
        # What keys-only footprints rely on: a subscription's entries lie
        # on the current tree's path toward each advertised publisher,
        # behind the interface pointing back at it, and nowhere else.
        network = self.network
        tree = network.tree
        expected = {}
        for sid, node in self.nodes.items():
            expected[sid, "local"] = {(node, RoutingTable.LOCAL)}
            hops = expected[entry_id(sid, "S"), "S"] = set()
            for publisher in PUBLISHERS:
                path = tree.path(node, publisher)
                hops.update(zip(path[1:], path))
            assert network._subscriptions[sid].footprint.keys() == {
                ("S", publisher) for publisher in PUBLISHERS if publisher != node
            }
        actual = {}
        for node in tree.nodes:
            table = network.table(node)
            for interface in table.interfaces:
                for entry in table.entries(interface):
                    kind = "local" if interface is RoutingTable.LOCAL else "S"
                    actual.setdefault((entry, kind), set()).add((node, interface))
        assert actual == {key: hops for key, hops in expected.items() if hops}


class GroupingMachine(RuleBasedStateMachine):
    """Random add/remove/extract/reoptimize sequences on the optimizer."""

    queries = Bundle("queries")

    CATALOG = Catalog(
        [
            StreamSchema(
                "S",
                [Attribute("a", "int", -10, 10), Attribute("b", "int", -10, 10)],
                rate=1.0,
            ),
            StreamSchema("T", [Attribute("a", "int", -10, 10)], rate=1.0),
        ]
    )

    def __init__(self):
        super().__init__()
        self.optimizer = GroupingOptimizer(self.CATALOG, CostModel())
        self.added = set()
        self.counter = 0

    @rule(
        target=queries,
        stream=st.sampled_from(["S", "T"]),
        lo=st.integers(min_value=-10, max_value=5),
        span=st.integers(min_value=0, max_value=10),
        window=st.sampled_from([60.0, 300.0]),
    )
    def add_query(self, stream, lo, span, window):
        return self._add(stream, lo, span, window, aggregate=False)

    @rule(
        target=queries,
        stream=st.sampled_from(["S", "T"]),
        lo=st.integers(min_value=-10, max_value=5),
        span=st.integers(min_value=0, max_value=10),
        window=st.sampled_from([60.0, 300.0]),
    )
    def add_aggregate(self, stream, lo, span, window):
        # MAX(a) GROUP BY a: a selection on a commutes with the grouping,
        # so equal windows merge and different ones sit under two keys.
        return self._add(stream, lo, span, window, aggregate=True)

    def _add(self, stream, lo, span, window, aggregate):
        name = f"q{self.counter}"
        self.counter += 1
        attr = AttrRef(stream, "a")
        query = ContinuousQuery(
            select_items=(Aggregate("max", attr),) if aggregate else (attr,),
            streams=(StreamRef(stream, Window(window)),),
            predicate=Conjunction.from_atoms(
                [
                    Comparison(f"{stream}.a", ">=", lo),
                    Comparison(f"{stream}.a", "<=", lo + span),
                ]
            ),
            group_by=(attr,) if aggregate else (),
            name=name,
        )
        self.optimizer.add(query)
        self.added.add(name)
        return name

    @rule(name=queries)
    def remove_query(self, name):
        if name in self.added:
            self.optimizer.remove(name)
            self.added.discard(name)

    @rule(index=st.integers(min_value=0, max_value=20))
    def extract_group(self, index):
        groups = self.optimizer.groups
        if groups:
            group = groups[index % len(groups)]
            members = self.optimizer.extract_group(group.group_id)
            self.added -= {member.name for member in members}

    @rule()
    def reoptimize(self):
        self.optimizer.reoptimize()

    @invariant()
    def bookkeeping_consistent(self):
        assert self.optimizer.query_count == len(self.added)
        members = {
            member.name
            for group in self.optimizer.groups
            for member in group.members
        }
        assert members == self.added
        for name in self.added:
            group = self.optimizer.group_of(name)
            assert group is not None
            assert any(m.name == name for m in group.members)

    @invariant()
    def index_holds_exactly_the_live_groups(self):
        optimizer = self.optimizer
        assert optimizer.query_count == sum(len(g) for g in optimizer.groups)
        indexed = [gid for ids in optimizer._index.values() for gid in ids]
        assert sorted(indexed) == sorted(g.group_id for g in optimizer.groups)
        for group in optimizer.groups:
            key = optimizer._structure_key(group.representative)
            assert group.group_id in optimizer._index[key]
        assert all(optimizer._index.values()), "a key holds an empty list"

    @invariant()
    def members_contained(self):
        for group in self.optimizer.groups:
            for member in group.members:
                assert contains(member, group.representative, self.CATALOG)


TestCBNStateful = CBNMachine.TestCase
TestCBNStateful.settings = settings(
    max_examples=25, stateful_step_count=25, deadline=None
)

TestGroupingStateful = GroupingMachine.TestCase
TestGroupingStateful.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
