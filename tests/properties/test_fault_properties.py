"""Failure injection: delivery survives random broker failures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.fault import FaultError, fail_broker, repair_tree
from repro.system.reliability import heal_partition, quarantine_partitioned
from tests.conftest import build_mst

SCHEMA = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("celsius", "float", -20, 40)],
    rate=1.0,
)

#: Nodes with attached roles that must never be failed.
PROTECTED = {0, 1, 2, 3}


def _assert_spanning_tree(tree, expected_nodes):
    """``tree`` is connected, acyclic, and spans exactly ``expected_nodes``.

    A tree on n nodes has exactly n-1 edges; with connectivity that
    also rules out cycles.  Connectivity is checked constructively:
    every node is reachable from the first one along tree paths.
    """
    nodes = sorted(tree.nodes)
    assert nodes == sorted(expected_nodes)
    assert len(tree.edges) == len(nodes) - 1
    root = nodes[0]
    for node in nodes[1:]:
        path = tree.path(root, node)
        assert path[0] == root and path[-1] == node


def _contracted_mst_weight(tree, topo, victim):
    """Weight of a from-scratch Kruskal over the fragments ``victim``
    leaves behind, each contracted to one vertex (own union-find: the
    check must not share code with the routine under test)."""
    fragments, __ = tree.remove_node(victim)
    fragment_of = {
        node: index for index, nodes in enumerate(fragments) for node in nodes
    }
    root = list(range(len(fragments)))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    total = 0.0
    for weight, (u, v) in sorted((w, e) for e, w in topo.weights.items()):
        if u not in fragment_of or v not in fragment_of:
            continue
        a, b = find(fragment_of[u]), find(fragment_of[v])
        if a != b:
            root[a] = b
            total += weight
    return total


class TestRepairTreeProperties:
    """Random topology x random single/double broker failure: the
    repaired tree is connected, acyclic, and spans all survivors."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=10, max_value=40),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_repair_spans_survivors(self, seed, n_nodes, data):
        topo, tree = build_mst(n_nodes, seed)
        survivors = set(tree.nodes)
        failures = data.draw(st.integers(min_value=1, max_value=2), label="failures")
        for round_index in range(failures):
            victim = data.draw(
                st.sampled_from(sorted(survivors)), label=f"victim{round_index}"
            )
            try:
                repaired = repair_tree(tree, topo, victim)
            except FaultError:
                # Survivors physically partitioned (or last node): the
                # refusal must leave the input tree untouched.
                _assert_spanning_tree(tree, survivors)
                continue
            survivors.discard(victim)
            _assert_spanning_tree(repaired, survivors)
            # The failed node's physical links are never reused.
            assert all(victim not in edge for edge in repaired.edges)
            # Every repair edge is a real physical link of the topology.
            assert all(edge in topo.weights for edge in repaired.edges)
            # Every surviving tree edge is kept (subscription paths that
            # avoid the victim do not move) ...
            kept = {edge for edge in tree.edges if victim not in edge}
            assert kept <= set(repaired.edges)
            # ... and the fragments are re-joined as cheaply as possible.
            added = set(repaired.edges) - kept
            assert sum(topo.weights[e] for e in added) == pytest.approx(
                _contracted_mst_weight(tree, topo, victim)
            )
            tree = repaired

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=8, max_value=25),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_heal_extends_the_tree_it_finds(self, seed, n_nodes, data):
        # A pendant chain cut - a - b hangs off the overlay; the user
        # sits at its far end, so losing ``cut`` strands it.
        topo, __ = build_mst(n_nodes, seed)
        cut, a, b = n_nodes, n_nodes + 1, n_nodes + 2
        for u, v in ((0, cut), (cut, a), (a, b)):
            topo.add_edge(u, v, 5.0)
        system = CosmosSystem(
            DisseminationTree.minimum_spanning(topo),
            processor_nodes=[0],
            topology=topo,
        )
        system.add_source(SCHEMA, 1)
        handle = system.submit(
            "SELECT T.station FROM Temp [Range 1 Hour] T", user_node=b, name="q"
        )
        assert quarantine_partitioned(system, cut) == ["q"]
        assert handle.status is QueryStatus.DEGRADED
        degraded = system.tree
        assert sorted(degraded.nodes) == list(range(n_nodes))

        anchor = data.draw(st.integers(min_value=0, max_value=n_nodes - 1))
        stranded = data.draw(st.sampled_from([a, b]))
        topo.add_edge(anchor, stranded, 7.0)
        assert heal_partition(system) == ["q"]
        assert handle.status is QueryStatus.ACTIVE
        _assert_spanning_tree(system.tree, set(range(n_nodes)) | {a, b})
        assert set(degraded.edges) <= set(system.tree.edges)
        for edge in degraded.edges:
            assert system.tree.weight(*edge) == degraded.weight(*edge)
        system.publish("Temp", {"station": 1, "celsius": 20.0}, 1.0)
        assert handle.result_count == 1


def _build(seed):
    topo = barabasi_albert(25, 2, random.Random(seed))
    tree = DisseminationTree.minimum_spanning(topo)
    system = CosmosSystem(tree, processor_nodes=[0], topology=topo)
    system.add_source(SCHEMA, 1)
    handles = [
        system.submit(
            "SELECT T.celsius FROM Temp [Range 1 Hour] T WHERE T.celsius > 0",
            user_node=2,
            name="qa",
        ),
        system.submit(
            "SELECT T.station FROM Temp [Range 1 Hour] T",
            user_node=3,
            name="qb",
        ),
    ]
    return system, handles


class TestRandomBrokerFailures:
    @given(st.integers(min_value=0, max_value=30), st.data())
    @settings(max_examples=25, deadline=None)
    def test_delivery_after_each_failure(self, seed, data):
        system, handles = _build(seed)
        tick = [0.0]

        def publish_and_check(expected_counts):
            tick[0] += 1.0
            system.publish(
                "Temp", {"station": 1, "celsius": 20.0}, tick[0]
            )
            assert [h.result_count for h in handles] == expected_counts

        publish_and_check([1, 1])
        failures = data.draw(st.integers(min_value=1, max_value=3), label="failures")
        done = 0
        for round_index in range(failures):
            candidates = [
                n for n in system.tree.nodes if n not in PROTECTED
            ]
            if not candidates:
                break
            victim = data.draw(
                st.sampled_from(sorted(candidates)), label=f"victim{round_index}"
            )
            try:
                fail_broker(system, victim)
            except FaultError:
                # Physically partitioned survivors: a legitimate refusal.
                continue
            done += 1
            publish_and_check([1 + done, 1 + done])
