"""Failure injection: delivery survives random broker failures."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.fault import FaultError, PartitionError, fail_broker, repair_tree
from repro.system.reliability import heal_partition, quarantine_partitioned

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


#: Link weights drawn from a few values, so Kruskal meets ties and its
#: tie-break — not the total weight — decides which link joins two
#: fragments.
TIED_WEIGHTS = (1.0, 2.0, 3.0)


def _tied_topology(n_nodes, seed):
    topo = barabasi_albert(n_nodes, 2, random.Random(seed))
    rng = random.Random(f"{seed}:weights")
    for edge in sorted(topo.weights):
        topo.weights[edge] = rng.choice(TIED_WEIGHTS)
    return topo


def _reference_tree(topo, nodes, kept=None):
    """Edge -> weight of the tree a seeded Kruskal builds over ``nodes``,
    or ``None`` when ``nodes`` are not physically connected.

    The seed edges ``kept`` (edge -> weight) are unioned first, in
    sorted order, then every link with both ends in ``nodes`` is taken
    by ``(weight, edge)`` — Kruskal as a completion of the seed forest,
    with its own union-find: the check must not share code with the
    routine under test.
    """
    kept = kept or {}
    root = {node: node for node in nodes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    candidates = sorted(
        (e for e in topo.weights if e[0] in root and e[1] in root),
        key=lambda e: (topo.weights[e], e),
    )
    chosen = {}
    for u, v in (*sorted(kept), *candidates):
        a, b = find(u), find(v)
        if a != b:
            root[a] = b
            chosen[u, v] = kept.get((u, v), topo.weights[u, v])
    return chosen if len(chosen) == len(root) - 1 else None


def _assert_tree_is(tree, expected, nodes):
    """``tree`` spans exactly ``nodes`` with exactly the edges and the
    per-edge weights of ``expected``."""
    assert expected is not None
    assert tree.nodes == sorted(nodes)
    assert tree.edges == sorted(expected)
    assert {edge: tree.weight(*edge) for edge in tree.edges} == expected


def _repair_history(seed, n_nodes, picks):
    """Build the MST of a tied-weight topology, then fail one broker per
    pick: every repair must be the reference tree over the survivors
    seeded with the surviving tree edges, and every refusal a
    :class:`PartitionError` exactly when the survivors are physically
    split, with the input tree left as it was."""
    topo = _tied_topology(n_nodes, seed)
    tree = DisseminationTree.minimum_spanning(topo)
    _assert_tree_is(tree, _reference_tree(topo, topo.nodes), topo.nodes)
    for pick in picks:
        victim = tree.nodes[pick % len(tree)]
        survivors = [node for node in tree.nodes if node != victim]
        kept = {e: tree.weight(*e) for e in tree.edges if victim not in e}
        expected = _reference_tree(topo, survivors, kept)
        if expected is None:
            before = (tree.nodes, tree.edges, tree.edge_weights())
            with pytest.raises(PartitionError):
                repair_tree(tree, topo, victim)
            # a refusal leaves the input tree untouched
            assert (tree.nodes, tree.edges, tree.edge_weights()) == before
            continue
        repaired = repair_tree(tree, topo, victim)
        _assert_spanning_tree(repaired, survivors)
        _assert_tree_is(repaired, expected, survivors)
        tree = repaired


class TestRepairTreeProperties:
    """Random tied-weight topology x random broker failures: the
    repaired tree is, edge for edge and weight for weight, what a
    seeded Kruskal over the survivors builds."""

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=10, max_value=40),
        st.lists(st.integers(min_value=0, max_value=1_000), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_repair_spans_survivors(self, seed, n_nodes, picks):
        _repair_history(seed, n_nodes, picks)

    def test_a_tie_break_on_weight_alone_is_caught(self, monkeypatch):
        # Kruskal's sort loses the edge tuple: on tied weights another
        # link of equal weight joins two fragments, so the total weight
        # of a repair stays minimal but the tree (and every digest) moves.
        from repro.overlay import topology as topology_module

        def by_weight_alone(items, key=None):
            return sorted(items, key=None if key is None else lambda e: key(e)[0])

        monkeypatch.setattr(topology_module, "sorted", by_weight_alone, raising=False)
        rng = random.Random(0)
        with pytest.raises(AssertionError):
            for seed in range(20):
                _repair_history(seed, 30, [rng.randrange(1000) for __ in range(3)])

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=8, max_value=25),
        st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_heal_extends_the_tree_it_finds(self, seed, n_nodes, data):
        # A pendant chain cut - a - b hangs off the overlay; the user
        # sits at its far end, so losing ``cut`` strands it.
        topo = _tied_topology(n_nodes, seed)
        cut, a, b = n_nodes, n_nodes + 1, n_nodes + 2
        for u, v in ((0, cut), (cut, a), (a, b)):
            topo.add_edge(u, v, 2.0)
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
        main = list(range(n_nodes))
        _assert_tree_is(degraded, _reference_tree(topo, main), main)

        # one to three links back across the cut, on tied weights
        links = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n_nodes - 1),
                    st.sampled_from([a, b]),
                    st.sampled_from(TIED_WEIGHTS),
                ),
                min_size=1,
                max_size=3,
            )
        )
        for anchor, stranded, weight in links:
            topo.add_edge(anchor, stranded, weight)
        assert heal_partition(system) == ["q"]
        assert handle.status is QueryStatus.ACTIVE
        healed = main + [a, b]
        kept = {edge: degraded.weight(*edge) for edge in degraded.edges}
        _assert_spanning_tree(system.tree, healed)
        _assert_tree_is(system.tree, _reference_tree(topo, healed, kept), healed)
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
