"""Topology construction, generators, MST."""

import math
import random

import pytest

from repro.overlay.topology import (
    Topology,
    TopologyError,
    barabasi_albert,
    edge_key,
)


def connected(topo):
    """Whether every node of ``topo`` is reachable from the first (BFS)."""
    nodes = topo.nodes
    if not nodes:
        return True
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        for other in topo.neighbors(frontier.pop()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(nodes)


class TestTopology:
    def test_add_edge_with_explicit_weight(self):
        t = Topology()
        t.add_edge(0, 1, 5.0)
        assert t.weights == {edge_key(1, 0): 5.0}

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Topology().add_edge(1, 1)

    def test_distance_from_positions(self):
        t = Topology()
        t.add_node(0, (0.0, 0.0))
        t.add_node(1, (3.0, 4.0))
        assert t.distance(0, 1) == 5.0

    def test_default_weight_is_distance(self):
        t = Topology()
        t.add_node(0, (0.0, 0.0))
        t.add_node(1, (3.0, 4.0))
        t.add_edge(0, 1)
        assert t.weights[edge_key(0, 1)] == 5.0

    def test_neighbors(self):
        t = Topology()
        t.add_edge(0, 1)
        t.add_edge(0, 2)
        assert t.neighbors(0) == {1, 2}
        assert t.neighbors(1) == {0}

    def test_neighbors_are_a_copy(self):
        t = Topology()
        t.add_edge(0, 1)
        t.neighbors(0).add(7)
        assert t.neighbors(0) == {1}

    def test_neighbors_of_an_unknown_node_raise(self):
        t = Topology()
        t.add_edge(0, 1)
        with pytest.raises(TopologyError):
            t.neighbors(2)

    def test_re_adding_an_edge_replaces_its_weight(self):
        t = Topology()
        t.add_edge(0, 1, 5.0)
        t.add_edge(1, 0, 2.0)
        assert t.weights == {(0, 1): 2.0}
        assert t.neighbors(0) == {1} and t.neighbors(1) == {0}

    def test_connectivity(self):
        """The generator assertions' helper sees an isolated node."""
        t = Topology()
        t.add_edge(0, 1)
        t.add_node(2)
        assert not connected(t)
        t.add_edge(1, 2)
        assert connected(t)

    def test_edge_key_canonical(self):
        assert edge_key(5, 2) == (2, 5)


class TestMST:
    def test_mst_size(self):
        topo = barabasi_albert(50, 2, random.Random(0))
        assert len(topo.minimum_spanning_tree_edges()) == 49

    def test_mst_picks_cheapest(self):
        t = Topology()
        t.add_edge(0, 1, 1.0)
        t.add_edge(1, 2, 1.0)
        t.add_edge(0, 2, 10.0)
        assert sorted(t.minimum_spanning_tree_edges()) == [(0, 1), (1, 2)]

    def test_disconnected_raises(self):
        t = Topology()
        t.add_edge(0, 1)
        t.add_node(5)
        with pytest.raises(TopologyError):
            t.minimum_spanning_tree_edges()

    def _square(self):
        """0-1-2-3-0 with a cheap chord 0-2."""
        t = Topology()
        for u, v, w in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0), (0, 2, 0.5)]:
            t.add_edge(u, v, w)
        return t

    def test_restricted_to_a_node_subset(self):
        # Links through node 2 are off-limits; (0, 3) is all that is left.
        singletons = {0: 0, 1: 1, 3: 3}
        assert self._square().minimum_spanning_tree_edges(singletons) == [
            (0, 1),
            (0, 3),
        ]

    def test_a_fragment_is_joined_not_rebuilt(self):
        # {0, 3} is one fragment (a kept tree edge): from scratch the
        # dear (0, 3) link would lose to (2, 3); joined, no link inside
        # the fragment is taken.
        t = self._square()
        assert t.minimum_spanning_tree_edges({0: "a", 3: "a", 1: 1, 2: 2}) == [
            (0, 2),
            (0, 1),
        ]

    def test_ties_broken_by_edge(self):
        t = Topology()
        for u, v in [(1, 2), (0, 2), (0, 1)]:
            t.add_edge(u, v, 1.0)
        assert t.minimum_spanning_tree_edges() == [(0, 1), (0, 2)]

    def test_subset_not_connected_raises(self):
        with pytest.raises(TopologyError):
            self._square().minimum_spanning_tree_edges({1: 1, 3: 3})

    def test_one_fragment_needs_no_link(self):
        assert self._square().minimum_spanning_tree_edges(dict.fromkeys(range(4), 0)) == []


class TestBarabasiAlbert:
    def test_node_and_edge_counts(self):
        topo = barabasi_albert(100, 2, random.Random(1))
        assert len(topo) == 100
        # clique(3) + 2 per newcomer
        assert len(sorted(topo.weights)) == 3 + 2 * 97

    def test_connected(self):
        assert connected(barabasi_albert(200, 2, random.Random(2)))

    def test_seed_reproducible(self):
        a = barabasi_albert(60, 2, random.Random(7))
        b = barabasi_albert(60, 2, random.Random(7))
        assert sorted(a.weights) == sorted(b.weights)

    def test_power_law_hubs_exist(self):
        topo = barabasi_albert(300, 2, random.Random(3))
        degrees = sorted((len(topo.neighbors(n)) for n in topo.nodes), reverse=True)
        # Preferential attachment concentrates degree in a few hubs.
        assert degrees[0] >= 5 * degrees[len(degrees) // 2]

    def test_every_node_has_at_least_m_links(self):
        topo = barabasi_albert(80, 3, random.Random(4))
        assert min(len(topo.neighbors(n)) for n in topo.nodes) >= 3

    def test_seeds_give_different_graphs(self):
        a = barabasi_albert(60, 2, random.Random(7))
        b = barabasi_albert(60, 2, random.Random(8))
        assert sorted(a.weights) != sorted(b.weights)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(TopologyError):
            barabasi_albert(2, 2)

    def test_bad_m_rejected(self):
        with pytest.raises(TopologyError):
            barabasi_albert(10, 0)
