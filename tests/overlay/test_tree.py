"""Dissemination trees: structure checks, paths, subtrees, mutation."""

import random

import pytest

from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree, TreeError


class TestConstruction:
    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            DisseminationTree([(0, 1), (1, 2), (2, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(TreeError):
            DisseminationTree([(0, 1), (2, 3)], nodes=[0, 1, 2, 3, 4])

    def test_isolated_node_rejected(self):
        with pytest.raises(TreeError):
            DisseminationTree([(0, 1)], nodes=[0, 1, 2])

    def test_minimum_spanning_covers_topology(self, small_topology):
        tree = DisseminationTree.minimum_spanning(small_topology)
        assert sorted(tree.nodes) == sorted(small_topology.nodes)
        assert len(tree.edges) == len(small_topology) - 1

    def test_default_weights(self):
        tree = DisseminationTree([(0, 1)])
        assert tree.weight(0, 1) == 1.0


class TestPaths:
    def test_path_endpoints(self, line_tree):
        assert line_tree.path(0, 4) == [0, 1, 2, 3, 4]
        assert line_tree.path(4, 0) == [4, 3, 2, 1, 0]

    def test_path_same_node(self, line_tree):
        assert line_tree.path(2, 2) == [2]

    def test_path_through_branch(self, star_tree):
        assert star_tree.path(1, 3) == [1, 0, 3]

    def test_path_edges(self, line_tree):
        assert line_tree.path_edges(1, 3) == [(1, 2), (2, 3)]

    def test_path_weight(self, line_tree):
        assert line_tree.path_weight(0, 4) == 4.0

    def test_path_is_symmetric(self, small_tree):
        rng = random.Random(1)
        for __ in range(30):
            a, b = rng.choice(small_tree.nodes), rng.choice(small_tree.nodes)
            assert small_tree.path(b, a) == small_tree.path(a, b)[::-1]

    def test_path_weight_sums_path_edges(self, small_tree):
        rng = random.Random(2)
        for __ in range(30):
            a, b = rng.choice(small_tree.nodes), rng.choice(small_tree.nodes)
            edges = small_tree.path_edges(a, b)
            assert len(edges) == len(small_tree.path(a, b)) - 1
            assert small_tree.path_weight(a, b) == pytest.approx(
                sum(small_tree.weight(u, v) for u, v in edges)
            )

    def test_unknown_node_raises(self, line_tree):
        with pytest.raises(TreeError):
            line_tree.path(0, 99)

    def test_path_matches_bfs_on_random_tree(self, small_tree):
        # Cross-check the LCA path against edge-by-edge validity.
        rng = random.Random(0)
        nodes = small_tree.nodes
        for __ in range(30):
            a, b = rng.choice(nodes), rng.choice(nodes)
            path = small_tree.path(a, b)
            assert path[0] == a and path[-1] == b
            assert len(set(path)) == len(path)
            for u, v in zip(path, path[1:]):
                assert v in small_tree.neighbors(u)


class TestFlowCost:
    """``flow_cost``: the one price of a flow on the tree."""

    def test_rate_times_path_weight(self):
        tree = DisseminationTree([(0, 1), (1, 2)], {(0, 1): 2.0, (1, 2): 0.5})
        assert tree.flow_cost([(0, 2, 4.0)]) == 10.0
        assert tree.flow_cost([(2, 0, 4.0)]) == 10.0

    def test_flow_within_a_node_costs_nothing(self, line_tree):
        assert line_tree.flow_cost([(2, 2, 5.0)]) == 0.0
        assert line_tree.flow_cost([]) == 0.0

    def test_cost_grows_with_distance(self, line_tree):
        # a source at 0 feeding a processor, its result flowing to a user
        near = line_tree.flow_cost([(0, 1, 3.0), (1, 2, 1.5)])
        far = line_tree.flow_cost([(0, 2, 3.0), (2, 4, 1.5)])
        assert far > near

    def test_total_is_a_sum(self, line_tree):
        one = [(0, 2, 3.0), (2, 4, 1.5)]
        assert line_tree.flow_cost(one + one) == 2 * line_tree.flow_cost(one)

    def test_accumulated_in_flow_order(self, small_tree):
        rng = random.Random(4)
        nodes = small_tree.nodes
        flows = [
            (rng.choice(nodes), rng.choice(nodes), rng.uniform(0.1, 9.9))
            for __ in range(40)
        ]
        total = 0.0
        for source, sink, rate in flows:
            total += rate * small_tree.path_weight(source, sink)
        assert small_tree.flow_cost(flows) == total


class TestMutation:
    def test_edge_swap_valid(self, star_tree):
        # Move leaf 4 under leaf 1.
        swapped = star_tree.with_edge_swap((0, 4), (1, 4), 2.0)
        assert swapped.path(4, 0) == [4, 1, 0]
        assert swapped.weight(1, 4) == 2.0

    def test_edge_swap_invalid_reconnect(self, line_tree):
        # Removing (1,2) and adding (0,1) does not reconnect the halves.
        with pytest.raises(TreeError):
            line_tree.with_edge_swap((1, 2), (0, 1), 1.0)

    def test_edge_swap_unknown_edge(self, line_tree):
        with pytest.raises(TreeError):
            line_tree.with_edge_swap((0, 4), (1, 4), 1.0)

    def test_swap_leaves_original_untouched(self, star_tree):
        star_tree.with_edge_swap((0, 4), (1, 4), 2.0)
        assert star_tree.path(4, 0) == [4, 0]

    def test_remove_leaf(self, line_tree):
        components, forest = line_tree.remove_node(4)
        assert components == [{0, 1, 2, 3}]

    def test_remove_interior_splits(self, line_tree):
        components, forest = line_tree.remove_node(2)
        assert sorted(map(sorted, components)) == [[0, 1], [3, 4]]

    def test_remove_hub_creates_singletons(self, star_tree):
        components, __ = star_tree.remove_node(0)
        assert sorted(map(sorted, components)) == [[1], [2], [3], [4]]
