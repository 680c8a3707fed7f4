"""Adaptive overlay tree reorganisation."""

import random

import pytest

from repro.overlay.optimizer import (
    OverlayOptimizer,
    hop_count_cost,
    weighted_traffic_cost,
)
from repro.overlay.topology import Topology, barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.system.fault import repair_tree
from tests.overlay.test_optimizer_oracle import recorded_swaps


def square_topology():
    """A square with a diagonal: 0-1-2-3-0 plus 0-2."""
    t = Topology()
    t.add_edge(0, 1, 1.0)
    t.add_edge(1, 2, 1.0)
    t.add_edge(2, 3, 1.0)
    t.add_edge(0, 3, 1.0)
    t.add_edge(0, 2, 1.5)
    return t


class TestCostEvaluation:
    def test_link_flows_follow_paths(self, line_tree):
        opt = OverlayOptimizer(Topology())
        flows = opt.link_flows(line_tree, [(0, 2, 3.0)])
        assert flows == {(0, 1): 3.0, (1, 2): 3.0}

    def test_flows_accumulate(self, line_tree):
        opt = OverlayOptimizer(Topology())
        flows = opt.link_flows(line_tree, [(0, 2, 1.0), (1, 3, 2.0)])
        assert flows[(1, 2)] == 3.0

    def test_zero_rate_ignored(self, line_tree):
        opt = OverlayOptimizer(Topology())
        assert opt.link_flows(line_tree, [(0, 2, 0.0)]) == {}

    def test_tree_cost_weighted(self, line_tree):
        opt = OverlayOptimizer(Topology(), cost_function=weighted_traffic_cost)
        cost = opt.tree_cost(line_tree, [(0, 4, 2.0)])
        assert cost == 8.0  # 4 unit links x flow 2

    def test_hop_count_cost_function(self, line_tree):
        opt = OverlayOptimizer(Topology(), cost_function=hop_count_cost)
        assert opt.tree_cost(line_tree, [(0, 4, 2.0)]) == 8.0


class TestOptimization:
    def test_improves_bad_tree(self):
        topo = square_topology()
        # A path tree 1-0-3-2 forces 1->2 traffic around three hops.
        tree = DisseminationTree(
            [(0, 1), (0, 3), (2, 3)], {(0, 1): 1.0, (0, 3): 1.0, (2, 3): 1.0}
        )
        demands = [(1, 2, 10.0)]
        optimizer = OverlayOptimizer(topo)
        improved, report = optimizer.optimize(tree, demands)
        assert report.final_cost < report.initial_cost
        assert report.swaps >= 1

    def test_optimal_tree_untouched(self):
        topo = square_topology()
        tree = DisseminationTree(
            [(0, 1), (1, 2), (2, 3)], {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0}
        )
        optimizer = OverlayOptimizer(topo)
        improved, report = optimizer.optimize(tree, [(0, 1, 5.0)])
        assert report.swaps == 0
        assert report.improvement == 0.0

    def test_swaps_only_use_topology_edges(self):
        topo = square_topology()
        tree = DisseminationTree.minimum_spanning(topo)
        optimizer = OverlayOptimizer(topo)
        demands = [(0, 2, 5.0), (1, 3, 5.0)]
        improved, __ = optimizer.optimize(tree, demands)
        for u, v in improved.edges:
            assert topo.has_edge(u, v)

    def test_result_is_valid_tree(self):
        rng = random.Random(11)
        topo = barabasi_albert(40, 2, rng)
        tree = DisseminationTree.minimum_spanning(topo)
        demands = [
            (rng.randrange(40), rng.randrange(40), rng.uniform(1, 5))
            for __ in range(15)
        ]
        optimizer = OverlayOptimizer(topo)
        improved, report = optimizer.optimize(tree, demands, max_rounds=4)
        assert len(improved.edges) == len(tree.edges)
        assert report.final_cost <= report.initial_cost

    def test_max_degree_respected(self):
        rng = random.Random(13)
        topo = barabasi_albert(25, 2, rng)
        tree = DisseminationTree.minimum_spanning(topo)
        cap = max(tree.degree(n) for n in tree.nodes)
        demands = [(rng.randrange(25), rng.randrange(25), 1.0) for __ in range(10)]
        optimizer = OverlayOptimizer(topo, max_degree=cap)
        improved, __ = optimizer.optimize(tree, demands, max_rounds=3)
        assert max(improved.degree(n) for n in improved.nodes) <= cap

    def test_max_degree_counts_the_slot_the_removed_edge_frees(self):
        """Path 0-1-2-3, cap 2, spare link 1-3: replacing 1-2 by 1-3
        keeps node 1 at degree 2 (it loses one edge and gains one)."""
        topo = Topology()
        for u, v in [(0, 1), (1, 2), (2, 3), (1, 3)]:
            topo.add_edge(u, v, 1.0)
        tree = DisseminationTree([(0, 1), (1, 2), (2, 3)])
        optimizer = OverlayOptimizer(topo, max_degree=2)
        improved, report = optimizer.optimize(tree, [(1, 3, 10.0)])
        assert improved.edges == [(0, 1), (1, 3), (2, 3)]
        assert report.swaps == 1
        assert max(improved.degree(n) for n in improved.nodes) == 2

    def test_failed_broker_left_in_the_topology_is_no_candidate(self, monkeypatch):
        """``Topology`` keeps failed nodes; the repaired tree does not
        span them, so their links are skipped — not tried and caught."""
        rng = random.Random(17)
        topo = barabasi_albert(30, 2, rng)
        tree = DisseminationTree.minimum_spanning(topo)
        failed = max(tree.nodes, key=tree.degree)
        repaired = repair_tree(tree, topo, failed)
        live = repaired.nodes
        assert failed in topo.nodes and failed not in live
        demands = [(rng.choice(live), rng.choice(live), 1.0) for __ in range(20)]
        built = recorded_swaps(monkeypatch)
        improved, report = OverlayOptimizer(topo).optimize(repaired, demands, 3)
        assert report.swaps >= 1 and len(built) == report.swaps
        assert improved.nodes == live
        assert all(failed not in edge for edge in improved.edges)

    def test_report_improvement_fraction(self):
        topo = square_topology()
        tree = DisseminationTree(
            [(0, 1), (0, 3), (2, 3)], {(0, 1): 1.0, (0, 3): 1.0, (2, 3): 1.0}
        )
        optimizer = OverlayOptimizer(topo)
        __, report = optimizer.optimize(tree, [(1, 2, 10.0)])
        assert 0.0 < report.improvement <= 1.0
