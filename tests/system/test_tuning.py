"""The self-tuning loop: demands from live state, reorganisation."""

import random

import pytest

from repro.overlay.topology import Topology, barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem
from repro.system.tuning import TuningError, reorganize_overlay, traffic_demands
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)


def square_topology():
    """0-1-2-3-0 ring plus chords: plenty of alternative trees."""
    t = Topology()
    for u, v in [(0, 1), (1, 2), (2, 3), (0, 3)]:
        t.add_edge(u, v, 1.0)
    t.add_edge(0, 2, 1.2)
    t.add_edge(1, 3, 1.2)
    return t


@pytest.fixture
def system():
    topo = square_topology()
    # Deliberately bad tree: traffic source at 0, heavy user at 2, but
    # the tree routes 0->2 the long way around through 1... wait — tree
    # is a path 1-0-3, 3-2: 0 to 2 goes 0-3-2.
    tree = DisseminationTree(
        [(0, 1), (0, 3), (3, 2)], {(0, 1): 1.0, (0, 3): 1.0, (2, 3): 1.0}
    )
    sys_ = CosmosSystem(tree, processor_nodes=[1], topology=topo)
    sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
    sys_.add_source(CLOSED_AUCTION_SCHEMA, 0)
    return sys_


class TestTrafficDemands:
    def test_empty_without_queries(self, system):
        assert traffic_demands(system) == []

    def test_demands_cover_both_directions(self, system):
        system.submit(TABLE1_Q1, user_node=2, name="q1")
        demands = traffic_demands(system)
        endpoints = {(src, dst) for src, dst, __ in demands}
        assert (0, 1) in endpoints  # sources at 0 -> processor at 1
        assert (1, 2) in endpoints  # results processor 1 -> user at 2

    def test_rates_positive(self, system):
        system.submit(TABLE1_Q1, user_node=2, name="q1")
        system.submit(TABLE1_Q2, user_node=3, name="q2")
        for __, __, rate in traffic_demands(system):
            assert rate > 0

    def test_merged_group_emits_one_source_demand_set(self, system):
        system.submit(TABLE1_Q1, user_node=2, name="q1")
        system.submit(TABLE1_Q2, user_node=3, name="q2")
        demands = traffic_demands(system)
        source_demands = [d for d in demands if d[0] == 0 and d[1] == 1]
        # One merged group: each of the two source streams contributes
        # exactly one flow to the processor.
        assert len(source_demands) == 2

    def test_source_demand_is_the_projected_flow(self, system):
        """Q2 keeps two of OpenAuction's four attributes: the optimizer
        sees the flow the source profile admits, as placement prices it,
        not the full tuple width."""
        system.submit(TABLE1_Q2, user_node=2, name="q2")
        (group,) = system.processors[1].manager.groups
        rep = group.representative
        pulls = [demand for demand in traffic_demands(system) if demand[1] == 1]
        assert pulls == [
            (0, 1, system.cost_model.source_flow_rate(rep, ref.stream, system.catalog))
            for ref in rep.streams
        ]
        open_auction = system.catalog.get("OpenAuction")
        assert pulls[0][2] < open_auction.rate * sum(a.byte_width for a in open_auction.attributes)


class TestReorganize:
    def test_requires_topology(self, line_tree):
        sys_ = CosmosSystem(line_tree, processor_nodes=[2])
        with pytest.raises(TuningError):
            reorganize_overlay(sys_)

    def test_improves_and_preserves_delivery(self, system):
        h1 = system.submit(TABLE1_Q1, user_node=2, name="q1")
        system.publish(
            "OpenAuction",
            {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
            0.0,
        )
        system.publish(
            "ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 60.0}, 60.0
        )
        assert h1.result_count == 1
        report = reorganize_overlay(system)
        assert report.final_cost <= report.initial_cost
        # Delivery still works on the (possibly) new tree.
        system.publish(
            "OpenAuction",
            {"itemID": 2, "sellerID": 1, "start_price": 1.0, "timestamp": 120.0},
            120.0,
        )
        system.publish(
            "ClosedAuction", {"itemID": 2, "buyerID": 2, "timestamp": 180.0}, 180.0
        )
        assert h1.result_count == 2

    def test_noop_when_tree_already_good(self):
        topo = square_topology()
        tree = DisseminationTree(
            [(0, 1), (1, 2), (2, 3)], {(0, 1): 1.0, (1, 2): 1.0, (2, 3): 1.0}
        )
        sys_ = CosmosSystem(tree, processor_nodes=[1], topology=topo)
        sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
        sys_.add_source(CLOSED_AUCTION_SCHEMA, 0)
        sys_.submit(TABLE1_Q1, user_node=2, name="q1")
        before = sys_.network
        report = reorganize_overlay(sys_)
        if report.swaps == 0:
            assert sys_.network is before  # untouched

    def test_larger_system_round_trip(self):
        rng = random.Random(3)
        topo = barabasi_albert(40, 3, rng)
        tree = DisseminationTree.minimum_spanning(topo)
        sys_ = CosmosSystem(tree, processor_nodes=[0], topology=topo)
        sys_.add_source(OPEN_AUCTION_SCHEMA, 5)
        sys_.add_source(CLOSED_AUCTION_SCHEMA, 6)
        handles = [
            sys_.submit(TABLE1_Q2, user_node=rng.randrange(40), name=f"q{i}")
            for i in range(5)
        ]
        reorganize_overlay(sys_, max_rounds=3)
        sys_.publish(
            "OpenAuction",
            {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
            0.0,
        )
        sys_.publish(
            "ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 60.0}, 60.0
        )
        assert all(h.result_count == 1 for h in handles)
