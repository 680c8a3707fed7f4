"""Routing-state rebuild over a new tree (shared by fault & tuning)."""

import pytest

from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem
from repro.system.fault import fail_broker
from repro.system.rebuild import RebuildError, rebuild_network
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
)


def line(nodes):
    edges = list(zip(nodes, nodes[1:]))
    return DisseminationTree(edges, {tuple(sorted(e)): 1.0 for e in edges})


@pytest.fixture
def system(line_tree):
    sys_ = CosmosSystem(line_tree, processor_nodes=[2])
    sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
    sys_.add_source(CLOSED_AUCTION_SCHEMA, 0)
    sys_.submit(TABLE1_Q1, user_node=4, name="q1")
    return sys_


class TestRebuild:
    def test_delivery_works_on_new_tree(self, system):
        # Re-wire the same five nodes in a different order.
        rebuild_network(system, line([0, 2, 1, 3, 4]))
        system.publish(
            "OpenAuction",
            {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
            0.0,
        )
        deliveries = system.publish(
            "ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 60.0}, 60.0
        )
        assert len(deliveries) == 1

    def test_statistics_carry_over(self, system):
        system.publish(
            "OpenAuction",
            {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
            0.0,
        )
        before = system.network.data_stats.total_bytes()
        assert before > 0
        rebuild_network(system, line([0, 2, 1, 3, 4]))
        assert system.network.data_stats.total_bytes() == before

    def test_missing_user_node_rejected(self, system):
        with pytest.raises(RebuildError):
            rebuild_network(system, line([0, 1, 2, 3]))  # drops user node 4

    def test_missing_processor_rejected(self, line_tree):
        sys_ = CosmosSystem(line_tree, processor_nodes=[4])
        sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
        with pytest.raises(RebuildError):
            rebuild_network(sys_, line([0, 1, 2, 3]))

    def test_missing_source_rejected(self, line_tree):
        sys_ = CosmosSystem(line_tree, processor_nodes=[1])
        sys_.add_source(OPEN_AUCTION_SCHEMA, 4)
        with pytest.raises(RebuildError):
            rebuild_network(sys_, line([0, 1, 2, 3]))

    def test_network_and_subscription_ids_survive_a_repair(
        self, auction_system_builder
    ):
        # Nothing is replaced: the network re-propagates its own
        # registrations, so no id is re-derived from outside.
        sys_, __, __ = auction_system_builder()
        network, data_stats = sys_.network, sys_.network.data_stats
        before = sys_.network.subscriptions()
        victim = next(n for n in sys_.tree.nodes if n not in {0, 1, 2, 3, 4})
        fail_broker(sys_, victim)
        assert sys_.network is network
        assert sys_.network.data_stats is data_stats
        assert sys_.network.tree is sys_.tree
        assert sys_.network.subscriptions() == before
        assert all(p.network is network for p in sys_.processors.values())
