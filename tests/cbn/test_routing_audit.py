"""The routing-state audits of ``tests/routing_audit.py`` find planted
defects, and real networks and systems leave none."""

import pytest

from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cbn.routing import RoutingTable
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.system.cosmos import CosmosSystem
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)
from tests.routing_audit import orphan_entries, unreachable_subscribers

TEMP = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("t", "timestamp")],
    rate=1.0,
)


def _all(stream="Temp"):
    return Profile({stream: ALL_ATTRIBUTES}, ())


@pytest.fixture
def network(line_tree):
    """Temp published at broker 0 of the line 0-4, subscribed as ``s1`` at 4."""
    network = ContentBasedNetwork(line_tree, Catalog([TEMP]))
    network.advertise("Temp", 0, TEMP)
    network.subscribe(_all(), 4, "s1")
    return network


class TestReachability:
    def test_routed_network_is_clean(self, network):
        assert unreachable_subscribers(network) == []
        assert orphan_entries(network) == []

    def test_missing_hop_entry(self, network):
        # planted defect: drop the forwarding entry at broker 2
        del network.table(2)._entries[3]["s1#Temp"]
        [problem] = unreachable_subscribers(network)
        assert "broker 2" in problem

    def test_missing_local_entry(self, network):
        del network.table(4)._entries[RoutingTable.LOCAL]["s1"]
        [problem] = unreachable_subscribers(network)
        assert "local entry" in problem


class TestOrphanEntries:
    def test_orphan_entry(self, network):
        # planted defect: forwarding state for a subscription that does
        # not exist (as a buggy unsubscribe would leak it)
        network.table(2).install(3, "ghost#Temp", _all())
        [problem] = orphan_entries(network)
        assert "ghost" in problem

    # a query named "q#1" is subscribed to its results as "user:q#1:v<n>";
    # "s#Temp" is spelled like the Temp entry of a subscription "s"
    @pytest.mark.parametrize("sid", ["user:q#1:v0", "#", "a#b#c", "s#Temp"])
    def test_hash_in_subscription_id_is_not_an_orphan(self, line_tree, sid):
        network = ContentBasedNetwork(line_tree, Catalog([TEMP]))
        network.advertise("Temp", 0, TEMP)
        network.subscribe(_all(), 4, sid)
        assert orphan_entries(network) == []
        assert unreachable_subscribers(network) == []
        # an entry for a stream the live subscription does not request
        # is still nobody's
        network.table(2).install(3, f"{sid}#Wind", _all("Wind"))
        [problem] = orphan_entries(network)
        assert f"{sid}#Wind" in problem

    def test_query_named_with_hash_routes_no_orphans(self, line_tree):
        system = CosmosSystem(line_tree, processor_nodes=[2])
        system.add_source(OPEN_AUCTION_SCHEMA, 0)
        system.add_source(CLOSED_AUCTION_SCHEMA, 0)
        system.submit(TABLE1_Q1, user_node=4, name="q#1")
        system.submit(TABLE1_Q2, user_node=3, name="q#2")
        assert orphan_entries(system.network) == []
        system.withdraw("q#1")
        assert orphan_entries(system.network) == []

    def test_entry_behind_non_neighbour(self, network):
        network.table(2).install(99, "s1#Temp", _all())
        [problem] = orphan_entries(network)
        assert "99" in problem

    def test_unsubscribe_leaves_no_orphans(self, network):
        network.unsubscribe("s1")
        assert orphan_entries(network) == []
