"""COS4xx: seeded overlay/routing defects must be flagged."""

import pytest

from repro.analysis.overlay import (
    check_network,
    check_overlay_graph,
    check_reachability,
    check_routing_entries,
)
from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cbn.routing import RoutingTable
from repro.cql.schema import Attribute, Catalog, StreamSchema
from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)


def _schema(name="Temp"):
    return StreamSchema(
        name,
        [Attribute("station", "int", 0, 9), Attribute("t", "timestamp")],
        rate=1.0,
    )


def _network(line_tree):
    return ContentBasedNetwork(line_tree, Catalog([_schema()]))


def _all(stream="Temp"):
    return Profile({stream: ALL_ATTRIBUTES}, ())


class TestOverlayGraph:
    def test_tree_is_clean(self):
        report = check_overlay_graph([0, 1, 2], [(0, 1), (1, 2)])
        assert report.is_clean

    def test_cycle(self):
        report = check_overlay_graph([0, 1, 2], [(0, 1), (1, 2), (2, 0)])
        assert report.has("COS402")
        assert "cycle" in report.errors[0].message

    def test_disconnection(self):
        report = check_overlay_graph([0, 1, 2, 3], [(0, 1), (2, 3)])
        assert report.has("COS402")
        assert "disconnected" in report.errors[0].message

    def test_self_loop_and_dangling_edge(self):
        report = check_overlay_graph([0, 1], [(0, 0), (1, 7)])
        messages = " ".join(d.message for d in report)
        assert "self-loop" in messages and "outside the overlay" in messages

    def test_duplicate_edge(self):
        report = check_overlay_graph([0, 1], [(0, 1), (1, 0)])
        assert report.has("COS402")


class TestReachability:
    def test_routed_network_is_clean(self, line_tree):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        network.subscribe(_all(), 4, "s1")
        assert check_network(network).is_clean

    def test_missing_hop_entry(self, line_tree):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        network.subscribe(_all(), 4, "s1")
        # Seeded defect: surgically drop the forwarding entry at broker 2.
        del network.table(2)._entries[3]["s1#Temp"]
        report = check_reachability(network)
        assert report.has("COS401")
        assert "broker 2" in report.errors[0].message

    def test_no_publisher(self, line_tree):
        network = _network(line_tree)
        network.subscribe(_all(), 4, "s1")
        report = check_reachability(network)
        assert report.has("COS404")
        assert report.exit_code() == 0  # warning: may advertise later

    def test_missing_local_entry(self, line_tree):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        network.subscribe(_all(), 4, "s1")
        del network.table(4)._entries[RoutingTable.LOCAL]["s1"]
        assert check_reachability(network).has("COS401")


class TestRoutingEntries:
    def test_orphan_entry(self, line_tree):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        network.subscribe(_all(), 4, "s1")
        # Seeded defect: install forwarding state for a subscription
        # that does not exist (e.g. leaked by a buggy unsubscribe).
        network.table(2).install(3, "ghost#Temp", _all())
        report = check_routing_entries(network)
        assert report.has("COS403")
        assert "ghost" in report.warnings[0].message

    # a query named "q#1" is subscribed to its results as "user:q#1:v<n>";
    # "s#Temp" is spelled like the Temp entry of a subscription "s"
    @pytest.mark.parametrize("sid", ["user:q#1:v0", "#", "a#b#c", "s#Temp"])
    def test_hash_in_subscription_id_is_not_an_orphan(self, line_tree, sid):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        network.subscribe(_all(), 4, sid)
        assert check_routing_entries(network).is_clean
        assert check_reachability(network).is_clean
        # an entry for a stream the live subscription does not request
        # is still nobody's
        network.table(2).install(3, f"{sid}#Wind", _all("Wind"))
        report = check_routing_entries(network)
        assert [d.code for d in report] == ["COS403"]
        assert f"{sid}#Wind" in report.warnings[0].message

    def test_query_named_with_hash_routes_no_orphans(self, line_tree):
        system = CosmosSystem(line_tree, processor_nodes=[2])
        system.add_source(OPEN_AUCTION_SCHEMA, 0)
        system.add_source(CLOSED_AUCTION_SCHEMA, 0)
        system.submit(TABLE1_Q1, user_node=4, name="q#1")
        system.submit(TABLE1_Q2, user_node=3, name="q#2")
        assert not check_network(system.network).has("COS403")
        system.withdraw("q#1")
        assert not check_network(system.network).has("COS403")

    def test_entry_behind_non_neighbour(self, line_tree):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        network.subscribe(_all(), 4, "s1")
        network.table(2).install(99, "s1#Temp", _all())
        assert check_routing_entries(network).has("COS403")

    def test_unsubscribe_leaves_no_orphans(self, line_tree):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        sid = network.subscribe(_all(), 4)
        network.unsubscribe(sid)
        assert check_routing_entries(network).is_clean


class TestCheckNetwork:
    def test_redundant_entries_warn(self, line_tree):
        network = _network(line_tree)
        network.advertise("Temp", 0, _schema())
        network.subscribe(_all(), 4, "broad")
        network.subscribe(_all(), 4, "narrow")
        report = check_network(network)
        assert report.has("COS203")
        assert report.exit_code() == 0
