"""The processor node model."""

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.network import ContentBasedNetwork
from repro.core.grouping import GroupingDecision
from repro.cql.parser import parse_query
from repro.spe.wrappers import ListDataWrapper, TextQueryWrapper
from repro.system.node import Processor
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)


class TestStandaloneProcessor:
    def test_accept_and_process(self, auction_catalog):
        proc = Processor(1, auction_catalog)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        assert proc.query_count == 1
        results = proc.on_source_data(
            Datagram(
                "OpenAuction",
                {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
                0.0,
            )
        )
        assert results == []  # joins need the closing event
        results = proc.on_source_data(
            Datagram("ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 60.0}, 60.0)
        )
        assert len(results) == 1

    def test_accept_returns_the_optimizers_decision(self, auction_catalog):
        proc = Processor(1, auction_catalog)
        decision = proc.accept(parse_query(TABLE1_Q1), name="q1")
        assert isinstance(decision, GroupingDecision)
        assert decision.created_group and decision.query.name == "q1"
        assert proc.manager.grouping.group_of("q1") is decision.group

    def test_merged_queries_count_as_one_group(self, sensor_catalog):
        # The load manager's unit (SystemMonitor.processor_loads reads it):
        # two queries that merge are one group of work, not two.
        proc = Processor(0, sensor_catalog)
        proc.accept(parse_query("SELECT T.station FROM Temp [Now] T"), name="a")
        proc.accept(parse_query("SELECT T.station FROM Temp [Now] T"), name="b")
        assert proc.query_count == 2
        assert proc.group_count == 1

    def test_group_scoped_feed(self, auction_catalog):
        proc = Processor(1, auction_catalog)
        sub = proc.accept(parse_query(TABLE1_Q1), name="q1")
        group_id = sub.group.group_id
        out = proc.on_source_data(
            Datagram("OpenAuction", {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0}, 0.0),
            group_id,
        )
        assert out == []
        # Unknown group ids are ignored (subscription raced a withdrawal).
        assert proc.on_source_data(
            Datagram("ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 1.0}, 1.0),
            "g-does-not-exist",
        ) == []


class TestNetworkedProcessor:
    def test_subscriptions_installed(self, line_tree, auction_catalog):
        network = ContentBasedNetwork(line_tree)
        network.advertise("OpenAuction", 0, OPEN_AUCTION_SCHEMA)
        network.advertise("ClosedAuction", 0, CLOSED_AUCTION_SCHEMA)
        proc = Processor(2, auction_catalog, network=network)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        # The processor's source subscription now routes auction data.
        deliveries = network.publish(
            Datagram("OpenAuction", {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0}, 0.0),
            0,
        )
        assert any(d.node == 2 for d in deliveries)

    def test_group_change_replaces_subscription(self, line_tree, auction_catalog):
        network = ContentBasedNetwork(line_tree)
        network.advertise("OpenAuction", 0, OPEN_AUCTION_SCHEMA)
        network.advertise("ClosedAuction", 0, CLOSED_AUCTION_SCHEMA)
        proc = Processor(2, auction_catalog, network=network)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        count_after_first = network.subscription_count
        proc.accept(parse_query(TABLE1_Q2), name="q2")
        # Same group: the source subscription was replaced, not added.
        assert network.subscription_count == count_after_first

    def test_result_stream_advertised(self, line_tree, auction_catalog):
        network = ContentBasedNetwork(line_tree)
        network.advertise("OpenAuction", 0, OPEN_AUCTION_SCHEMA)
        network.advertise("ClosedAuction", 0, CLOSED_AUCTION_SCHEMA)
        proc = Processor(2, auction_catalog, network=network)
        sub = proc.accept(parse_query(TABLE1_Q1), name="q1")
        assert network.publishers_of(proc.manager.result_stream_of(sub.group)) == [2]


class TestWrapperIntegration:
    def test_text_query_wrapper_used(self, auction_catalog):
        proc = Processor(1, auction_catalog, query_wrapper=TextQueryWrapper())
        sub = proc.accept(parse_query(TABLE1_Q1), name="q1")
        assert sub.query.name == "q1"
        assert proc.query_count == 1

    def test_custom_data_wrapper_roundtrip(self, auction_catalog):
        wrapper = ListDataWrapper(["itemID", "sellerID", "start_price", "timestamp"])
        proc = Processor(1, auction_catalog, data_wrapper=wrapper)
        proc.accept(parse_query("SELECT O.itemID FROM OpenAuction O"), name="q")
        out = proc.on_source_data(
            Datagram(
                "OpenAuction",
                {"itemID": 5, "sellerID": 1, "start_price": 2.0, "timestamp": 0.0},
                0.0,
            )
        )
        assert len(out) == 1
        assert out[0].payload["OpenAuction.itemID"] == 5
