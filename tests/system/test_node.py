"""The processor node model."""

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.network import ContentBasedNetwork, Delivery
from repro.core.cost import CostModel
from repro.core.grouping import GroupingDecision, GroupingOptimizer
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.spe.engine import StreamProcessingEngine
from repro.system.node import Processor
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)


def auction_network(tree):
    network = ContentBasedNetwork(tree)
    network.advertise("OpenAuction", 0, OPEN_AUCTION_SCHEMA)
    network.advertise("ClosedAuction", 0, CLOSED_AUCTION_SCHEMA)
    return network


def feed(proc, network, datagram):
    """Route ``datagram`` from broker 0; the processor's share goes in."""
    share = [d for d in network.publish_many([datagram], 0)[0] if d.node == proc.node_id]
    return proc.on_source_batch(share)


class TestStandaloneProcessor:
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
        assert proc.manager.grouping.query_count == 2
        assert proc.manager.grouping.group_count == 1


class TestNetworkedProcessor:
    def test_accept_and_process(self, line_tree, auction_catalog):
        network = auction_network(line_tree)
        proc = Processor(2, auction_catalog, network=network)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        assert proc.manager.grouping.query_count == 1
        results = feed(proc, network, Datagram(
            "OpenAuction",
            {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
            0.0,
        ))
        assert results == []  # joins need the closing event
        results = feed(proc, network, Datagram(
            "ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 60.0}, 60.0
        ))
        assert len(results) == 1

    def test_a_delivery_for_no_source_subscription_is_skipped(
        self, line_tree, auction_catalog
    ):
        # A subscription that raced a withdrawal: nothing reaches the SPE.
        network = auction_network(line_tree)
        proc = Processor(2, auction_catalog, network=network)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        stale = Datagram("ClosedAuction", {"itemID": 1, "buyerID": 2, "timestamp": 60.0}, 60.0)
        assert proc.on_source_batch([Delivery("src:2:gone:1", 2, stale)]) == []
        # the engine's clock did not move: an earlier tuple still goes in
        assert feed(proc, network, Datagram(
            "OpenAuction",
            {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0},
            0.0,
        )) == []

    def test_subscriptions_installed(self, line_tree, auction_catalog):
        network = ContentBasedNetwork(line_tree)
        network.advertise("OpenAuction", 0, OPEN_AUCTION_SCHEMA)
        network.advertise("ClosedAuction", 0, CLOSED_AUCTION_SCHEMA)
        proc = Processor(2, auction_catalog, network=network)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        # The processor's source subscription now routes auction data.
        deliveries = network.publish_many([Datagram("OpenAuction", {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0}, 0.0)], 0)[0]
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


class TestEngineBoundary:
    """A processor talks to its SPE in datagrams and query ASTs."""

    def test_a_delivered_datagram_reaches_the_engine_as_it_is(
        self, line_tree, auction_catalog, monkeypatch
    ):
        network = auction_network(line_tree)
        proc = Processor(2, auction_catalog, network=network)
        proc.accept(parse_query("SELECT O.itemID FROM OpenAuction O"), name="q")
        pushed = []
        push_to = proc.spe.push_to
        monkeypatch.setattr(proc.spe, "push_to", lambda name, datagram: (
            pushed.append(datagram) or push_to(name, datagram)))
        share = [d for d in network.publish_many([Datagram(
            "OpenAuction",
            {"itemID": 5, "sellerID": 1, "start_price": 2.0, "timestamp": 0.0},
            0.0,
        )], 0)[0] if d.node == 2]
        out = proc.on_source_batch(share)
        assert [d.datagram for d in share] == pushed
        assert all(a is b for a, b in zip(pushed, (d.datagram for d in share)))
        assert [r.payload["OpenAuction.itemID"] for r in out] == [5]

    def test_the_accepted_query_is_the_one_grouped(self, auction_catalog):
        proc = Processor(1, auction_catalog)
        query = parse_query(TABLE1_Q1)
        decision = proc.accept(query, name="q1")
        assert decision.query.name == "q1"
        assert proc.manager.grouping.group_of("q1").members == [decision.query]


class TestSPEState:
    """What a group installs on the processor's SPE."""

    def test_spe_runs_single_representative(self, auction_catalog):
        proc = Processor(1, auction_catalog)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        proc.accept(parse_query(TABLE1_Q2), name="q2")
        assert len(sorted(proc.spe._queries)) == 1

    def test_result_schema_provided(self, auction_catalog):
        # What the processor advertises: the SPE's schema of the
        # registered representative, named by the group's result stream.
        proc = Processor(1, auction_catalog)
        sub = proc.accept(parse_query(TABLE1_Q1), name="q1")
        schema = proc.spe.result_schema_of(proc.engine_name_of(sub.group.group_id))
        assert schema.name == proc.manager.result_stream_of(sub.group)
        assert schema.has_attribute("OpenAuction.itemID")

    def test_withdraw_last_member_deregisters(self, auction_catalog):
        proc = Processor(1, auction_catalog)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        assert proc.withdraw("q1") is None
        assert sorted(proc.spe._queries) == []
        assert proc.engine_name_of("g0") is None

    def test_withdraw_member_runs_the_recomposed_representative(
        self, auction_catalog
    ):
        proc = Processor(1, auction_catalog)
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        proc.accept(parse_query(TABLE1_Q2), name="q2")
        group = proc.withdraw("q2")
        assert [q.name for q in group.members] == ["q1"]
        # The SPE now runs the recomposed (narrower) representative.
        assert sorted(proc.spe._queries) == [proc.engine_name_of(group.group_id)]

    def test_merging_disabled_runs_a_query_each(self, auction_catalog):
        proc = Processor(
            1,
            auction_catalog,
            grouping=GroupingOptimizer(
                auction_catalog, CostModel(), merging=False
            ),
        )
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        proc.accept(parse_query(TABLE1_Q2), name="q2")
        assert proc.manager.grouping.group_count == 2
        assert len(sorted(proc.spe._queries)) == 2


class TestEndToEndThroughProcessor:
    def test_split_profiles_reproduce_member_results(self, auction_catalog):
        proc = Processor(1, auction_catalog)
        manager = proc.manager
        proc.accept(parse_query(TABLE1_Q1), name="q1")
        sub = proc.accept(parse_query(TABLE1_Q2), name="q2")
        profiles = manager.result_profiles_of(sub.group)
        p1, p2 = profiles["q1"], profiles["q2"]
        result_stream = manager.result_stream_of(sub.group)

        feed = [
            Datagram("OpenAuction", {"itemID": 1, "sellerID": 2, "start_price": 5.0, "timestamp": 0.0}, 0.0),
            Datagram("ClosedAuction", {"itemID": 1, "buyerID": 7, "timestamp": 7200.0}, 7200.0),   # 2h: q1+q2
            Datagram("OpenAuction", {"itemID": 2, "sellerID": 2, "start_price": 5.0, "timestamp": 8000.0}, 8000.0),
            Datagram("ClosedAuction", {"itemID": 2, "buyerID": 8, "timestamp": 23000.0}, 23000.0),  # ~4.2h: q2 only
        ]
        split = {"q1": 0, "q2": 0}
        for datagram in feed:
            for result in proc.spe.push(datagram):
                out = Datagram(result_stream, result.datagram.payload, result.datagram.timestamp, result.datagram.seq)
                for name, profile in (("q1", p1), ("q2", p2)):
                    if profile.apply(out) is not None:
                        split[name] += 1
        assert split == {"q1": 1, "q2": 2}


INSTALLS = (
    (StreamProcessingEngine, "register"),
    (StreamProcessingEngine, "deregister"),
    (ContentBasedNetwork, "subscribe"),
    (ContentBasedNetwork, "unsubscribe"),
    (ContentBasedNetwork, "advertise"),
)


class TestCommit:
    """``Processor.commit`` keeps what is equal, replaces what changed
    and drops what is gone — counted at the SPE and the CBN."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {name: 0 for __, name in INSTALLS}

        def counting(name, original):
            def call(self, *args, **kwargs):
                counts[name] += 1
                return original(self, *args, **kwargs)
            return call

        for cls, name in INSTALLS:
            monkeypatch.setattr(cls, name, counting(name, getattr(cls, name)))
        return counts

    @pytest.fixture
    def proc(self, line_tree, sensor_catalog):
        network = ContentBasedNetwork(line_tree)
        for schema in sensor_catalog:
            network.advertise(schema.name, 0, schema)
        return Processor(2, sensor_catalog, network=network)

    @staticmethod
    def reset(calls):
        for name in calls:
            calls[name] = 0

    def test_an_identical_join_installs_nothing(self, proc, calls):
        text = "SELECT T.station FROM Temp [Now] T WHERE T.temperature > 10"
        first = proc.accept(parse_query(text), name="a")
        engine_name = proc.engine_name_of(first.group.group_id)
        self.reset(calls)
        second = proc.accept(parse_query(text), name="b")
        assert second.group is first.group
        assert calls == dict.fromkeys(calls, 0)
        assert proc.engine_name_of(first.group.group_id) == engine_name

    def test_a_widening_join_replaces_each_once(self, proc, calls):
        first = proc.accept(
            parse_query(
                "SELECT T.station, T.temperature FROM Temp [Now] T"
                " WHERE T.temperature > 20"
            ),
            name="a",
        )
        rep = first.group.representative
        self.reset(calls)
        second = proc.accept(
            parse_query(
                "SELECT T.station, T.temperature FROM Temp [Now] T"
                " WHERE T.temperature > 10"
            ),
            name="b",
        )
        assert second.group is first.group and second.group.representative != rep
        assert calls == {
            "register": 1, "deregister": 1,
            "subscribe": 1, "unsubscribe": 1, "advertise": 1,
        }

    def test_the_last_withdraw_drops_both(self, proc, calls):
        proc.accept(
            parse_query("SELECT T.station FROM Temp [Now] T WHERE T.temperature > 10"),
            name="a",
        )
        self.reset(calls)
        assert proc.withdraw("a") is None
        assert calls == {
            "register": 0, "deregister": 1,
            "subscribe": 0, "unsubscribe": 1, "advertise": 0,
        }
        assert sorted(proc.spe._queries) == []
        assert not any(
            sid.startswith("src:") for sid in proc.network.subscriptions()
        )

    def test_a_widened_schema_replaces_a_star_registration(
        self, proc, calls, sensor_catalog
    ):
        text = "SELECT T.* FROM Temp [Now] T WHERE T.temperature > 10"
        first = proc.accept(parse_query(text), name="a")
        group_id = first.group.group_id
        temp = sensor_catalog.get("Temp")
        sensor_catalog.register(
            StreamSchema(
                "Temp",
                temp.attributes + (Attribute("pressure", "float", 900.0, 1100.0),),
                rate=temp.rate,
            )
        )
        self.reset(calls)
        # The representative is value-equal; the schema of its stream moved.
        proc.accept(parse_query(text), name="b")
        assert (calls["register"], calls["deregister"]) == (1, 1)
        schema = proc.spe.result_schema_of(proc.engine_name_of(group_id))
        assert schema.has_attribute("Temp.pressure")
