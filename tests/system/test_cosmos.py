"""The end-to-end COSMOS system facade."""

import pytest

from repro.cql.ast import QueryError
from repro.system.cosmos import CosmosSystem, SystemError_
from repro.system.distribution import (
    RoundRobinDistribution,
    StreamAffinityDistribution,
)
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)


@pytest.fixture
def system(line_tree):
    sys_ = CosmosSystem(line_tree, processor_nodes=[2])
    sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
    sys_.add_source(CLOSED_AUCTION_SCHEMA, 0)
    return sys_


def open_auction(system, item, ts, seller=1, price=10.0):
    return system.publish(
        "OpenAuction",
        {"itemID": item, "sellerID": seller, "start_price": price, "timestamp": ts},
        ts,
    )


def close_auction(system, item, ts, buyer=9):
    return system.publish(
        "ClosedAuction", {"itemID": item, "buyerID": buyer, "timestamp": ts}, ts
    )


class TestSubmission:
    def test_submit_text_query(self, system):
        handle = system.submit(TABLE1_Q1, user_node=4, name="q1")
        assert handle.processor_node == 2
        assert handle.result_stream.endswith(":results")

    def test_duplicate_name_rejected(self, system):
        system.submit(TABLE1_Q1, user_node=4, name="q1")
        with pytest.raises(SystemError_):
            system.submit(TABLE1_Q2, user_node=4, name="q1")

    def test_unknown_user_node(self, system):
        with pytest.raises(SystemError_):
            system.submit(TABLE1_Q1, user_node=77)

    def test_unknown_stream_source(self, system):
        with pytest.raises(SystemError_):
            system.source_node("Nope")

    def test_grouping_summary(self, system):
        system.submit(TABLE1_Q1, user_node=4, name="q1")
        system.submit(TABLE1_Q2, user_node=3, name="q2")
        summary = system.grouping_summary()
        assert summary["queries"] == 2.0
        assert summary["groups"] == 1.0
        assert summary["benefit_ratio"] > 0


class TestMalformedQueryRejected:
    """Outside input is validated on every submit: a malformed query
    raises before anything is installed anywhere."""

    WELL_FORMED = "SELECT T.station FROM Temp [Now] T WHERE T.temperature > 30"

    @pytest.fixture
    def sensors(self, line_tree, sensor_catalog):
        system = CosmosSystem(line_tree, processor_nodes=[2])
        for index, schema in enumerate(sorted(sensor_catalog, key=lambda s: s.name)):
            system.add_source(schema, index % 2)
        system.submit(self.WELL_FORMED, user_node=4, name="ok")
        return system

    @staticmethod
    def state(system):
        network = system.network
        return (
            [handle.query_id for handle in system.queries],
            system.grouping_summary(),
            system.processors[2].spe.query_names,
            network.subscription_count,
            network.routing_state_size(),
            network.routing_epoch,
        )

    @pytest.mark.parametrize(
        "text",
        [
            "SELECT X.station FROM Nope [Now] X",
            "SELECT T.bogus FROM Temp [Now] T",
            "SELECT T.station FROM Temp [Now] T WHERE T.bogus > 3",
            "SELECT AVG(T.temperature) FROM Temp [Range 10 Second] T GROUP BY T.bogus",
            "SELECT T.station FROM Temp [Now] T, Wind [Now] W WHERE T.station = W.bogus",
            "SELECT Z.station FROM Temp [Now] T",
            "SELECT AVG(T.bogus) FROM Temp [Range 10 Second] T",
            "SELECT T.station FROM Temp [Now] T, Wind [Now] T",
        ],
        ids=[
            "stream", "attribute", "where-term", "group-by-key", "join-key",
            "qualifier", "aggregate-argument", "duplicate-reference",
        ],
    )
    def test_rejected_before_anything_is_installed(self, sensors, text):
        before = self.state(sensors)
        with pytest.raises(QueryError):
            sensors.submit(text, user_node=4, name="bad")
        assert self.state(sensors) == before

    def test_unsatisfiable_but_well_formed_is_accepted(self, sensors):
        # it just never produces results; repro check flags it (COS201)
        sensors.submit(
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.temperature > 30 AND T.temperature < 10",
            user_node=4,
        )
        assert len(sensors.queries) == 2


class TestDataFlow:
    def test_end_to_end_delivery(self, system):
        h1 = system.submit(TABLE1_Q1, user_node=4, name="q1")
        open_auction(system, 1, 0.0)
        deliveries = close_auction(system, 1, 3600.0)
        assert len(deliveries) == 1
        assert h1.result_count == 1
        payload = dict(h1.results[0].payload)
        assert payload["OpenAuction.itemID"] == 1

    def test_window_split_between_members(self, system):
        h1 = system.submit(TABLE1_Q1, user_node=4, name="q1")
        h2 = system.submit(TABLE1_Q2, user_node=3, name="q2")
        open_auction(system, 1, 0.0)
        close_auction(system, 1, 2 * 3600.0)    # 2h: both
        open_auction(system, 2, 3 * 3600.0)
        close_auction(system, 2, 7.5 * 3600.0)  # 4.5h: only q2
        assert h1.result_count == 1
        assert h2.result_count == 2

    def test_projection_per_member(self, system):
        h2 = system.submit(TABLE1_Q2, user_node=3, name="q2")
        open_auction(system, 1, 0.0)
        close_auction(system, 1, 60.0)
        payload = dict(h2.results[0].payload)
        assert set(payload) == {
            "OpenAuction.itemID",
            "OpenAuction.timestamp",
            "ClosedAuction.buyerID",
            "ClosedAuction.timestamp",
        }

    def test_no_queries_no_delivery(self, system):
        assert open_auction(system, 1, 0.0) == []

    def test_replay_counts_deliveries(self, system):
        from repro.cbn.datagram import Datagram

        system.submit(TABLE1_Q2, user_node=4, name="q2")
        feed = [
            Datagram("OpenAuction", {"itemID": 1, "sellerID": 1, "start_price": 1.0, "timestamp": 0.0}, 0.0),
            Datagram("ClosedAuction", {"itemID": 1, "buyerID": 1, "timestamp": 10.0}, 10.0),
        ]
        assert system.replay(feed) == 1

    def test_data_cost_accumulates(self, system):
        system.submit(TABLE1_Q1, user_node=4, name="q1")
        open_auction(system, 1, 0.0)
        close_auction(system, 1, 60.0)
        assert system.data_cost() > 0


class TestWithdraw:
    def test_withdraw_stops_delivery(self, system):
        system.submit(TABLE1_Q1, user_node=4, name="q1")
        system.withdraw("q1")
        open_auction(system, 1, 0.0)
        assert close_auction(system, 1, 60.0) == []

    def test_withdraw_member_keeps_other(self, system):
        system.submit(TABLE1_Q1, user_node=4, name="q1")
        h2 = system.submit(TABLE1_Q2, user_node=3, name="q2")
        system.withdraw("q1")
        open_auction(system, 1, 0.0)
        close_auction(system, 1, 60.0)
        assert h2.result_count == 1

    def test_withdraw_unknown(self, system):
        with pytest.raises(SystemError_):
            system.withdraw("zzz")


class TestResultSubscription:
    """The one attach/detach every quarantine/heal/refresh path uses."""

    def user_subscriptions(self, system):
        return [s for s in system.network.subscriptions() if s.startswith("user:")]

    def test_detach_stops_delivery_and_is_idempotent(self, system):
        handle = system.submit(TABLE1_Q1, user_node=4, name="q1")
        system.detach_result_subscription("q1")
        system.detach_result_subscription("q1")
        assert self.user_subscriptions(system) == []
        open_auction(system, 1, 0.0)
        close_auction(system, 1, 60.0)
        assert handle.result_count == 0

    def test_attach_resumes_under_a_fresh_versioned_id(self, system):
        handle = system.submit(TABLE1_Q1, user_node=4, name="q1")
        (first,) = self.user_subscriptions(system)
        processor = system.processors[2]
        group = processor.manager.grouping.group_of("q1")
        system.detach_result_subscription("q1")
        system.attach_result_subscription(
            "q1", processor.manager.result_profiles_of(group)["q1"]
        )
        (second,) = self.user_subscriptions(system)
        assert second != first and second.startswith("user:q1:v")
        assert system.network.subscriptions()[second][0] == 4
        open_auction(system, 1, 0.0)
        close_auction(system, 1, 60.0)
        assert handle.result_count == 1


class TestDeliveryDispatch:
    def test_query_name_may_contain_a_colon(self, system):
        # Deliveries are dispatched from the subscription registries,
        # never by splitting ``user:<query>:v<n>`` / ``src:<node>:<group>:<n>``.
        handle = system.submit(TABLE1_Q1, user_node=4, name="alice:q1")
        open_auction(system, 1, 0.0)
        deliveries = close_auction(system, 1, 60.0)
        assert len(deliveries) == 1
        assert handle.results == [deliveries[0].datagram]
        system.withdraw("alice:q1")
        assert system.network.subscriptions() == {}


class TestMergingToggle:
    def test_non_merging_system_runs_queries_separately(self, line_tree):
        sys_ = CosmosSystem(line_tree, processor_nodes=[2], merging=False)
        sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
        sys_.add_source(CLOSED_AUCTION_SCHEMA, 0)
        sys_.submit(TABLE1_Q1, user_node=4, name="q1")
        sys_.submit(TABLE1_Q2, user_node=3, name="q2")
        assert sys_.grouping_summary()["groups"] == 2.0

    def test_merging_and_non_merging_agree_on_results(self, line_tree):
        def build(merging):
            sys_ = CosmosSystem(line_tree, processor_nodes=[2], merging=merging)
            sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
            sys_.add_source(CLOSED_AUCTION_SCHEMA, 0)
            h1 = sys_.submit(TABLE1_Q1, user_node=4, name="q1")
            h2 = sys_.submit(TABLE1_Q2, user_node=3, name="q2")
            open_auction(sys_, 1, 0.0)
            close_auction(sys_, 1, 3600.0)
            open_auction(sys_, 2, 4000.0)
            close_auction(sys_, 2, 4000.0 + 4 * 3600.0)
            return h1.result_count, h2.result_count

        assert build(True) == build(False) == (1, 2)


class TestProcessorPlacement:
    def test_processor_not_in_tree_rejected(self, line_tree):
        with pytest.raises(SystemError_):
            CosmosSystem(line_tree, processor_nodes=[99])

    def test_default_policy_is_stream_affinity(self, line_tree):
        sys_ = CosmosSystem(line_tree, processor_nodes=[1, 3])
        assert isinstance(sys_.distribution, StreamAffinityDistribution)

    def test_policy_swapped_after_construction_places_queries(self, line_tree):
        # The placement ablation reassigns ``distribution`` on a built system.
        sys_ = CosmosSystem(line_tree, processor_nodes=[1, 3])
        sys_.add_source(OPEN_AUCTION_SCHEMA, 0)
        sys_.distribution = RoundRobinDistribution()
        placed = [
            sys_.submit(
                f"SELECT O.itemID FROM OpenAuction O WHERE O.sellerID = {i}", 4
            ).processor_node
            for i in range(4)
        ]
        assert placed == [1, 3, 1, 3]


class TestWithdrawRefreshesSurvivors:
    def test_surviving_member_keeps_receiving(self, line_tree):
        """Regression: withdrawing a member narrows the representative;
        the survivors' result subscriptions must be recomposed or their
        old re-tightening filters reference attributes the new result
        stream no longer carries."""
        from repro.cql.schema import Attribute, StreamSchema

        schema = StreamSchema(
            "Temp",
            [
                Attribute("station", "int", 0, 9),
                Attribute("humidity", "float", 0, 100),
                Attribute("temperature", "float", -20, 40),
            ],
            rate=1.0,
        )
        sys_ = CosmosSystem(line_tree, processor_nodes=[2])
        sys_.add_source(schema, 0)
        sys_.submit(
            "SELECT T.station, T.humidity FROM Temp T WHERE T.temperature >= 10",
            user_node=4,
            name="a",
        )
        hb = sys_.submit(
            "SELECT T.station, T.humidity FROM Temp T WHERE T.temperature >= 12",
            user_node=3,
            name="b",
        )
        assert sys_.grouping_summary()["groups"] == 1  # they merged
        sys_.publish("Temp", {"station": 1, "humidity": 50.0, "temperature": 35.0}, 0.0)
        assert hb.result_count == 1
        sys_.withdraw("a")
        sys_.publish("Temp", {"station": 2, "humidity": 51.0, "temperature": 36.0}, 1.0)
        sys_.publish("Temp", {"station": 3, "humidity": 52.0, "temperature": 11.0}, 2.0)
        assert hb.result_count == 2  # got the hot one, not the 11° one
        payloads = [dict(r.payload) for r in hb.results]
        assert all(set(p) == {"Temp.station", "Temp.humidity"} for p in payloads)


class TestNullAggregates:
    def test_tuple_lacking_the_aggregated_attribute_through_a_merged_pair(
        self, line_tree
    ):
        """``publish`` validates no payload: a tuple without the
        aggregated attribute is SQL NULL to ``AVG`` (it used to raise a
        bare ValueError out of ``publish``), and the next complete tuple
        aggregates over exactly the values present."""
        from repro.cql.schema import Attribute, StreamSchema

        sys_ = CosmosSystem(line_tree, processor_nodes=[2])
        sys_.add_source(
            StreamSchema(
                "S", [Attribute("k", "int", 0, 9), Attribute("v", "float", 0, 100)], rate=1.0
            ),
            0,
        )
        text = (
            "SELECT S.k, AVG(S.v) AS a, COUNT(S.v) AS n FROM S [Range 10 Second] S "
            "WHERE S.k >= {} GROUP BY S.k"
        )
        every = sys_.submit(text.format(0), user_node=4, name="every")
        some = sys_.submit(text.format(2), user_node=3, name="some")
        assert sys_.grouping_summary()["groups"] == 1  # they merged
        feed = [{"k": 1}, {"k": 3}, {"k": 3, "v": 4.0}, {"k": 3}, {"k": 3, "v": 8.0}]
        for ts, payload in enumerate(feed):
            sys_.publish("S", payload, float(ts))
        k3 = [
            {"S.k": 3, "n": 0},
            {"S.k": 3, "a": 4.0, "n": 1},
            {"S.k": 3, "a": 4.0, "n": 1},
            {"S.k": 3, "a": 6.0, "n": 2},
        ]
        assert [dict(r.payload) for r in every.results] == [{"S.k": 1, "n": 0}] + k3
        assert [dict(r.payload) for r in some.results] == k3
