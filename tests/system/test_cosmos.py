"""The end-to-end COSMOS system facade."""

import pytest

from repro.cbn.datagram import Datagram
from repro.cql.ast import ContinuousQuery, QueryError
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.spe.engine import StreamProcessingEngine
from repro.system.cosmos import CosmosSystem, SystemError_
from repro.system.distribution import (
    CostAwareDistribution,
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


#: Texts with an error of every kind ``query_problems`` reports.
MALFORMED = [
    "SELECT X.station FROM Nope [Now] X",
    "SELECT T.bogus FROM Temp [Now] T",
    "SELECT T.station FROM Temp [Now] T WHERE T.bogus > 3",
    "SELECT AVG(T.temperature) FROM Temp [Range 10 Second] T GROUP BY T.bogus",
    "SELECT T.station FROM Temp [Now] T, Wind [Now] W WHERE T.station = W.bogus",
    "SELECT Z.station FROM Temp [Now] T",
    "SELECT AVG(T.bogus) FROM Temp [Range 10 Second] T",
    "SELECT T.station FROM Temp [Now] T, Wind [Now] T",
    "SELECT T.station FROM Temp [Now] T WHERE T.station = 'abc'",
    "SELECT T.station FROM Temp [Now] T WHERE T.station > 'abc'",
    "SELECT G.label FROM Tag [Now] G WHERE G.label > 3",
    "SELECT T.station FROM Temp [Now] T, Tag [Now] G WHERE T.station = G.label",
    "SELECT T.station FROM Temp [Now] T, Tag [Now] G "
    "WHERE G.label - T.timestamp < 5",
    "SELECT SUM(G.label) AS n FROM Tag [Range 10 Second] G",
    "SELECT T.station FROM Temp [Now] T WHERE T.temperature BETWEEN 30 AND 10",
    "SELECT T.station FROM Temp [Now] T WHERE T.station = 3 AND T.station != 3",
    "SELECT T.station FROM Temp [Now] T, Wind [Now] W "
    "WHERE T.timestamp - W.timestamp > 5 AND W.timestamp - T.timestamp > 5",
]
MALFORMED_IDS = [
    "stream", "attribute", "where-term", "group-by-key", "join-key",
    "qualifier", "aggregate-argument", "duplicate-reference",
    "string-on-numeric", "string-bound-on-numeric", "number-on-string",
    "mixed-type-equijoin", "difference-on-string", "sum-of-string",
    "unsatisfiable-bounds", "unsatisfiable-exclusion", "unsatisfiable-differences",
]


class TestMalformedQueryRejected:
    """Outside input is validated on every submit: a query with an error
    (an unknown name, a constraint its attribute's type cannot meet, a
    WHERE clause nothing satisfies) raises before anything is installed
    anywhere."""

    WELL_FORMED = "SELECT T.station FROM Temp [Now] T WHERE T.temperature > 30"
    #: a stream with a string attribute, for the type errors
    TAG = StreamSchema(
        "Tag",
        [Attribute("station", "int", 0, 9), Attribute("label", "str"),
         Attribute("timestamp", "timestamp")],
    )

    @pytest.fixture
    def sensors(self, line_tree, sensor_catalog):
        system = CosmosSystem(line_tree, processor_nodes=[2])
        for index, schema in enumerate(sorted(sensor_catalog, key=lambda s: s.name)):
            system.add_source(schema, index % 2)
        system.add_source(self.TAG, 0)
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

    @pytest.mark.parametrize("text", MALFORMED, ids=MALFORMED_IDS)
    def test_rejected_before_anything_is_installed(self, sensors, text):
        before = self.state(sensors)
        with pytest.raises(QueryError):
            sensors.submit(text, user_node=4, name="bad")
        assert self.state(sensors) == before

    @pytest.mark.parametrize("text", MALFORMED, ids=MALFORMED_IDS)
    def test_rejected_before_a_priced_placement(self, sensors, text):
        """A placement policy that prices the query reads only admitted
        ones: validation runs before ``distribution.choose``."""
        sensors.distribution = CostAwareDistribution(
            sensors.tree, sensors.catalog, sensors.sources
        )
        before = self.state(sensors)
        with pytest.raises(QueryError):
            sensors.submit(text, user_node=4, name="bad")
        assert self.state(sensors) == before

    def test_a_query_is_validated_once_on_submit(self, sensors, monkeypatch):
        calls = []
        validate = ContinuousQuery.validate

        def counted(query, catalog):
            calls.append(query.name)
            return validate(query, catalog)

        monkeypatch.setattr(ContinuousQuery, "validate", counted)
        sensors.submit(
            "SELECT T.station FROM Temp [Now] T WHERE T.temperature > 35",
            user_node=3, name="once",
        )
        # once at admission; the engine validates the representative it
        # registers, which is a query of its own
        assert calls.count("once") == 1

    def test_unsatisfiable_query_is_refused(self, sensors):
        # it could never produce a result: no group, no src: subscription,
        # no result advertisement
        before = self.state(sensors)
        with pytest.raises(QueryError, match="never be satisfied"):
            sensors.submit(
                "SELECT T.station FROM Temp [Now] T "
                "WHERE T.temperature > 30 AND T.temperature < 10",
                user_node=4,
            )
        assert self.state(sensors) == before

    def test_a_mistyped_query_does_not_poison_the_next(self, sensors):
        # admitted, 'abc' would widen a group's hull into a mixed-type
        # interval, and grouping the next query on the same stream would
        # raise from Conjunction.hull
        with pytest.raises(QueryError, match="compared against string"):
            sensors.submit(
                "SELECT T.station FROM Temp [Now] T WHERE T.station = 'abc'",
                user_node=4, name="mistyped",
            )
        for bound in ("T.station > 3", "T.station < 50"):
            sensors.submit(
                f"SELECT T.station FROM Temp [Now] T WHERE {bound}", user_node=4
            )
        assert len(sensors.queries) == 3


class TestDataFlow:
    def test_a_repeated_select_item_is_one_column(self, system):
        """COS104 warns about a repeated select item and does not refuse
        it: the query is installed and delivers what a bare engine
        emits, one column per output name."""
        text = "SELECT O.itemID, O.itemID FROM OpenAuction [Now] O"
        handle = system.submit(text, user_node=4, name="twice")
        assert [q.query_id for q in system.queries] == ["twice"]
        assert system.grouping_summary()["queries"] == 1.0
        open_auction(system, 7, 1.0)
        bare = StreamProcessingEngine(system.catalog)
        bare.register(parse_query(text), name="twice")
        (expected,) = bare.push(Datagram(
            "OpenAuction",
            {"itemID": 7, "sellerID": 1, "start_price": 10.0, "timestamp": 1.0},
            1.0,
        ))
        assert [list(d.payload.values()) for d in handle.results] == [
            list(expected.datagram.payload.values())
        ] == [[7]]

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


class TestCallerOwnsItsPayload:
    """A published payload dict stays its caller's: changing it after
    :meth:`publish` / :meth:`publish_batch` returns changes no datagram
    the CBN delivered (to a processor or a user), no handle result and
    no tuple a window holds.  The data plane takes over only the dicts
    it builds itself (``Datagram.owning``), never one a caller hands in."""

    QUERIES = {
        "all": "SELECT O.* FROM OpenAuction [Now] O",
        "join": TABLE1_Q1,
        "top": "SELECT MAX(O.start_price) AS top FROM OpenAuction [Range 1 Hour] O",
    }

    @pytest.fixture
    def delivered(self, system, monkeypatch):
        """Every datagram the CBN delivers, source and result alike."""
        seen = []
        route = system.network.publish_many

        def recorded(batch, node):
            out = route(batch, node)
            seen.extend(d.datagram for deliveries in out for d in deliveries)
            return out

        monkeypatch.setattr(system.network, "publish_many", recorded)
        return seen

    def submit_all(self, system):
        return {
            name: system.submit(text, user_node=4, name=name)
            for name, text in self.QUERIES.items()
        }

    @staticmethod
    def snapshot(system, delivered):
        return (
            [repr(d) for d in delivered],
            {h.query_id: [repr(r) for r in h.results] for h in system.queries},
        )

    @staticmethod
    def payloads():
        # the second is of the first's class: its route is replayed, and a
        # replay hands a delivery that keeps every attribute the origin's
        # datagram itself
        return [
            {"itemID": 2, "sellerID": 1, "start_price": 5.0, "timestamp": 0.0},
            {"itemID": 1, "sellerID": 1, "start_price": 10.0, "timestamp": 30.0},
        ]

    def check(self, system, handles, delivered, payloads):
        assert handles["all"].result_count == 2
        assert system.network.route_cache_stats()["hits"] > 0
        assert any(d.stream == "OpenAuction" for d in delivered)
        before = self.snapshot(system, delivered)
        for payload in payloads:
            payload.update(itemID=666, start_price=-1.0, bogus=1)
            del payload["sellerID"]
        assert self.snapshot(system, delivered) == before
        close_auction(system, 1, 60.0)  # joins the window's tuple
        assert [
            r.payload["OpenAuction.start_price"] for r in handles["join"].results
        ] == [10.0]
        assert [r.payload["top"] for r in handles["top"].results] == [5.0, 10.0]

    def test_publish(self, system, delivered):
        handles = self.submit_all(system)
        payloads = self.payloads()
        for payload in payloads:
            system.publish("OpenAuction", payload, payload["timestamp"])
        self.check(system, handles, delivered, payloads)

    def test_publish_batch(self, system, delivered):
        handles = self.submit_all(system)
        payloads = self.payloads()
        system.publish_batch("OpenAuction", [(p, p["timestamp"]) for p in payloads])
        self.check(system, handles, delivered, payloads)


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

    def test_second_attach_is_refused(self, system):
        # A second subscription would deliver every result twice and leave
        # the first one behind in the registries and the network.
        handle = system.submit(TABLE1_Q1, user_node=4, name="q1")
        (first,) = self.user_subscriptions(system)
        profile = system.network.subscriptions()[first][1]
        with pytest.raises(SystemError_):
            system.attach_result_subscription("q1", profile)
        assert self.user_subscriptions(system) == [first]
        assert system.subscriber_of(first) is handle
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
