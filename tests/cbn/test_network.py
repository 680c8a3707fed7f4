"""End-to-end CBN behaviour on small trees."""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn import network as network_module
from repro.cbn.network import ContentBasedNetwork, Delivery, NetworkError, entry_id
from repro.cbn.routing import RoutingTable
from repro.cql.predicates import Comparison, Conjunction
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.tree import DisseminationTree

from tests.reference_network import ReferenceNetwork


def cond(*atoms):
    return Conjunction.from_atoms(atoms)


SCHEMA = StreamSchema(
    "S",
    [Attribute("a", "int", 0, 100), Attribute("b", "float", 0, 1)],
    rate=1.0,
)


@pytest.fixture
def net(line_tree):
    network = ContentBasedNetwork(line_tree)
    network.advertise("S", 0, SCHEMA)
    return network


class TestSubscribePublish:
    def test_delivery_to_matching_subscriber(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        deliveries = net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert [d.subscription_id for d in deliveries] == ["u1"]
        assert deliveries[0].node == 4

    def test_no_delivery_when_filtered_out(self, net):
        p = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 50)))])
        net.subscribe(p, 4, "u1")
        assert net.publish_many([Datagram("S", {"a": 10, "b": 0.1})], 0)[0] == []

    def test_projection_applied_at_delivery(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        deliveries = net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert dict(deliveries[0].datagram.payload) == {"a": 1}

    def test_multiple_subscribers_each_get_own_view(self, net):
        net.subscribe(Profile({"S": {"a"}}), 2, "u1")
        net.subscribe(Profile({"S": {"b"}}), 4, "u2")
        deliveries = {d.subscription_id: d for d in net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]}
        assert dict(deliveries["u1"].datagram.payload) == {"a": 1}
        assert dict(deliveries["u2"].datagram.payload) == {"b": 0.5}

    def test_subscriber_at_publisher_node(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 0, "u1")
        deliveries = net.publish_many([Datagram("S", {"a": 1, "b": 0.2})], 0)[0]
        assert len(deliveries) == 1
        # Local delivery moves no bytes across links.
        assert net.data_stats.total_bytes() == 0

    def test_unsubscribe_stops_delivery(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.unsubscribe("u1")
        assert net.publish_many([Datagram("S", {"a": 1, "b": 0.1})], 0)[0] == []

    def test_unsubscribe_knows_no_id_prefixes(self, net):
        # "a"'s forwarding entries are keyed "a#S" — which is also a
        # legal subscription id; removal used to scan for the prefix.
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "a")
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 3, "a#S")
        net.unsubscribe("a")
        deliveries = net.publish_many([Datagram("S", {"a": 1, "b": 0.1})], 0)[0]
        assert [d.subscription_id for d in deliveries] == ["a#S"]
        net.unsubscribe("a#S")
        assert net.routing_state_size() == 0

    def test_multi_stream_profile_filters_per_stream(self, net):
        net.advertise("T", 0)
        profile = Profile(
            {"S": {"a"}, "T": {"a"}},
            [Filter("S", cond(Comparison("a", ">", 5)))],
        )
        net.subscribe(profile, 3, "u")
        assert net.publish_many([Datagram("S", {"a": 1})], 0)[0] == []      # filtered
        assert len(net.publish_many([Datagram("S", {"a": 9})], 0)[0]) == 1  # passes
        assert len(net.publish_many([Datagram("T", {"a": 1})], 0)[0]) == 1  # unconditional

    def test_forwarding_entries_keyed_by_entry_id(self, net):
        net.advertise("T", 0)
        net.subscribe(Profile({"S": ALL_ATTRIBUTES, "T": ALL_ATTRIBUTES}), 4, "u")
        assert list(net.table(4).entries(RoutingTable.LOCAL)) == ["u"]
        for node in (0, 1, 2, 3):
            assert set(net.table(node).entries(node + 1)) == {
                entry_id("u", "S"), entry_id("u", "T")
            }

    @pytest.mark.parametrize("sid", ["u", "q#1", "u#S"])
    def test_unsubscribe_clears_every_stream_entry(self, net, sid):
        net.advertise("T", 0)
        net.subscribe(Profile({"S": ALL_ATTRIBUTES, "T": ALL_ATTRIBUTES}), 4, sid)
        net.unsubscribe(sid)
        assert net.publish_many([Datagram("S", {"a": 1})], 0)[0] == []
        assert net.publish_many([Datagram("T", {"a": 1})], 0)[0] == []
        assert net.routing_state_size() == 0

    def test_duplicate_subscription_id_rejected(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        with pytest.raises(NetworkError):
            net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 3, "u1")

    def test_unknown_node_rejected(self, net):
        with pytest.raises(NetworkError):
            net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 99)
        with pytest.raises(NetworkError):
            net.publish_many([Datagram("S", {})], 99)[0]


class TestDeliveryValue:
    def test_fields_immutability_and_equality(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        (delivery,) = net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert Delivery._fields == ("subscription_id", "node", "datagram")
        assert delivery == Delivery("u1", 4, Datagram("S", {"a": 1}))
        assert hash(delivery) == hash(Delivery("u1", 4, Datagram("S", {"a": 1})))
        assert delivery != Delivery("u2", 4, Datagram("S", {"a": 1}))
        assert delivery != Delivery("u1", 3, Datagram("S", {"a": 1}))
        assert delivery != Delivery("u1", 4, Datagram("S", {"a": 2}))
        for name in Delivery._fields:
            with pytest.raises(AttributeError):
                setattr(delivery, name, None)


class TestTrafficAccounting:
    def test_bytes_counted_per_hop(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        # 4 hops from node 0 to node 4, a:int = 4 bytes each.
        assert net.data_stats.total_messages() == 4
        assert net.data_stats.total_bytes() == 16

    def test_early_projection_on_first_hop(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert net.data_stats.usage(0, 1).bytes == 4  # b already stripped

    def test_no_subscribers_no_traffic(self, net):
        net.publish_many([Datagram("S", {"a": 1})], 0)[0]
        assert net.data_stats.total_messages() == 0

    def test_shared_path_carries_union(self, star_tree):
        net = ContentBasedNetwork(star_tree)
        net.advertise("S", 1, SCHEMA)
        net.subscribe(Profile({"S": {"a"}}), 3, "u1")
        net.subscribe(Profile({"S": {"b"}}), 4, "u2")
        net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 1)[0]
        # Link 1->0 carries the union {a, b} once: 4 + 8 = 12 bytes.
        assert net.data_stats.usage(0, 1).bytes == 12
        assert net.data_stats.usage(0, 3).bytes == 4
        assert net.data_stats.usage(0, 4).bytes == 8

    def test_control_traffic_recorded(self, net):
        before = net.control_stats.total_messages()
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        assert net.control_stats.total_messages() > before


class TestAdvertisementScoping:
    def test_subscription_before_advertisement(self, line_tree):
        net = ContentBasedNetwork(line_tree)
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.advertise("S", 0, SCHEMA)  # late advertisement re-propagates
        deliveries = net.publish_many([Datagram("S", {"a": 1})], 0)[0]
        assert [d.subscription_id for d in deliveries] == ["u1"]

    def test_multiple_publishers(self, star_tree):
        net = ContentBasedNetwork(star_tree)
        net.advertise("S", 1, SCHEMA)
        net.advertise("S", 2, SCHEMA)
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 3, "u1")
        assert len(net.publish_many([Datagram("S", {"a": 1})], 1)[0]) == 1
        assert len(net.publish_many([Datagram("S", {"a": 2})], 2)[0]) == 1


class TestOverlappingProfiles:
    def test_covered_subscription_still_delivered(self, line_tree):
        net = ContentBasedNetwork(line_tree)
        net.advertise("S", 0, SCHEMA)
        broad = Profile({"S": ALL_ATTRIBUTES})
        narrow = Profile(
            {"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 50)))]
        )
        net.subscribe(broad, 4, "broad")
        net.subscribe(narrow, 4, "narrow")
        deliveries = net.publish_many([Datagram("S", {"a": 60, "b": 0.5})], 0)[0]
        assert {d.subscription_id for d in deliveries} == {"broad", "narrow"}

    def test_string_and_numeric_profiles_on_one_attribute_coexist(self, line_tree):
        """One attribute meets a string in one profile and a number in
        the others; neither covers the other, both are served."""
        net = ContentBasedNetwork(line_tree)
        net.advertise("S", 0, SCHEMA)
        for sid, value in (("numeric", 10), ("text", "x"), ("numeric2", 20)):
            op = "=" if isinstance(value, str) else ">"
            net.subscribe(
                Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", op, value)))]),
                4,
                sid,
            )
        for payload, expected in (({"a": 15}, {"numeric"}), ({"a": "x"}, {"text"})):
            deliveries = net.publish_many([Datagram("S", payload)], 0)[0]
            assert {d.subscription_id for d in deliveries} == expected


class TestOverlappingUnsubscribe:
    def test_covered_subscription_survives_coverers_departure(self, line_tree):
        """Removing a subscription takes only its own entries: an equal
        profile behind the same interfaces keeps its forwarding state."""
        net = ContentBasedNetwork(line_tree)
        net.advertise("S", 0, SCHEMA)
        profile = Profile(
            {"S": ALL_ATTRIBUTES},
            [Filter("S", cond(Comparison("a", ">=", 0)))],
        )
        net.subscribe(profile, 1, "coverer")
        net.subscribe(profile, 1, "covered")
        net.unsubscribe("coverer")
        deliveries = net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert [d.subscription_id for d in deliveries] == ["covered"]

    def test_chain_of_coverers(self, line_tree):
        net = ContentBasedNetwork(line_tree)
        net.advertise("S", 0, SCHEMA)
        broad = Profile({"S": ALL_ATTRIBUTES})
        narrow = Profile(
            {"S": ALL_ATTRIBUTES},
            [Filter("S", cond(Comparison("a", ">=", 0)))],
        )
        narrower = Profile(
            {"S": ALL_ATTRIBUTES},
            [Filter("S", cond(Comparison("a", ">=", 10)))],
        )
        net.subscribe(broad, 4, "u1")
        net.subscribe(narrow, 4, "u2")
        net.subscribe(narrower, 4, "u3")
        net.unsubscribe("u1")
        net.unsubscribe("u2")
        deliveries = net.publish_many([Datagram("S", {"a": 50, "b": 0.1})], 0)[0]
        assert [d.subscription_id for d in deliveries] == ["u3"]


class TestAdvertisementDedup:
    def test_duplicate_advertisement_not_recorded(self, net):
        net.advertise("S", 0, SCHEMA)
        assert net.publishers_of("S") == [0]

    def test_duplicate_advertisement_is_silent(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        state = net.routing_state_size()
        epoch = net.routing_epoch
        control = net.control_stats.total_bytes()
        net.advertise("S", 0, SCHEMA)
        assert net.routing_state_size() == state
        assert net.routing_epoch == epoch
        assert net.control_stats.total_bytes() == control

    def test_duplicate_advertisement_does_not_duplicate_delivery(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.advertise("S", 0, SCHEMA)
        deliveries = net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert [d.subscription_id for d in deliveries] == ["u1"]

    def test_same_stream_second_publisher_recorded(self, net):
        net.advertise("S", 4, SCHEMA)
        assert sorted(net.publishers_of("S")) == [0, 4]


class TestRouteCache:
    def test_epoch_tracks_routing_mutations(self, net):
        before = net.routing_epoch
        sid = net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4)
        after_subscribe = net.routing_epoch
        assert after_subscribe > before
        net.unsubscribe(sid)
        assert net.routing_epoch > after_subscribe

    def test_new_subscription_invalidates_cached_route(self, net):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]  # warm the cache
        net.subscribe(Profile({"S": {"b"}}), 2, "u2")
        deliveries = net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert sorted(d.subscription_id for d in deliveries) == ["u1", "u2"]

    def test_unsubscribe_invalidates_cached_route(self, net):
        net.subscribe(Profile({"S": ALL_ATTRIBUTES}), 4, "u1")
        net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]  # warm the cache
        net.unsubscribe("u1")
        assert net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0] == []

    def test_schema_registration_bumps_catalog_version(self, net):
        from repro.cql.schema import Attribute, StreamSchema

        before = net.catalog.version
        net.catalog.register(
            StreamSchema("T", [Attribute("x", "int", 0, 1)], rate=1.0)
        )
        assert net.catalog.version > before

    def test_churn_keeps_other_streams_facts_warm(self, net):
        # "S30" and "S7" have the same crc32 % 64: invalidation is per
        # stream name, not per hash bucket.
        for stream in ("S7", "S30"):
            net.advertise(stream, 0)
        net.subscribe(Profile({"S30": ALL_ATTRIBUTES}), 4, "u30")
        touched, warm = net._facts_for("S7"), net._facts_for("S30")
        net.subscribe(Profile({"S7": ALL_ATTRIBUTES}), 4, "u7")
        assert net._facts_for("S30") is warm
        assert net._facts_for("S7") is not touched
        net.unsubscribe("u7")
        assert net._facts_for("S30") is warm

    def test_second_publication_replays_the_route(self, net):
        net.subscribe(Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 5)))]), 4, "u1")
        assert net.route_cache_stats() == {"hits": 0, "misses": 0, "classes": 0}
        first = net.publish_many([Datagram("S", {"a": 9, "b": 0.5}, 1.0)], 0)[0]
        assert net.route_cache_stats() == {"hits": 0, "misses": 1, "classes": 1}
        # same class (another value on the same side of the filter)
        second = net.publish_many([Datagram("S", {"a": 7, "b": 0.1}, 2.0)], 0)[0]
        assert net.route_cache_stats() == {"hits": 1, "misses": 1, "classes": 1}
        assert [(d.subscription_id, d.node) for d in second] == [
            (d.subscription_id, d.node) for d in first
        ] == [("u1", 4)]
        assert second[0].datagram == Datagram("S", {"a": 7}, 2.0)
        assert net.data_stats.usage(0, 1).messages == 2
        # another class: the other side of the filter, another origin
        assert net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0] == []
        net.publish_many([Datagram("S", {"a": 9, "b": 0.5})], 2)[0]
        assert net.route_cache_stats() == {"hits": 1, "misses": 3, "classes": 3}

    def test_unrequested_stream_builds_nothing(self, net):
        assert net.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0] == []
        assert net.publish_many([Datagram("nobody", {"x": 1})] * 3, 2) == [[], [], []]
        assert net._facts == {}
        assert net.route_cache_stats() == {"hits": 0, "misses": 0, "classes": 0}
        assert net.data_stats.as_dict() == {}

    def test_a_replayed_route_counts_like_the_reference(self, net, line_tree):
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        datagram = Datagram("S", {"a": 1, "b": 0.5})
        net.publish_many([datagram], 0)[0]
        net.publish_many([datagram], 0)[0]
        assert net.route_cache_stats()["hits"] == 1
        fresh = ReferenceNetwork(line_tree)
        fresh.advertise("S", 0, SCHEMA)
        fresh.subscribe(Profile({"S": {"a"}}), 4, "u1")
        fresh.publish_many([datagram], 0)[0]
        fresh.publish_many([datagram], 0)[0]
        assert list(net.data_stats.as_dict().items()) == list(
            fresh.data_stats.as_dict().items()
        )
        # a cached route holds plain (edge, bytes) records, no accumulator
        (route,) = net._facts_for("S").routes.values()
        assert route.tally.records == (
            ((0, 1), 4.0), ((1, 2), 4.0), ((2, 3), 4.0), ((3, 4), 4.0)
        )

    def test_stream_keyed_state_goes_with_the_stream(self, line_tree):
        """Result-stream names are fresh per group: nothing keyed by a
        stream name may outlive its last subscription."""
        network = ContentBasedNetwork(line_tree)

        def footprint():
            return (
                len(network._facts),
                sum(
                    len(streams)
                    for node in line_tree.nodes
                    for streams in network.table(node)._by_stream.values()
                ),
            )

        after_one = None
        for cycle in range(200):
            stream = f"result:{cycle}"
            network.advertise(stream, 0)
            network.subscribe(Profile({stream: ALL_ATTRIBUTES}), 4, f"u{cycle}")
            assert len(network.publish_many([Datagram(stream, {"x": cycle})], 0)[0]) == 1
            assert len(network.publish_many([Datagram(stream, {"x": cycle})], 0)[0]) == 1
            network.unsubscribe(f"u{cycle}")
            assert network.publish_many([Datagram(stream, {"x": cycle})], 0)[0] == []
            after_one = after_one or footprint()
        assert footprint() == after_one == (0, 0)
        assert network.route_cache_stats() == {"hits": 200, "misses": 200, "classes": 0}

    def test_more_classes_than_the_cap_route_like_the_reference(self, line_tree):
        from repro.cbn.network import _ROUTE_CLASSES

        def build(cls):
            network = cls(line_tree)
            network.advertise("S", 0)
            for k in range(9):
                network.subscribe(
                    Profile({"S": {"a", f"x{k % 4}"}}, [Filter("S", cond(Comparison("a", ">", k)))]),
                    1 + k % 4,
                    f"u{k}",
                )
            return network

        fast, naive = build(ContentBasedNetwork), build(ReferenceNetwork)
        feed = [
            Datagram(
                "S",
                {"a": a, **{f"x{i}": i for i in range(4) if extras >> i & 1}},
                float(a),
                seq,
            )
            for a in range(10)
            for extras in range(16)
            for seq in (None, 3)
        ]
        for __ in range(2):
            for datagram in feed:
                assert fast.publish_many([datagram], 0)[0] == naive.publish_many([datagram], 0)[0]
        stats = fast.route_cache_stats()
        assert len(feed) > _ROUTE_CLASSES == stats["classes"]
        # the remembered classes replay on the second pass, the rest walk again
        assert stats["hits"] == _ROUTE_CLASSES
        assert stats["misses"] == 2 * len(feed) - _ROUTE_CLASSES
        assert list(fast.data_stats.as_dict().items()) == list(
            naive.data_stats.as_dict().items()
        )

    def test_an_attribute_projected_away_upstream_fails_its_condition(self, line_tree):
        """A walk from broker 1, which never advertised, crosses 1 -> 2
        projected to u1's ``{a}``.  The LOCAL entry written at 2 filters
        on ``b``, which the original carries and passes: its outcome bit
        is set, but ``b`` did not survive into the copy, so — as
        ``Conjunction.evaluate`` fails a missing attribute — nothing is
        delivered to it.  (Through ``subscribe`` alone every entry
        behind a hop also sits on the hop before it, so its attributes
        are carried; the entry is written into the table directly.)"""
        on_b = Profile({"S": {"b"}}, [Filter("S", cond(Comparison("b", ">", 0.25)))])

        def build(cls):
            network = cls(line_tree)
            network.advertise("S", 0, SCHEMA)
            network.subscribe(Profile({"S": {"a"}}), 3, "u1")
            # the publisher's own subscriber: a LOCAL entry, no path
            network.subscribe(on_b, 0, "u2")
            network.table(2).install(RoutingTable.LOCAL, "written", on_b)
            return network

        fast, naive = build(ContentBasedNetwork), build(ReferenceNetwork)
        assert 1 not in fast.publishers_of("S")
        datagram = Datagram("S", {"a": 1, "b": 0.5})
        for __ in range(2):
            delivered = fast.publish_many([datagram], 1)[0]
            assert delivered == naive.publish_many([datagram], 1)[0]
            assert [(d.subscription_id, d.node) for d in delivered] == [("u1", 3)]
        assert fast.route_cache_stats() == {"hits": 1, "misses": 1, "classes": 1}
        # the same entry behind the origin's own copy is covered
        assert [d.subscription_id for d in fast.publish_many([datagram], 2)[0]] == [
            d.subscription_id for d in naive.publish_many([datagram], 2)[0]
        ] == ["written", "u1"]
        assert list(fast.data_stats.as_dict().items()) == list(
            naive.data_stats.as_dict().items()
        )

    def test_reference_network_routes_the_same(self, line_tree):
        network = ReferenceNetwork(line_tree)
        network.advertise("S", 0, SCHEMA)
        network.subscribe(Profile({"S": {"a"}}), 4, "u1")
        deliveries = network.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]
        assert [d.subscription_id for d in deliveries] == ["u1"]
        with pytest.raises(NetworkError):
            network.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 99)[0]


class TestStateCeilings:
    def test_attribute_tuples_beyond_the_cap_keep_the_memo_within_it(self, line_tree):
        """``classify`` memoises the unpriced names per attribute tuple
        for the first ``_ROUTE_CLASSES`` tuples of a stream; a stream
        with 512 distinct tuples — their unpriced values an ``int`` or a
        ``float``, swapped on the second pass — keeps it at the cap and
        still routes, byte for byte, like the reference."""
        from repro.cbn.network import _ROUTE_CLASSES

        extras = [f"x{i}" for i in range(9)]

        def build(cls):
            network = cls(line_tree)
            network.advertise("S", 0, SCHEMA)
            network.subscribe(
                Profile({"S": {"a", "x0"}}, [Filter("S", cond(Comparison("a", ">", 2)))]),
                4,
                "u1",
            )
            network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 2, "u2")
            return network

        def feed(flip):
            return [
                Datagram("S", {"a": mask % 5, **{
                    name: (i if (mask + i + flip) % 2 else i + 0.5)
                    for i, name in enumerate(extras) if mask >> i & 1
                }})
                for mask in range(2 ** len(extras))
            ]

        fast, naive = build(ContentBasedNetwork), build(ReferenceNetwork)
        for flip in (0, 1):
            for datagram in feed(flip):
                assert fast.publish_many([datagram], 0)[0] == naive.publish_many([datagram], 0)[0]
            facts = fast._facts["S"]
            assert len(facts._unpriced) == _ROUTE_CLASSES
            assert len(facts.routes) == _ROUTE_CLASSES
        assert list(fast.data_stats.as_dict().items()) == list(
            naive.data_stats.as_dict().items()
        )
        assert repr(fast.data_stats.weighted_cost()) == repr(
            naive.data_stats.weighted_cost()
        )

    @staticmethod
    def five_hop_line():
        """0 - 1 - 2 - 3 - 4 - 5: "S" and "T" published at 0."""
        edges = [(i, i + 1) for i in range(5)]
        network = ContentBasedNetwork(DisseminationTree(edges, {e: 1.0 for e in edges}))
        network.advertise("S", 0, SCHEMA)
        network.advertise("T", 0)
        return network

    @staticmethod
    def laid(network, entry):
        """The profile objects stored under ``entry``, hop by hop."""
        return [
            profiles[entry]
            for node in sorted(network.tree.nodes)
            for interface in network.table(node).interfaces
            if entry in (profiles := network.table(node).entries(interface))
        ]

    def test_a_single_stream_profile_is_laid_itself_with_one_matcher(self, monkeypatch):
        from repro.cbn import filters

        built = []
        init = filters.Matcher.__init__

        def counting(matcher, *args):
            built.append(args)
            init(matcher, *args)

        monkeypatch.setattr(filters.Matcher, "__init__", counting)
        network = self.five_hop_line()
        profile = Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 2)))])
        network.subscribe(profile, 5, "u")
        hops = self.laid(network, entry_id("u", "S"))
        assert len(hops) == 5 and all(laid is profile for laid in hops)
        assert network.table(5).local_profiles() == {"u": profile}
        datagram = Datagram("S", {"a": 3, "b": 0.5})
        assert len(network.publish_many([datagram], 0)[0]) == 1
        assert len(network.publish_many([datagram], 0)[0]) == 1
        # the LOCAL entry and the five hops share one matcher
        assert [stream for __, stream in built] == ["S"]
        # what the control plane charges is what a restricted copy weighs
        copy = Profile({"S": profile.projection_for("S")}, profile.filters_for("S"))
        assert profile.size_estimate() == copy.size_estimate()
        assert network.control_stats.total_bytes() == 5 * copy.size_estimate()

    def test_a_two_stream_profile_lays_one_restricted_copy_per_stream(self):
        network = self.five_hop_line()
        network.advertise("T", 2)
        profile = Profile(
            {"S": {"a"}, "T": ALL_ATTRIBUTES},
            [Filter("S", cond(Comparison("a", ">", 2))), Filter("T", cond(Comparison("x", "<", 9)))],
        )
        network.subscribe(profile, 5, "u")
        by_stream = {
            stream: self.laid(network, entry_id("u", stream)) for stream in ("S", "T")
        }
        # "T" is propagated toward two publishers whose paths share the
        # hops 5 -> 2: each hop holds the one copy
        assert [len(hops) for hops in by_stream.values()] == [5, 5]
        for stream, hops in by_stream.items():
            restricted = profile.restricted_to(stream)
            assert restricted.streams == {stream} and restricted != profile
            assert all(laid is restricted for laid in hops)
        assert profile.restricted_to("S") is not profile.restricted_to("T")

    def test_a_footprint_holds_keys_and_no_hops(self):
        network = self.five_hop_line()
        network.advertise("S", 3)
        network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 5, "u")
        network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 0, "v")
        footprints = {
            sid: network._subscriptions[sid].footprint for sid in ("u", "v")
        }
        # v sits on the publisher at 0: no propagation toward it
        assert footprints == {"u": {("S", 0): None, ("S", 3): None}, "v": {("S", 3): None}}
        network.unsubscribe("u")
        network.unsubscribe("v")
        assert network.routing_state_size() == 0

    def test_names_are_built_once(self):
        from repro.cql.lexer import tokenize
        from repro.cql.predicates import AttrRef

        assert AttrRef("S", "a").key is AttrRef("S", "a").key
        assert AttrRef(None, "temperature").key == "temperature"
        first = tokenize("SELECT O.price FROM OpenAuction O WHERE O.price > 1")
        second = tokenize("select o.price from OpenAuction o")
        spelled = {}
        for token in first + second:
            if token.kind in ("ident", "keyword"):
                assert spelled.setdefault(token.text, token.text) is token.text
                assert token.value is token.text
        assert spelled.keys() >= {"price", "OpenAuction", "O", "o", "SELECT", "select"}


class TestPublishMany:
    def test_one_delivery_list_per_datagram(self, net):
        net.subscribe(
            Profile({"S": {"a"}}, [Filter("S", cond(Comparison("a", ">", 5)))]),
            4,
            "u1",
        )
        feed = [
            Datagram("S", {"a": 1, "b": 0.1}, 0.0),
            Datagram("S", {"a": 9, "b": 0.2}, 1.0),
            Datagram("S", {"a": 7, "b": 0.3}, 2.0),
        ]
        batches = net.publish_many(feed, 0)
        assert [len(b) for b in batches] == [0, 1, 1]

    def test_matches_publish_loop(self, line_tree):
        def build():
            network = ContentBasedNetwork(line_tree)
            network.advertise("S", 0, SCHEMA)
            network.subscribe(Profile({"S": {"a"}}), 4, "u1")
            network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 2, "u2")
            return network

        feed = [Datagram("S", {"a": i, "b": 0.5}, float(i)) for i in range(4)]
        batched_net, looped_net = build(), build()
        batched = batched_net.publish_many(feed, 0)
        looped = [looped_net.publish_many([datagram], 0)[0] for datagram in feed]
        assert [
            [(d.subscription_id, d.node, d.datagram) for d in per] for per in batched
        ] == [
            [(d.subscription_id, d.node, d.datagram) for d in per] for per in looped
        ]
        assert batched_net.data_stats.as_dict() == looped_net.data_stats.as_dict()

    def test_unknown_broker_rejected(self, net):
        with pytest.raises(NetworkError):
            net.publish_many([Datagram("S", {"a": 1, "b": 0.1})], 99)


class TestRetree:
    """``retree`` diffs the trees; the oracle is a fresh build.

    It drops no facts, so every check runs on warm caches: after each
    step of a history the same :attr:`PROBES` are published from every
    broker on both streams — before a ``retree`` their routes are
    cached, after it they must be what a fresh build walks."""

    #: T1 -> T2 and T2 -> T3 each swap one edge (the second moves a
    #: branch off a trunk other subscribers keep using), T4 rewires
    #: everything and loses node 7, T5 brings it back as a pure
    #: addition, T6 swaps around it.
    T1 = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6), (6, 7)]
    T2 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    T3 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6), (6, 7)]
    T4 = [(0, 2), (2, 1), (1, 4), (4, 3), (3, 6), (6, 5)]
    T5 = T4 + [(3, 7)]
    T6 = [(0, 2), (2, 1), (1, 4), (4, 7), (7, 3), (3, 6), (6, 5)]
    TREES = [T1, T2, T3, T4, T5, T6]
    SCHEMAS = [
        StreamSchema(
            name,
            [Attribute("a", "int", 0, 100), Attribute("b", "float", 0, 1)],
            rate=1.0,
        )
        for name in ("S", "T")
    ]

    #: Published from every broker after every step, so that any
    #: route a tree change should have invalidated is there to go stale
    #: (the random filters compare ``a`` with 10..90).
    PROBES = {
        stream: [Datagram(stream, {"a": a, "b": 0.5}) for a in (5, 50, 95)]
        for stream in "ST"
    }

    @staticmethod
    def tree(edges):
        return DisseminationTree(edges, {tuple(sorted(e)): 1.0 + e[0] for e in edges})

    @staticmethod
    def random_profile(rng):
        streams = rng.sample(["S", "T"], rng.randint(1, 2))
        filters = [
            Filter(s, cond(Comparison("a", rng.choice([">", "<"]), rng.randint(10, 90))))
            for s in streams
            if rng.random() < 0.6
        ]
        return Profile(
            {s: rng.choice([ALL_ATTRIBUTES, {"a"}, {"b"}]) for s in streams}, filters
        )

    @staticmethod
    def datagram(rng, stream=None):
        return Datagram(
            stream or rng.choice("ST"), {"a": rng.randint(0, 100), "b": rng.random()}
        )

    def assert_like_fresh_build(self, network, tree, ads, live, rng):
        """``network`` cannot be told from a ``ReferenceNetwork`` built
        on ``tree`` from the surviving advertisements and the live
        subscriptions, each in registration order."""
        fresh = ReferenceNetwork(tree)
        for schema in self.SCHEMAS:
            fresh.catalog.register(schema)
        for stream, node in ads:
            fresh.advertise(stream, node)
        for sid, (node, profile) in live.items():
            fresh.subscribe(profile, node, sid)
        assert network.tree is tree
        assert network.subscriptions() == live
        assert list(network.subscriptions()) == list(live)
        assert network.routing_state_size() == fresh.routing_state_size()
        for stream in "ST":
            assert network.publishers_of(stream) == fresh.publishers_of(stream)
        for node in range(8):
            if node not in tree:
                with pytest.raises(NetworkError):
                    network.table(node)
                continue
            mine, theirs = network.table(node), fresh.table(node)
            assert list(mine.local_profiles()) == list(theirs.local_profiles())
            assert set(mine.interfaces) <= {RoutingTable.LOCAL, *tree.neighbors(node)}
            for interface in set(mine.interfaces) | set(theirs.interfaces):
                assert mine.entries(interface) == theirs.entries(interface)
        delivered = 0
        for origin in tree.nodes:
            for stream in "ST":
                for probe in (self.datagram(rng, stream), *self.PROBES[stream]):
                    before = [net.data_stats.as_dict() for net in (network, fresh)]
                    deliveries = network.publish_many([probe], origin)[0]
                    assert deliveries == fresh.publish_many([probe], origin)[0]
                    delivered += len(deliveries)
                    mine, theirs = (
                        {
                            edge: (messages - was.get(edge, (0, 0.0))[0], size - was.get(edge, (0, 0.0))[1])
                            for edge, (messages, size) in net.data_stats.as_dict().items()
                            if was.get(edge) != (messages, size)
                        }
                        for net, was in zip((network, fresh), before)
                    )
                    assert mine == theirs
        return delivered

    @staticmethod
    def subscription_id(step):
        """Every other id holds a ``#``, as the system's own do
        (``user:q#1:v0``): an entry id is ``<id>#<stream>``, so
        ``retree`` must take the stream off its end."""
        return f"s#{step}" if step % 2 else f"s{step}"

    # eighteen histories per class: 36 interleavings in all
    @pytest.mark.parametrize("seed", range(18))
    @pytest.mark.parametrize("cls", [ContentBasedNetwork, ReferenceNetwork])
    def test_any_interleaving_is_indistinguishable_from_a_fresh_build(self, seed, cls):
        self.run_history(seed, cls, self.subscription_id)

    def test_an_owner_split_at_the_first_hash_is_caught(self, monkeypatch):
        # Exact on today's ids, wrong on ids holding a "#": only the
        # latter tell the inverse of entry_id from a split.
        monkeypatch.setattr(
            network_module, "entry_owner", lambda entry, stream: entry.split("#")[0]
        )
        for seed in range(18):
            self.run_history(seed, ContentBasedNetwork, lambda step: f"s{step}")
        with pytest.raises((AssertionError, KeyError)):
            for seed in range(18):
                self.run_history(seed, ContentBasedNetwork, self.subscription_id)

    def test_a_retree_reading_one_side_of_an_edge_is_caught(self, monkeypatch):
        # For a removed edge (u, v), u < v, only u's table behind v is
        # read: a path whose subscriber sits on u's side is not re-laid.
        retree, entries = ContentBasedNetwork.retree, RoutingTable.entries

        def one_sided(table, interface):
            return entries(table, interface) if table.node < interface else {}

        def planted(network, tree):
            monkeypatch.setattr(RoutingTable, "entries", one_sided)
            try:
                retree(network, tree)
            finally:
                monkeypatch.setattr(RoutingTable, "entries", entries)

        monkeypatch.setattr(ContentBasedNetwork, "retree", planted)
        with pytest.raises((AssertionError, KeyError)):
            for seed in range(18):
                self.run_history(seed, ContentBasedNetwork, self.subscription_id)

    def run_history(self, seed, cls, subscription_id):
        """45 random steps on ``cls``, checked against a fresh build
        after each one."""
        rng = random.Random(seed)
        tree = self.tree(self.T1)
        network = cls(tree)
        stats = network.data_stats
        ads, live, at = [("S", 0), ("T", 7)], {}, 0
        for stream, node in ads:
            network.advertise(stream, node, self.SCHEMAS["ST".index(stream)])
        retrees = delivered = 0
        for step in range(45):
            roll = rng.random()
            if roll < 0.4 or not live:
                # node 7 comes and goes: a subscriber there pins it
                node = rng.choice(tree.nodes) if rng.random() < 0.1 else rng.randrange(7)
                profile = self.random_profile(rng)
                network.subscribe(profile, node, subscription_id(step))
                live[subscription_id(step)] = (node, profile)
            elif roll < 0.6:
                network.unsubscribe(rng.choice(list(live)))
                live = {sid: live[sid] for sid in network.subscriptions()}
            elif roll < 0.7:
                ad = (rng.choice("ST"), rng.choice(tree.nodes))
                if ad not in ads:
                    ads.append(ad)
                network.advertise(*ad)
            elif roll < 0.8:
                origin, stream = rng.choice(tree.nodes), rng.choice("ST")
                network.publish_many([self.datagram(rng, stream) for __ in range(3)], origin)
            else:
                # mostly the next tree of the cycle, sometimes any
                at = (at + 1) % 6 if rng.random() < 0.7 else rng.randrange(6)
                target = self.tree(self.TREES[at])
                if any(node not in target for node, __ in live.values()):
                    epoch, size = network.routing_epoch, network.routing_state_size()
                    with pytest.raises(NetworkError):
                        network.retree(target)
                    assert network.routing_epoch == epoch
                    assert network.routing_state_size() == size
                else:
                    network.retree(target)
                    tree = target
                    ads = [ad for ad in ads if ad[1] in tree]
                    retrees += 1
            delivered += self.assert_like_fresh_build(network, tree, ads, live, rng)
        assert type(network) is cls and network.data_stats is stats
        assert retrees >= 3 and delivered

    def test_stranded_subscriber_refused_before_any_change(self):
        network = ContentBasedNetwork(self.tree(self.T1))
        network.advertise("S", 0, self.SCHEMAS[0])
        network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 7, "u1")
        old_tree, size = network.tree, network.routing_state_size()
        with pytest.raises(NetworkError):
            network.retree(self.tree(self.T4))
        assert network.tree is old_tree
        assert network.routing_state_size() == size
        assert len(network.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]) == 1

    def publish_probes(self, network, stream):
        return [
            network.publish_many([probe], origin)[0]
            for origin in network.tree.nodes
            for probe in self.PROBES[stream]
        ]

    def test_a_stream_no_changed_edge_touched_replays_warm_routes(self):
        """T1 -> T2 moves the branch under 5 from 2 to 4.  "S" (0 -> 3)
        runs along the trunk, "T" (7 -> 0) through the moved edge."""
        network = ContentBasedNetwork(self.tree(self.T1))
        network.advertise("S", 0, self.SCHEMAS[0])
        network.advertise("T", 7, self.SCHEMAS[1])
        network.subscribe(Profile({"S": {"a"}}), 3, "trunk")
        network.subscribe(Profile({"T": ALL_ATTRIBUTES}), 0, "branch")
        warm = {stream: self.publish_probes(network, stream) for stream in "ST"}
        facts = {stream: network._facts[stream] for stream in "ST"}
        assert "tree" not in type(facts["S"]).__slots__
        was = network.route_cache_stats()
        network.retree(self.tree(self.T2))

        assert self.publish_probes(network, "S") == warm["S"]
        now = network.route_cache_stats()
        assert now["misses"] == was["misses"]
        assert now["hits"] == was["hits"] + len(warm["S"])
        assert network._facts["S"] is facts["S"]

        fresh = ReferenceNetwork(self.tree(self.T2))
        fresh.advertise("S", 0, self.SCHEMAS[0])
        fresh.advertise("T", 7, self.SCHEMAS[1])
        fresh.subscribe(Profile({"S": {"a"}}), 3, "trunk")
        fresh.subscribe(Profile({"T": ALL_ATTRIBUTES}), 0, "branch")
        assert self.publish_probes(network, "T") == self.publish_probes(fresh, "T")
        assert network._facts["T"] is not facts["T"]
        assert network.route_cache_stats()["misses"] > now["misses"]
        # 7 -> 0 now runs 7-6-5-4-3-2-1-0, no longer over (2, 5)
        crossed = network.data_stats.as_dict()
        assert crossed[(4, 5)][0] and crossed[(2, 5)][0]
        before = crossed[(2, 5)]
        network.publish_many([self.PROBES["T"][0]], 7)[0]
        assert network.data_stats.as_dict()[(2, 5)] == before

    def test_broker_7_leaves_returns_and_is_moved_on_warm_routes(self):
        """T1 -> T4 (7 gone) -> T5 (7 back, a pure addition) -> T6 (7
        spliced between 4 and 3), every route warm before each move —
        those from origin 7 included, which outlive its absence on a
        stream whose entries never moved ("S": 1 -> 2 is an edge of
        every tree)."""
        rng = random.Random(7)
        tree = self.tree(self.T1)
        network = ContentBasedNetwork(tree)
        ads = [("S", 1), ("T", 0)]
        for stream, node in ads:
            network.advertise(stream, node, self.SCHEMAS["ST".index(stream)])
        live = {
            "near": (2, Profile({"S": {"a"}})),
            "far": (6, Profile({"S": ALL_ATTRIBUTES, "T": {"b"}})),
            "low": (4, Profile({"T": {"a"}}, [Filter("T", cond(Comparison("a", "<", 60)))])),
        }
        for sid, (node, profile) in live.items():
            network.subscribe(profile, node, sid)
        self.assert_like_fresh_build(network, tree, ads, live, rng)
        for edges in (self.T4, self.T5, self.T6):
            tree = self.tree(edges)
            network.retree(tree)
            if 7 in tree and ("T", 7) not in ads:
                # the returned broker starts publishing: paths toward it
                ads.append(("T", 7))
                network.advertise("T", 7)
            assert self.assert_like_fresh_build(network, tree, ads, live, rng)
        from_7 = network.publish_many([self.PROBES["T"][0]], 7)[0]
        assert {d.subscription_id for d in from_7} == {"far", "low"}

    def test_a_dropped_interface_takes_the_routes_across_it(self):
        """Facts are versioned by the stream's entries alone, so every
        way an entry goes must report its stream: ``retree`` only drops
        interfaces it has emptied, this one is dropped full."""
        network = ContentBasedNetwork(self.tree(self.T1))
        network.advertise("S", 0, self.SCHEMAS[0])
        network.subscribe(Profile({"S": ALL_ATTRIBUTES}), 3, "u")
        probe = self.PROBES["S"][0]
        assert len(network.publish_many([probe], 0)[0]) == len(network.publish_many([probe], 0)[0]) == 1
        network.table(1).remove_interface(2)
        assert network.publish_many([probe], 0)[0] == []
        assert len(network.publish_many([probe], 2)[0]) == 1


class TestProportionality:
    """Control operations cost what they change, not what exists."""

    LEGS = 4

    @pytest.fixture
    def spider(self):
        """200 brokers: hub 0 and four legs; "S" is published at the hub
        and each leg's tip holds one subscriber, so the four footprints
        are disjoint.  Returns (network, legs)."""
        legs, nxt = [], 1
        for length in (50, 50, 50, 49):
            legs.append(list(range(nxt, nxt + length)))
            nxt += length
        edges = [e for leg in legs for e in zip([0] + leg, leg)]
        network = ContentBasedNetwork(
            DisseminationTree(edges, {e: 1.0 for e in edges})
        )
        network.advertise("S", 0, SCHEMA)
        for k, leg in enumerate(legs):
            network.subscribe(Profile({"S": {"a"}}), leg[-1], f"u{k}")
        assert len(network.tree) == 200
        assert len(network.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]) == self.LEGS
        return network, legs

    @staticmethod
    def snapshot(network, nodes):
        """Per broker: its table, its entries per interface, and the
        change reports it makes from now on."""
        before = {}
        for node in nodes:
            table, reports = network.table(node), []
            bump = table.on_change

            def report(streams, bump=bump, reports=reports):
                reports.append(streams)
                bump(streams)

            table.on_change = report
            entries = {i: table.entries(i) for i in table.interfaces}
            before[node] = (table, entries, reports)
        return before

    @staticmethod
    def spy_on_discard(monkeypatch):
        visits, discard = [], RoutingTable.discard

        def spy(table, interface, entry_id):
            visits.append(table.node)
            return discard(table, interface, entry_id)

        monkeypatch.setattr(RoutingTable, "discard", spy)
        return visits

    def assert_untouched(self, network, before):
        for node, (table, entries, reports) in before.items():
            assert network.table(node) is table
            assert {i: table.entries(i) for i in table.interfaces} == entries
            assert all(
                list(table.entries(i)) == list(entries[i]) for i in entries
            )
            assert reports == []

    def test_unsubscribe_visits_its_own_path_only(self, spider, monkeypatch):
        network, legs = spider
        off_path = self.snapshot(network, [n for leg in legs[1:] for n in leg])
        visits = self.spy_on_discard(monkeypatch)
        network.unsubscribe("u0")
        # one table per broker on the path tip -> hub, each exactly once
        assert sorted(visits) == [0] + legs[0]
        self.assert_untouched(network, off_path)
        assert len(network.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]) == self.LEGS - 1

    def test_retree_replays_only_paths_crossing_the_changed_edge(
        self, spider, monkeypatch
    ):
        network, legs = spider
        a, b, c = legs[0][10:13]
        swapped = network.tree.with_edge_swap((a, b), (a, c), 1.0)
        off_path = self.snapshot(network, [n for leg in legs[1:] for n in leg])
        visits = self.spy_on_discard(monkeypatch)
        network.retree(swapped)
        # u0's entries (not its LOCAL one) are withdrawn, nothing else is
        assert sorted(visits) == [0] + legs[0][:-1]
        self.assert_untouched(network, off_path)
        assert network.table(b).entry_count == 0  # now a stub off the path
        assert len(network.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]) == self.LEGS

    def test_retree_reads_only_the_footprints_that_cross(self, spider, monkeypatch):
        network, legs = spider

        class Unread(dict):
            """A footprint that raises when anything reads it whole."""

            def __iter__(self):
                raise AssertionError("an off-path footprint was read")

            items = keys = values = __iter__

        for k in range(1, self.LEGS):
            sub = network._subscriptions[f"u{k}"]
            sub.footprint = Unread(sub.footprint)
        a, b, c = legs[0][10:13]
        swapped = network.tree.with_edge_swap((a, b), (a, c), 1.0)
        off_path = self.snapshot(network, [n for leg in legs[1:] for n in leg])
        visits = self.spy_on_discard(monkeypatch)
        network.retree(swapped)
        assert sorted(visits) == [0] + legs[0][:-1]
        self.assert_untouched(network, off_path)
        assert len(network.publish_many([Datagram("S", {"a": 1, "b": 0.5})], 0)[0]) == self.LEGS
