"""The unicast baseline: same deliveries, more traffic."""

import random

import pytest

from repro.baselines.unicast import UnicastNetwork
from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cbn.network import ContentBasedNetwork, NetworkError
from repro.cql.predicates import Comparison, Conjunction
from repro.cql.schema import Attribute, StreamSchema

SCHEMA = StreamSchema(
    "S",
    [Attribute("a", "int", 0, 100), Attribute("b", "float", 0, 1)],
    rate=2.0,
)


class TestUnicastNetwork:
    def test_deliveries_match_cbn(self, line_tree):
        profiles = [
            Profile({"S": {"a"}}),
            Profile(
                {"S": ALL_ATTRIBUTES},
                [Filter("S", Conjunction.from_atoms([Comparison("a", ">", 50)]))],
            ),
        ]
        placements = [4, 3]
        datagrams = [
            Datagram("S", {"a": 10, "b": 0.5}, 0.0),
            Datagram("S", {"a": 90, "b": 0.5}, 1.0),
        ]

        def run(network_cls):
            net = network_cls(line_tree)
            net.advertise("S", 0, SCHEMA)
            for index, (profile, node) in enumerate(zip(profiles, placements)):
                net.subscribe(profile, node, f"u{index}")
            out = []
            for datagram in datagrams:
                out.extend(
                    (d.subscription_id, tuple(sorted(d.datagram.payload.items())))
                    for d in net.publish_many([datagram], 0)[0]
                )
            return sorted(out), net.data_stats.total_bytes()

        cbn_deliveries, cbn_bytes = run(ContentBasedNetwork)
        uni_deliveries, uni_bytes = run(UnicastNetwork)
        assert cbn_deliveries == uni_deliveries
        assert cbn_bytes <= uni_bytes

    def test_shared_link_charged_per_subscription(self, line_tree):
        net = UnicastNetwork(line_tree)
        net.advertise("S", 0, SCHEMA)
        net.subscribe(Profile({"S": {"a"}}), 4, "u1")
        net.subscribe(Profile({"S": {"a"}}), 4, "u2")
        net.publish_many([Datagram("S", {"a": 1, "b": 0.1}, 0.0)], 0)[0]
        # Two identical flows: the first link carries the content twice.
        assert net.data_stats.usage(0, 1).messages == 2

    def test_cbn_shares_what_unicast_duplicates(self, line_tree):
        def run(cls, n_subs):
            net = cls(line_tree)
            net.advertise("S", 0, SCHEMA)
            for index in range(n_subs):
                net.subscribe(Profile({"S": {"a"}}), 4, f"u{index}")
            net.publish_many([Datagram("S", {"a": 1, "b": 0.1}, 0.0)], 0)[0]
            return net.data_stats.total_bytes()

        for n in (2, 5, 10):
            assert run(UnicastNetwork, n) == pytest.approx(
                n * run(ContentBasedNetwork, n)
            )

    def test_unknown_nodes_rejected(self, line_tree):
        net = UnicastNetwork(line_tree)
        with pytest.raises(NetworkError):
            net.subscribe(Profile({"S": {"a"}}), 99)
        with pytest.raises(NetworkError):
            net.publish_many([Datagram("S", {})], 99)[0]

