"""``publish_many`` is the per-datagram loop, whatever the chunking.

``publish_many`` is the one entry point of the data plane and routes its
datagrams one after the other through the cached routes.  These
properties pin it to the naive per-datagram reference: for any random
workload, any partitioning of the feed (size 1, 2, odd, large), any
interleaving of subscribes/unsubscribes between batches, and broker
failures landing mid-feed, the deliveries are identical (same
subscribers, payloads and order) and the per-link traffic accounting
agrees, first-use order of the links included.

Extends the fast==naive oracle of ``test_fastpath_properties.py`` to
the batched entry points (:meth:`ContentBasedNetwork.publish_many`,
:meth:`CosmosSystem.publish_batch`).
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cbn.network import ContentBasedNetwork
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.sim.reference import ReferenceNetwork
from repro.system.cosmos import CosmosSystem
from repro.system.distribution import RoundRobinDistribution
from repro.system.fault import FaultError, fail_broker

from tests.properties.test_fastpath_properties import (
    STREAMS,
    assert_same_accounting,
    draw_datagram,
    draw_profile,
    random_trees,
    snapshot,
)


class TestPublishManyEquivalence:
    @given(random_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_batch_partitionings_identical(self, tree, data):
        """Any chunking of a feed — singletons, pairs, odd sizes, one
        big batch — delivers exactly what the naive loop delivers."""
        nodes = tree.nodes
        fast = ContentBasedNetwork(tree)
        naive = ReferenceNetwork(tree)
        publisher = data.draw(st.sampled_from(nodes), label="publisher")
        fast.advertise("S", publisher)
        naive.advertise("S", publisher)
        n_profiles = data.draw(st.integers(1, 5), label="n_profiles")
        for index in range(n_profiles):
            profile = draw_profile(data, "S", f"p{index}")
            node = data.draw(st.sampled_from(nodes), label=f"node{index}")
            fast.subscribe(profile, node, f"u{index}")
            naive.subscribe(profile, node, f"u{index}")
        n_datagrams = data.draw(st.integers(1, 12), label="n_datagrams")
        feed = [
            draw_datagram(data, "S", float(index), f"d{index}")
            for index in range(n_datagrams)
        ]
        batched = []
        cursor = 0
        while cursor < len(feed):
            size = data.draw(
                st.sampled_from([1, 2, 3, 7, len(feed)]), label=f"chunk{cursor}"
            )
            batch = feed[cursor:cursor + size]
            cursor += size
            batched.extend(fast.publish_many(batch, publisher))
        looped = [naive.publish_many([datagram], publisher)[0] for datagram in feed]
        assert [snapshot(per) for per in batched] == [snapshot(per) for per in looped]
        assert_same_accounting(fast, naive)

    @given(random_trees(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_mutations_and_batches(self, tree, data):
        """Subscribes/unsubscribes/advertises interleaved with batched
        publishes: plans and cached routes revalidate against the
        mutated routing state and still match the naive loop exactly."""
        nodes = tree.nodes
        fast = ContentBasedNetwork(tree)
        naive = ReferenceNetwork(tree)
        advertisers = {}
        live = []
        counter = itertools.count()
        clock = itertools.count()
        n_ops = data.draw(st.integers(4, 14), label="n_ops")
        for index in range(n_ops):
            choices = ["advertise", "subscribe"]
            if live:
                choices.append("unsubscribe")
            if advertisers:
                choices.append("publish_batch")
            op = data.draw(st.sampled_from(choices), label=f"op{index}")
            if op == "advertise":
                stream = data.draw(st.sampled_from(STREAMS), label=f"ad{index}")
                node = data.draw(st.sampled_from(nodes), label=f"ad-node{index}")
                fast.advertise(stream, node)
                naive.advertise(stream, node)
                advertisers.setdefault(stream, []).append(node)
            elif op == "subscribe":
                stream = data.draw(st.sampled_from(STREAMS), label=f"sub{index}")
                profile = draw_profile(data, stream, f"sub{index}")
                node = data.draw(st.sampled_from(nodes), label=f"sub-node{index}")
                sid = f"u{next(counter)}"
                fast.subscribe(profile, node, sid)
                naive.subscribe(profile, node, sid)
                live.append(sid)
            elif op == "unsubscribe":
                sid = data.draw(st.sampled_from(live), label=f"unsub{index}")
                live.remove(sid)
                fast.unsubscribe(sid)
                naive.unsubscribe(sid)
            else:
                stream = data.draw(
                    st.sampled_from(sorted(advertisers)), label=f"pub{index}"
                )
                origin = data.draw(
                    st.sampled_from(advertisers[stream]), label=f"pub-node{index}"
                )
                batch = [
                    draw_datagram(data, stream, float(next(clock)), f"d{index}-{i}")
                    for i in range(data.draw(st.integers(1, 6),
                                             label=f"batch{index}"))
                ]
                batched = fast.publish_many(batch, origin)
                looped = [naive.publish_many([d], origin)[0] for d in batch]
                assert [snapshot(per) for per in batched] == [
                    snapshot(per) for per in looped
                ]
        assert_same_accounting(fast, naive)
        assert fast.routing_state_size() == naive.routing_state_size()


SCHEMA = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("celsius", "float", -20, 40)],
    rate=1.0,
)

#: Nodes with attached roles (processors, source, users) — never failed.
PROTECTED = set(range(7))

#: Four queries, four groups: round robin puts two groups on each of the
#: two processors, so every Temp tuple reaches both and each share holds
#: two groups' copies of it.
QUERIES = (
    "SELECT T.celsius FROM Temp [Range 1 Hour] T WHERE T.celsius > 0",
    "SELECT T.station FROM Temp [Now] T WHERE T.station < 5",
    "SELECT AVG(T.celsius) FROM Temp [Range 10 Second] T",
    "SELECT T.station, COUNT(*) FROM Temp [Range 1 Minute] T GROUP BY T.station",
)


def _build_system(seed):
    topo = barabasi_albert(25, 2, random.Random(seed))
    tree = DisseminationTree.minimum_spanning(topo)
    system = CosmosSystem(tree, processor_nodes=[0, 1], topology=topo)
    system.distribution = RoundRobinDistribution()
    system.add_source(SCHEMA, 2)
    handles = [
        system.submit(text, user_node=3 + index, name=f"q{index}")
        for index, text in enumerate(QUERIES)
    ]
    assert [p.manager.grouping.group_count for p in system.processors.values()] == [2, 2]
    return system, handles


class TestBatchUnderFailures:
    @given(st.integers(0, 30), st.data())
    @settings(max_examples=25, deadline=None)
    def test_mid_feed_broker_failure_identical(self, seed, data):
        """A broker failure landing mid-feed: the batched system and
        the tuple-at-a-time system repair identically, every query
        handle accumulates identical results and every link carries the
        same traffic.  Both processors hold two groups on the stream, so
        each batch is split into per-processor shares of two groups."""
        batched_sys, batched_handles = _build_system(seed)
        looped_sys, looped_handles = _build_system(seed)
        clock = itertools.count(1)
        rounds = data.draw(st.integers(1, 3), label="rounds")
        for round_index in range(rounds):
            tuples = [
                (
                    {
                        "station": data.draw(st.integers(0, 9),
                                             label=f"st{round_index}-{i}"),
                        "celsius": float(data.draw(st.integers(-5, 30),
                                                   label=f"c{round_index}-{i}")),
                    },
                    float(next(clock)),
                )
                for i in range(data.draw(st.integers(1, 5),
                                         label=f"batch{round_index}"))
            ]
            batched_sys.publish_batch("Temp", tuples)
            for payload, timestamp in tuples:
                looped_sys.publish("Temp", payload, timestamp)
            assert [h.result_count for h in batched_handles] == [
                h.result_count for h in looped_handles
            ]
            assert [h.results for h in batched_handles] == [
                h.results for h in looped_handles
            ]
            # Per-link totals are exact.  The weighted cost is summed in
            # the order links were first used, and a batch routes each
            # processor's results together, so it may differ in the last
            # bit from the tuple-by-tuple order.
            batched_stats = batched_sys.network.data_stats
            looped_stats = looped_sys.network.data_stats
            assert batched_stats.as_dict() == looped_stats.as_dict()
            assert batched_stats.weighted_cost() == pytest.approx(
                looped_stats.weighted_cost(), rel=1e-12
            )
            candidates = sorted(
                n for n in batched_sys.tree.nodes if n not in PROTECTED
            )
            if not candidates:
                continue
            victim = data.draw(
                st.sampled_from(candidates), label=f"victim{round_index}"
            )
            try:
                fail_broker(batched_sys, victim)
            except FaultError:
                continue  # survivors physically partitioned: skip in both
            fail_broker(looped_sys, victim)
            assert sorted(batched_sys.tree.edges) == sorted(looped_sys.tree.edges)
