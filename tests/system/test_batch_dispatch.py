"""A routed batch crosses each processor once (``CosmosSystem._drive``).

Every batch the CBN routes is walked in delivery order; each processor
it reaches gets its share in one :meth:`Processor.on_source_batch` call
and publishes that share's results as one ``publish_many`` batch.  These
tests hold the batch path to the per-tuple one: the same pushes in the
same order at every engine, the same handle results, the same link
accounting, and a single ``publish`` returning exactly the delivery list
the per-delivery dispatch returned.  The canary plants a dispatch that
regroups a share group-major and must be caught.
"""

import random

import pytest

from repro.cbn.network import ContentBasedNetwork
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.spe.engine import EngineError, StreamProcessingEngine
from repro.system.cosmos import CosmosSystem
from repro.system.distribution import RoundRobinDistribution
from repro.system.node import Processor

SCHEMA = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("celsius", "float", -20, 40)],
    rate=1.0,
)

#: Four queries that form four groups: round robin over two processors
#: puts two groups on each, so the stream reaches both.
QUERIES = (
    "SELECT T.celsius FROM Temp [Range 1 Hour] T WHERE T.celsius > 0",
    "SELECT T.station FROM Temp [Now] T WHERE T.station < 5",
    "SELECT AVG(T.celsius) FROM Temp [Range 10 Second] T",
    "SELECT T.station, COUNT(*) FROM Temp [Range 1 Minute] T GROUP BY T.station",
)


def build(processors=(0, 1)):
    """Processors at ``processors``, the source at 2, user ``qi`` at 3 + i."""
    topology = barabasi_albert(25, 2, random.Random(3))
    tree = DisseminationTree.minimum_spanning(topology)
    system = CosmosSystem(tree, processor_nodes=list(processors), topology=topology)
    system.distribution = RoundRobinDistribution()
    system.add_source(SCHEMA, 2)
    handles = [
        system.submit(text, user_node=3 + index, name=f"q{index}")
        for index, text in enumerate(QUERIES)
    ]
    return system, handles


def burst(n=16, start=1.0):
    return [
        ({"station": index % 10, "celsius": float(index * 3 % 25 - 5)}, start + index)
        for index in range(n)
    ]


@pytest.fixture
def pushes(monkeypatch):
    """Every ``push_to`` as ``(engine, timestamp)``, recorded before the
    engine sees it."""
    seen = []
    real = StreamProcessingEngine.push_to

    def recorded(self, name, datagram):
        seen.append((id(self), datagram.timestamp))
        return real(self, name, datagram)

    monkeypatch.setattr(StreamProcessingEngine, "push_to", recorded)
    return seen


def out_of_order(pushes):
    """Pushes whose timestamp is below the last one at the same engine."""
    last = {}
    found = []
    for engine, timestamp in pushes:
        if timestamp < last.get(engine, timestamp):
            found.append((engine, timestamp))
        last[engine] = timestamp
    return found


def feed_burst(system, pushes):
    """Publish one 16-tuple burst; the out-of-order pushes it made (an
    engine refusing one counts as one)."""
    try:
        system.publish_batch("Temp", burst())
    except EngineError:
        return out_of_order(pushes) or ["EngineError"]
    return out_of_order(pushes)


class TestOneCrossingPerProcessor:
    def test_a_burst_to_one_processor_routes_in_two_calls(self, monkeypatch):
        system, handles = build(processors=(0,))
        assert system.processors[0].manager.grouping.group_count >= 2
        calls = []
        real = ContentBasedNetwork.publish_many

        def counted(self, datagrams, node):
            datagrams = list(datagrams)
            calls.append((node, len(datagrams)))
            return real(self, datagrams, node)

        monkeypatch.setattr(ContentBasedNetwork, "publish_many", counted)
        system.publish_batch("Temp", burst())
        # the source batch at the source, every result at the processor
        assert [node for node, _ in calls] == [2, 0]
        assert calls[0][1] == 16
        assert calls[1][1] == sum(len(h.results) for h in handles)

    def test_a_share_is_pushed_in_delivery_order(self, pushes):
        system, _ = build()
        assert feed_burst(system, pushes) == []
        assert len({engine for engine, _ in pushes}) == 2

    def test_handles_and_accounting_match_tuple_by_tuple(self):
        batched, batched_handles = build()
        looped, looped_handles = build()
        for start in (1.0, 100.0):
            tuples = burst(start=start)
            batched.publish_batch("Temp", tuples)
            for payload, timestamp in tuples:
                looped.publish("Temp", payload, timestamp)
        assert [h.results for h in batched_handles] == [
            h.results for h in looped_handles
        ]
        assert all(h.results for h in batched_handles)
        # Per-link totals are always exact.  Here the links are also
        # first used in the same order (the order weighted_cost sums
        # in), so the weighted cost is bit-equal too.
        assert batched.network.data_stats.as_dict() == looped.network.data_stats.as_dict()
        assert repr(batched.network.data_stats.weighted_cost()) == repr(
            looped.network.data_stats.weighted_cost()
        )

    def test_a_single_publish_keeps_the_per_delivery_order(self, pushes):
        # One tuple reaching both processors (two groups each): the
        # deliveries come back in the order the per-delivery dispatch
        # returned them, pinned here — processor 1's results, then 0's.
        system, _ = build()
        deliveries = system.publish("Temp", {"station": 1, "celsius": 5.0}, 1.0)
        assert [(d.subscription_id, d.node) for d in deliveries] == [
            ("user:q1:v1", 4),
            ("user:q3:v3", 6),
            ("user:q0:v0", 3),
            ("user:q2:v2", 5),
        ]
        engines = [engine for engine, _ in pushes]
        assert engines == [id(system.processors[n].spe) for n in (1, 1, 0, 0)]


class TestGroupMajorCanary:
    def test_a_group_major_share_is_caught(self, monkeypatch, pushes):
        real = Processor.on_source_batch

        def group_major(self, share):
            return real(self, sorted(share, key=lambda d: d.subscription_id))

        monkeypatch.setattr(Processor, "on_source_batch", group_major)
        system, _ = build()
        assert feed_burst(system, pushes)
