"""Query distribution policies."""

import pytest

from repro.cql.parser import parse_query
from repro.system.distribution import (
    DistributionError,
    LeastLoadedDistribution,
    ProximityDistribution,
    RoundRobinDistribution,
    StreamAffinityDistribution,
)
from repro.system.node import Processor


@pytest.fixture
def processors(sensor_catalog):
    return [Processor(node, sensor_catalog) for node in (0, 2, 4)]


def q(text):
    return parse_query(text)


class TestRoundRobin:
    def test_cycles(self, processors):
        policy = RoundRobinDistribution()
        query = q("SELECT T.temperature FROM Temp T")
        chosen = [policy.choose(query, 0, processors).node_id for __ in range(6)]
        assert chosen == [0, 2, 4, 0, 2, 4]

    def test_empty_rejected(self):
        with pytest.raises(DistributionError):
            RoundRobinDistribution().choose(q("SELECT T.a FROM T"), 0, [])


class TestLeastLoaded:
    def test_prefers_idle_processor(self, processors):
        policy = LeastLoadedDistribution()
        processors[0].accept(q("SELECT T.temperature FROM Temp T"), name="a")
        chosen = policy.choose(q("SELECT T.humidity FROM Temp T"), 0, processors)
        assert chosen.node_id == 2

    def test_tie_breaks_by_node_id(self, processors):
        policy = LeastLoadedDistribution()
        assert policy.choose(q("SELECT T.temperature FROM Temp T"), 0, processors).node_id == 0


class TestProximity:
    def test_nearest_on_tree(self, line_tree, sensor_catalog):
        processors = [Processor(0, sensor_catalog), Processor(4, sensor_catalog)]
        policy = ProximityDistribution(line_tree)
        assert policy.choose(q("SELECT T.a FROM T"), 1, processors).node_id == 0
        assert policy.choose(q("SELECT T.a FROM T"), 3, processors).node_id == 4


class TestStreamAffinity:
    def test_same_from_set_same_processor(self, processors):
        policy = StreamAffinityDistribution()
        a = policy.choose(q("SELECT T.temperature FROM Temp T"), 0, processors)
        b = policy.choose(q("SELECT x.humidity FROM Temp x"), 7, processors)
        assert a.node_id == b.node_id

    def test_deterministic_across_instances(self, processors):
        query = q("SELECT T.temperature FROM Temp T")
        a = StreamAffinityDistribution().choose(query, 0, processors)
        b = StreamAffinityDistribution().choose(query, 0, processors)
        assert a.node_id == b.node_id

    def test_join_order_irrelevant(self, processors):
        policy = StreamAffinityDistribution()
        a = policy.choose(
            q("SELECT T.station FROM Temp T, Wind W WHERE T.station = W.station"),
            0,
            processors,
        )
        b = policy.choose(
            q("SELECT W.station FROM Wind W, Temp T WHERE T.station = W.station"),
            0,
            processors,
        )
        assert a.node_id == b.node_id


class TestCostAware:
    def test_prefers_on_path_over_detour(self, star_tree, sensor_catalog):
        from repro.system.distribution import CostAwareDistribution

        # Star: source at 1, user at 3; processor 0 (the hub) is on the
        # path, processor 4 is a two-hop detour.
        procs = [Processor(0, sensor_catalog), Processor(4, sensor_catalog)]
        policy = CostAwareDistribution(
            star_tree, sensor_catalog, {"Temp": 1, "Wind": 1}
        )
        chosen = policy.choose(
            q("SELECT T.temperature FROM Temp T"), 3, procs
        )
        assert chosen.node_id == 0

    def test_heavy_result_pulls_processor_toward_user(self, line_tree, sensor_catalog):
        from repro.system.distribution import CostAwareDistribution

        procs = [Processor(1, sensor_catalog), Processor(3, sensor_catalog)]
        policy = CostAwareDistribution(
            line_tree, sensor_catalog, {"Temp": 0, "Wind": 0}
        )
        # Unfiltered wide query: result stream as heavy as the source;
        # the midpoint placements tie on total flow, node id breaks it —
        # but a *filtered* query has a light result, pulling the
        # processor toward the source.
        light_result = policy.choose(
            q("SELECT T.station FROM Temp T WHERE T.temperature >= 38"),
            4,
            procs,
        )
        assert light_result.node_id == 1

    def test_deterministic(self, line_tree, sensor_catalog):
        from repro.system.distribution import CostAwareDistribution

        procs = [Processor(0, sensor_catalog), Processor(2, sensor_catalog)]
        policy = CostAwareDistribution(
            line_tree, sensor_catalog, {"Temp": 0, "Wind": 0}
        )
        query = q("SELECT T.temperature FROM Temp T")
        assert (
            policy.choose(query, 4, procs).node_id
            == policy.choose(query, 4, procs).node_id
        )
