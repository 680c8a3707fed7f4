"""Query distribution policies."""

import pytest

from repro.cql.parser import parse_query
from repro.system.distribution import (
    CostAwareDistribution,
    DistributionError,
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

    def test_instances_cycle_independently(self, processors):
        query = q("SELECT T.temperature FROM Temp T")
        first, second = RoundRobinDistribution(), RoundRobinDistribution()
        first.choose(query, 0, processors)
        first.choose(query, 0, processors)
        assert second.choose(query, 0, processors).node_id == 0


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

    def test_load_does_not_move_the_choice(self, processors):
        # Affinity keeps a FROM set together however busy its processor
        # gets: grouping opportunities outrank balance.
        policy = StreamAffinityDistribution()
        query = q("SELECT T.temperature FROM Temp T")
        chosen = policy.choose(query, 0, processors)
        for i in range(5):
            chosen.accept(q(f"SELECT T.humidity FROM Temp T WHERE T.station = {i}"))
        assert policy.choose(query, 0, processors) is chosen


def every_policy(line_tree, sensor_catalog):
    return {
        "round-robin": RoundRobinDistribution(),
        "affinity": StreamAffinityDistribution(),
        "cost-aware": CostAwareDistribution(
            line_tree, sensor_catalog, {"Temp": 0, "Wind": 4}
        ),
    }


@pytest.mark.parametrize("name", ["round-robin", "affinity", "cost-aware"])
class TestEveryPolicy:
    def test_picks_an_offered_processor(
        self, name, line_tree, sensor_catalog, processors
    ):
        policy = every_policy(line_tree, sensor_catalog)[name]
        for text in (
            "SELECT T.temperature FROM Temp T",
            "SELECT W.speed FROM Wind W",
            "SELECT T.station FROM Temp T, Wind W WHERE T.station = W.station",
        ):
            assert policy.choose(q(text), 1, processors) in processors

    def test_empty_rejected(self, name, line_tree, sensor_catalog):
        policy = every_policy(line_tree, sensor_catalog)[name]
        with pytest.raises(DistributionError):
            policy.choose(q("SELECT T.temperature FROM Temp T"), 0, [])


class TestCostAware:
    def test_prefers_on_path_over_detour(self, star_tree, sensor_catalog):
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
        procs = [Processor(0, sensor_catalog), Processor(2, sensor_catalog)]
        policy = CostAwareDistribution(
            line_tree, sensor_catalog, {"Temp": 0, "Wind": 0}
        )
        query = q("SELECT T.temperature FROM Temp T")
        assert (
            policy.choose(query, 4, procs).node_id
            == policy.choose(query, 4, procs).node_id
        )
