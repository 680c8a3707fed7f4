"""Microbenchmarks of the per-operation primitives.

Not a paper figure — these quantify the substrate costs (parse,
match, join, group) that the system-level experiments are built on and
guard against performance regressions; CBN routing is timed by ``bench/``.
"""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer
from repro.cql.parser import parse_query
from repro.cql.predicates import Comparison, Conjunction
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.spe.engine import StreamProcessingEngine
from repro.workload.auction import TABLE1_Q3, auction_catalog
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog


def test_parse_query_throughput(benchmark):
    query = benchmark(parse_query, TABLE1_Q3)
    assert len(query.streams) == 2


def test_profile_coverage_throughput(benchmark):
    profile = Profile(
        {"S": frozenset({"a"})},
        [Filter("S", Conjunction.from_atoms([Comparison("a", ">", 10)]))],
    )
    datagram = Datagram("S", {"a": 20, "b": 1}, 0.0)
    assert benchmark(profile.covers, datagram)


def test_spe_join_throughput(benchmark):
    catalog = auction_catalog()
    feed = []
    for item in range(50):
        ts = float(item * 60)
        feed.append(
            Datagram(
                "OpenAuction",
                {"itemID": item, "sellerID": 1, "start_price": 1.0, "timestamp": ts},
                ts,
            )
        )
        feed.append(
            Datagram(
                "ClosedAuction",
                {"itemID": item, "buyerID": 2, "timestamp": ts + 30},
                ts + 30,
            )
        )
    feed.sort(key=lambda d: d.timestamp)

    def run():
        spe = StreamProcessingEngine(catalog)
        spe.register(parse_query(TABLE1_Q3), "q3")
        return sum(len(spe.push(d)) for d in feed)

    results = benchmark(run)
    assert results == 50


def test_grouping_add_throughput(benchmark):
    catalog = sensorscope_catalog(rng=random.Random(2))
    workload = QueryWorkload(
        catalog, WorkloadConfig(skew=1.0, join_fraction=0.0, seed=4)
    )
    queries = workload.generate(200)

    def run():
        optimizer = GroupingOptimizer(catalog, CostModel())
        for query in queries:
            optimizer.add(query)
        return optimizer.group_count

    groups = benchmark(run)
    assert 0 < groups < 200


def test_tree_path_throughput(benchmark):
    rng = random.Random(3)
    topo = barabasi_albert(1000, 2, rng)
    tree = DisseminationTree.minimum_spanning(topo)
    pairs = [(rng.randrange(1000), rng.randrange(1000)) for __ in range(100)]

    def run():
        return sum(len(tree.path(a, b)) for a, b in pairs)

    total = benchmark(run)
    assert total > 0
