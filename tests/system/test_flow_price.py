"""One price for a flow: placement, migration and the optimizer agree.

``CostModel.group_flows`` enumerates a group's flows and
``DisseminationTree.flow_cost`` prices them.  Over randomly populated
deployments, the optimizer's demand matrix is every group's flows
concatenated, load management's price of a group on its own processor is
the price of that group's slice, and per-query cost-aware placement is the
group of one — all bit for bit.
"""

import random

import pytest

from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.system.cosmos import CosmosSystem
from repro.system.distribution import CostAwareDistribution
from repro.system.loadmgr import placement_cost
from repro.system.tuning import traffic_demands
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import sensorscope_catalog


def populated_system(seed, merging):
    """30 nodes, three processors, six sensor streams (one without a
    source node), 40 zipf queries (joins included) from random users."""
    rng = random.Random(seed)
    topology = barabasi_albert(30, 2, rng)
    tree = DisseminationTree.minimum_spanning(topology)
    system = CosmosSystem(
        tree, processor_nodes=[0, 1, 2], topology=topology, merging=merging
    )
    catalog = sensorscope_catalog(6, rng=random.Random(seed))
    schemas = sorted(catalog, key=lambda s: s.name)
    for index, schema in enumerate(schemas[:-1]):
        system.add_source(schema, 10 + index)
    system.catalog.register(schemas[-1])
    workload = QueryWorkload(
        system.catalog, WorkloadConfig(skew=1.0, join_fraction=0.3, seed=seed)
    )
    for query in workload.generate(40):
        system.submit(query, user_node=rng.randrange(30))
    return system


def expected_length(system, group):
    """How many flows a group has, counted without ``group_flows``."""
    pulls = sum(
        1 for ref in group.representative.streams if ref.stream in system._sources
    )
    return pulls + sum(1 for member in group.members if member.name in system._queries)


@pytest.mark.parametrize("merging", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_placement_prices_the_groups_slice_of_the_demands(seed, merging):
    system = populated_system(seed, merging)
    demands = traffic_demands(system)
    offset = 0
    for processor in system.processors.values():
        for group in processor.manager.groups:
            end = offset + expected_length(system, group)
            flows = demands[offset:end]
            # the representative's pulls end at the processor, then the
            # members' pushes leave it
            pulls = len(flows) - len(group.members)
            assert all(sink == processor.node_id for __, sink, __ in flows[:pulls])
            assert all(source == processor.node_id for source, __, __ in flows[pulls:])
            assert placement_cost(system, group, processor.node_id) == (
                system.tree.flow_cost(flows)
            )
            offset = end
    assert offset == len(demands)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cost_aware_placement_is_the_group_of_one(seed):
    system = populated_system(seed, merging=False)
    policy = CostAwareDistribution(system.tree, system.catalog, system._sources)
    checked = 0
    for processor in system.processors.values():
        for group in processor.manager.groups:
            (member,) = group.members
            handle = system.query(member.name)
            for node in system.processors:
                assert policy._query_cost(
                    handle.query, node, handle.user_node
                ) == placement_cost(system, group, node)
                checked += 1
    assert checked == 3 * 40
