"""Ablations of the design choices DESIGN.md calls out.

These are our additions beyond the paper's own evaluation: each
benchmark isolates one mechanism of the architecture and quantifies
what it buys.

1. early projection in the CBN (on/off) — data bytes moved;
2. greedy grouping vs no grouping vs duplicates-only grouping —
   estimated output rate;
3. flooded vs DHT schema distribution — control traffic;
4. overlay optimizer (on/off) — delay-weighted tree cost;
5. incremental greedy vs periodic re-grouping — benefit ratio;
6. Theorem 1 window widening vs equal windows only — benefit ratio;
7. query distribution policy — grouping ratio and measured bytes.
"""

import random

import pytest

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.cbn.network import ContentBasedNetwork
from repro.cbn.schema_registry import DHTSchemaRegistry, FloodedSchemaRegistry
from repro.core.containment import equivalent
from repro.core.cost import CostModel
from repro.core.grouping import GroupingOptimizer
from repro.experiments.runner import render_table
from repro.overlay.optimizer import OverlayOptimizer
from repro.overlay.topology import barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.workload.queries import QueryWorkload, WorkloadConfig
from repro.workload.sensorscope import SensorScopeReplayer, sensorscope_catalog


# ---------------------------------------------------------------------------
# 1. Early projection
# ---------------------------------------------------------------------------


def _projection_scenario(early_projection: bool) -> float:
    """Bytes moved delivering narrow subscriptions of a wide stream."""
    rng = random.Random(3)
    catalog = sensorscope_catalog(1, rng=random.Random(3))
    schema = catalog.get("ss00")
    topo = barabasi_albert(60, 2, rng)
    tree = DisseminationTree.minimum_spanning(topo)
    net = ContentBasedNetwork(tree, catalog)
    net.advertise("ss00", 0, schema)
    for index in range(8):
        if early_projection:
            projection = frozenset({"station", "ambient_temperature"})
        else:
            projection = ALL_ATTRIBUTES
        net.subscribe(
            Profile({"ss00": projection}), rng.randrange(1, 60), f"u{index}"
        )
    feed = SensorScopeReplayer(catalog, random.Random(4)).feed(30.0)
    net.publish_many(feed, 0)
    return net.data_stats.total_bytes()


def test_ablation_early_projection(benchmark, report):
    with_projection = _projection_scenario(True)
    without = benchmark.pedantic(
        _projection_scenario, args=(False,), rounds=1, iterations=1
    )
    report(
        "ablation_early_projection",
        render_table(
            ["mode", "data bytes"],
            [["projection (P sets)", with_projection], ["full datagrams", without]],
            "Ablation: early projection in the CBN",
        ),
    )
    # The paper's motivation for extending CBN with projections: a large
    # fraction of the bytes never needed to travel.
    assert with_projection < 0.5 * without


# ---------------------------------------------------------------------------
# 2. Grouping policies
# ---------------------------------------------------------------------------


class _DuplicatesOnlyOptimizer(GroupingOptimizer):
    """Merging restricted to semantically equivalent queries.

    Isolates how much of the benefit needs the paper's *containment*
    machinery (window widening, predicate hulls) versus plain duplicate
    elimination.
    """

    def add(self, query):
        query = query.canonical(self.catalog)
        key = self._structure_key(query)
        for group_id in self._index.get(key, ()):
            group = self._groups[group_id]
            if equivalent(group.representative, query, self.catalog):
                group.members.append(query)
                self._group_of_query[query.name] = group.group_id
                from repro.core.grouping import GroupingDecision

                return GroupingDecision(query, group, False, 0.0)
        rate = self.cost_model.result_rate(query, self.catalog)
        widths = self.cost_model.column_widths(query, self.catalog)
        group = self._new_group(query, rate, widths)
        from repro.core.grouping import GroupingDecision

        return GroupingDecision(query, group, True, 0.0)


def _grouping_policy_run(policy: str, n: int = 600, skew: float = 1.5) -> float:
    catalog = sensorscope_catalog(rng=random.Random(1))
    workload = QueryWorkload(
        catalog, WorkloadConfig(skew=skew, join_fraction=0.0, seed=9)
    )
    if policy == "none":
        optimizer = GroupingOptimizer(
            catalog, CostModel(), merging=False
        )
    elif policy == "duplicates":
        optimizer = _DuplicatesOnlyOptimizer(catalog, CostModel())
    else:
        optimizer = GroupingOptimizer(catalog, CostModel())
    for query in workload.generate(n):
        optimizer.add(query)
    return optimizer.benefit_ratio()


def test_ablation_grouping_policies(benchmark, report):
    greedy = benchmark.pedantic(
        _grouping_policy_run, args=("greedy",), rounds=1, iterations=1
    )
    duplicates = _grouping_policy_run("duplicates")
    none = _grouping_policy_run("none")
    report(
        "ablation_grouping_policies",
        render_table(
            ["policy", "benefit ratio"],
            [
                ["no grouping", none],
                ["duplicates only", duplicates],
                ["greedy containment merging (paper)", greedy],
            ],
            "Ablation: grouping policy",
        ),
    )
    assert none == 0.0
    assert greedy > duplicates > 0.0


# ---------------------------------------------------------------------------
# 3. Schema distribution
# ---------------------------------------------------------------------------


def _schema_traffic(kind: str, n_streams: int, n_lookups: int) -> float:
    rng = random.Random(8)
    topo = barabasi_albert(120, 2, rng)
    tree = DisseminationTree.minimum_spanning(topo)
    registry = (
        FloodedSchemaRegistry(tree) if kind == "flooded" else DHTSchemaRegistry(tree)
    )
    catalog = sensorscope_catalog(n_streams, rng=random.Random(8))
    for schema in catalog:
        registry.register(schema, rng.randrange(120))
    for __ in range(n_lookups):
        name = f"ss{rng.randrange(n_streams):02d}"
        registry.lookup(name, rng.randrange(120))
    return registry.stats.total_bytes()


def test_ablation_schema_distribution(benchmark, report):
    """The paper's rule: flood when streams are few, DHT otherwise."""
    rows = []
    for n_streams, n_lookups in ((5, 50), (63, 50)):
        flooded = _schema_traffic("flooded", n_streams, n_lookups)
        dht = _schema_traffic("dht", n_streams, n_lookups)
        rows.append([f"{n_streams} streams", flooded, dht])
    benchmark.pedantic(
        _schema_traffic, args=("dht", 63, 50), rounds=1, iterations=1
    )
    report(
        "ablation_schema_distribution",
        render_table(
            ["scenario", "flooded bytes", "DHT bytes"],
            rows,
            "Ablation: schema distribution",
        ),
    )
    # With many streams the DHT moves far fewer bytes than flooding.
    assert rows[1][2] < rows[1][1]


# ---------------------------------------------------------------------------
# 4. Overlay optimizer
# ---------------------------------------------------------------------------


def test_ablation_overlay_optimizer(benchmark, report):
    rng = random.Random(12)
    topo = barabasi_albert(60, 3, rng)
    tree = DisseminationTree.minimum_spanning(topo)
    demands = [
        (rng.randrange(60), rng.randrange(60), rng.uniform(1.0, 10.0))
        for __ in range(25)
    ]
    optimizer = OverlayOptimizer(topo)
    before = optimizer.tree_cost(tree, demands)
    improved, opt_report = benchmark.pedantic(
        optimizer.optimize, args=(tree, demands), kwargs={"max_rounds": 6},
        rounds=1, iterations=1,
    )
    report(
        "ablation_overlay_optimizer",
        render_table(
            ["tree", "delay-weighted cost"],
            [["MST (static)", before], ["after local reorganisation", opt_report.final_cost]],
            "Ablation: adaptive overlay reorganisation",
        ),
    )
    assert opt_report.final_cost < before
    assert len(improved.edges) == len(tree.edges)


# ---------------------------------------------------------------------------
# 5. Incremental greedy vs periodic re-grouping
# ---------------------------------------------------------------------------


def test_ablation_periodic_regrouping(benchmark, report):
    """The paper's greedy is order-sensitive; periodic re-grouping
    (re-inserting all queries, largest flows first) recovers part of
    the loss at the cost of churning the running representatives."""
    catalog = sensorscope_catalog(rng=random.Random(1))
    workload = QueryWorkload(
        catalog, WorkloadConfig(skew=1.0, join_fraction=0.0, seed=5)
    )
    queries = workload.generate(800)

    def run():
        optimizer = GroupingOptimizer(catalog, CostModel())
        for query in queries:
            optimizer.add(query)
        incremental = optimizer.benefit_ratio()
        optimizer.reoptimize()
        return incremental, optimizer.benefit_ratio()

    incremental, regrouped = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "ablation_periodic_regrouping",
        render_table(
            ["policy", "benefit ratio"],
            [
                ["incremental greedy (paper)", incremental],
                ["+ periodic re-grouping", regrouped],
            ],
            "Ablation: incremental greedy vs periodic re-grouping",
        ),
    )
    assert regrouped >= incremental


# ---------------------------------------------------------------------------
# 6. Containment strictness: Theorem 1 window widening vs equal windows only
# ---------------------------------------------------------------------------


class _EqualWindowsOptimizer(GroupingOptimizer):
    """Greedy merging restricted to members with identical windows.

    Disables the Theorem 1 direction (windows may widen to the
    per-stream maximum) to quantify how much benefit window widening
    itself contributes.
    """

    def add(self, query):
        query = query.canonical(self.catalog)
        original = GroupingOptimizer.add
        # Temporarily shrink the candidate set: only groups whose
        # representative has exactly this query's windows can host it.
        key = self._structure_key(query)
        compatible = []
        for group_id in self._index.get(key, ()):
            group = self._groups[group_id]
            rep_windows = {r.stream: r.window for r in group.representative.streams}
            q_windows = {r.stream: r.window for r in query.streams}
            if rep_windows == q_windows:
                compatible.append(group_id)
        saved = self._index.get(key)
        self._index[key] = compatible
        try:
            return original(self, query)
        finally:
            if saved is not None:
                if self._group_of_query.get(query.name) is not None:
                    new_gid = self._group_of_query[query.name]
                    if new_gid not in saved:
                        saved = saved + [new_gid]
                self._index[key] = saved


def test_ablation_window_widening(benchmark, report):
    catalog = sensorscope_catalog(rng=random.Random(1))
    workload = QueryWorkload(
        catalog, WorkloadConfig(skew=1.5, join_fraction=0.0, seed=11)
    )
    queries = workload.generate(600)

    def run(cls):
        optimizer = cls(catalog, CostModel())
        for query in queries:
            optimizer.add(query)
        return optimizer.benefit_ratio(), optimizer.grouping_ratio()

    full_benefit, full_grouping = benchmark.pedantic(
        run, args=(GroupingOptimizer,), rounds=1, iterations=1
    )
    strict_benefit, strict_grouping = run(_EqualWindowsOptimizer)
    report(
        "ablation_window_widening",
        render_table(
            ["policy", "benefit ratio", "grouping ratio"],
            [
                ["equal windows only", strict_benefit, strict_grouping],
                ["Theorem 1 window widening (paper)", full_benefit, full_grouping],
            ],
            "Ablation: containment strictness",
        ),
    )
    # Widening merges across window sizes: fewer groups, more benefit.
    assert full_grouping <= strict_grouping
    assert full_benefit >= strict_benefit


# ---------------------------------------------------------------------------
# 7. Query distribution policy: affinity vs cost-aware placement
# ---------------------------------------------------------------------------


def test_ablation_placement_policy(benchmark, report):
    """Stream-affinity placement concentrates same-FROM queries on one
    processor (maximum merging); per-query cost-aware placement (the
    operator-placement paradigm) shortens paths but splits groups.
    The ablation quantifies both effects on one workload."""
    from repro.system.cosmos import CosmosSystem
    from repro.system.distribution import (
        CostAwareDistribution,
        RoundRobinDistribution,
        StreamAffinityDistribution,
    )
    from repro.workload.sensorscope import SensorScopeReplayer

    def run(policy_name):
        rng = random.Random(31)
        catalog = sensorscope_catalog(6, rng=random.Random(31))
        topo = barabasi_albert(60, 2, rng)
        tree = DisseminationTree.minimum_spanning(topo)
        source_nodes = {}
        system = CosmosSystem(tree, processor_nodes=[0, 1, 2, 3], topology=topo)
        for index, schema in enumerate(sorted(catalog, key=lambda s: s.name)):
            system.add_source(schema, 20 + index)
            source_nodes[schema.name] = 20 + index
        if policy_name == "cost-aware":
            system.distribution = CostAwareDistribution(
                tree, catalog, source_nodes, CostModel()
            )
        elif policy_name == "round-robin":
            system.distribution = RoundRobinDistribution()
        else:
            system.distribution = StreamAffinityDistribution()
        workload = QueryWorkload(
            catalog, WorkloadConfig(skew=1.5, join_fraction=0.0, seed=8)
        )
        for query in workload.generate(120):
            system.submit(query, user_node=rng.randrange(60))
        feed = SensorScopeReplayer(catalog, random.Random(32)).feed(15.0)
        system.replay(feed)
        summary = system.grouping_summary()
        return summary["grouping_ratio"], system.network.data_stats.total_bytes()

    affinity = benchmark.pedantic(run, args=("affinity",), rounds=1, iterations=1)
    cost_aware = run("cost-aware")
    round_robin = run("round-robin")
    report(
        "ablation_placement",
        render_table(
            ["policy", "grouping ratio", "measured data bytes"],
            [
                ["stream affinity", affinity[0], affinity[1]],
                ["cost-aware placement", cost_aware[0], cost_aware[1]],
                ["round robin", round_robin[0], round_robin[1]],
            ],
            "Ablation: query distribution policy",
        ),
    )
    # Affinity always groups at least as tightly as the splitters.
    assert affinity[0] <= cost_aware[0] + 1e-9
    assert affinity[0] <= round_robin[0] + 1e-9
