"""Two-layer fault tolerance."""

import random

import pytest

from repro.overlay.topology import Topology, barabasi_albert
from repro.overlay.tree import DisseminationTree
from repro.sim.oracle import check_no_orphans
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.loadmgr import quarantine_for_migration
from repro.system.node import Processor
from repro.system.fault import (
    FaultError,
    PartitionError,
    fail_broker,
    fail_processor,
    repair_tree,
)
from repro.workload.auction import (
    CLOSED_AUCTION_SCHEMA,
    OPEN_AUCTION_SCHEMA,
    TABLE1_Q1,
    TABLE1_Q2,
)


def diamond_topology():
    """0-1, 1-2, 0-3, 3-2: two disjoint routes from 0 to 2."""
    t = Topology()
    t.add_edge(0, 1, 1.0)
    t.add_edge(1, 2, 1.0)
    t.add_edge(0, 3, 1.0)
    t.add_edge(3, 2, 1.0)
    return t


class TestRepairTree:
    def test_leaf_removal_trivial(self):
        topo = diamond_topology()
        tree = DisseminationTree([(0, 1), (1, 2), (0, 3)], {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0})
        repaired = repair_tree(tree, topo, 3)
        assert sorted(repaired.nodes) == [0, 1, 2]
        assert len(repaired.edges) == 2

    def test_interior_removal_reconnects(self):
        topo = diamond_topology()
        tree = DisseminationTree([(0, 1), (1, 2), (0, 3)], {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0})
        repaired = repair_tree(tree, topo, 1)
        assert sorted(repaired.nodes) == [0, 2, 3]
        assert repaired.path(0, 2)  # connected again

    def test_repair_avoids_failed_node_links(self):
        topo = diamond_topology()
        tree = DisseminationTree([(0, 1), (1, 2), (0, 3)], {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0})
        repaired = repair_tree(tree, topo, 1)
        for edge in repaired.edges:
            assert 1 not in edge

    def test_partition_detected(self):
        topo = Topology()
        topo.add_edge(0, 1, 1.0)
        topo.add_edge(1, 2, 1.0)
        tree = DisseminationTree([(0, 1), (1, 2)], {(0, 1): 1.0, (1, 2): 1.0})
        with pytest.raises(PartitionError, match="survivors are partitioned"):
            repair_tree(tree, topo, 1)  # 1 is a physical cut vertex

    def test_unknown_node_is_a_fault_not_a_tree_error(self):
        topo = diamond_topology()
        tree = DisseminationTree([(0, 1), (1, 2), (0, 3)], {(0, 1): 1.0, (1, 2): 1.0, (0, 3): 1.0})
        with pytest.raises(FaultError, match="not in the tree"):
            repair_tree(tree, topo, 9)

    def test_random_tree_repair(self):
        rng = random.Random(5)
        topo = barabasi_albert(40, 2, rng)
        tree = DisseminationTree.minimum_spanning(topo)
        # Remove an interior node (degree > 1).
        victim = max(tree.nodes, key=tree.degree)
        repaired = repair_tree(tree, topo, victim)
        assert len(repaired.nodes) == 39
        assert len(repaired.edges) == 38


@pytest.fixture
def running_system(auction_system_builder):
    # The shared builder: 20 nodes, processors {0, 1}, sources at 2,
    # users at 3 and 4 (so nodes 0-4 must never be failed as brokers).
    return auction_system_builder()


def publish_pair(system, item, open_ts, close_ts):
    system.publish(
        "OpenAuction",
        {"itemID": item, "sellerID": 1, "start_price": 1.0, "timestamp": open_ts},
        open_ts,
    )
    return system.publish(
        "ClosedAuction",
        {"itemID": item, "buyerID": 1, "timestamp": close_ts},
        close_ts,
    )


class TestBrokerFailure:
    def test_delivery_survives_broker_failure(self, running_system):
        system, h1, h2 = running_system
        publish_pair(system, 1, 0.0, 3600.0)
        before = (h1.result_count, h2.result_count)
        assert before == (1, 1)
        # Fail some pure broker that is not source/user/processor.
        protected = {0, 1, 2, 3, 4}
        victim = next(n for n in system.tree.nodes if n not in protected)
        fail_broker(system, victim)
        publish_pair(system, 2, 7200.0, 7200.0 + 3600.0)
        assert (h1.result_count, h2.result_count) == (2, 2)

    def test_failed_broker_gone_from_tree(self, running_system):
        system, __, __ = running_system
        protected = {0, 1, 2, 3, 4}
        victim = next(n for n in system.tree.nodes if n not in protected)
        repaired = fail_broker(system, victim)
        assert victim not in repaired

    def test_failed_broker_leaves_the_routing_tree(self, auction_system_builder):
        # 30-node deployment: processors 0/1, sources at 2, users 3/4.
        system, __, __ = auction_system_builder(n_nodes=30)
        victim = 5
        fail_broker(system, victim)
        assert victim not in system.tree
        assert system.network.tree is system.tree
        assert victim not in system.network.tree.nodes

    def test_failing_a_broker_twice_is_refused(self, running_system):
        # Used to leak overlay.tree.TreeError("unknown node ..."), which
        # no caller catches: a chaos schedule crashing one broker twice
        # aborted with a traceback instead of recording a refusal.
        system, __, __ = running_system
        victim = next(n for n in system.tree.nodes if n not in {0, 1, 2, 3, 4})
        fail_broker(system, victim)
        tree, network = system.tree, system.network
        with pytest.raises(FaultError, match="not in the tree"):
            fail_broker(system, victim)
        assert system.tree is tree and system.network is network

    def test_processor_cannot_fail_as_broker(self, running_system):
        system, __, __ = running_system
        with pytest.raises(FaultError):
            fail_broker(system, 0)

    def test_source_host_protected(self, running_system):
        system, __, __ = running_system
        with pytest.raises(FaultError):
            fail_broker(system, 2)

    def test_needs_topology(self, line_tree):
        system = CosmosSystem(line_tree, processor_nodes=[0])
        with pytest.raises(FaultError):
            fail_broker(system, 3)



class TestProcessorFailure:
    def test_queries_rehomed(self, running_system):
        system, h1, h2 = running_system
        victims = {h1.processor_node, h2.processor_node}
        assert len(victims) == 1  # stream affinity puts both together
        victim = victims.pop()
        rehomed = fail_processor(system, victim)
        assert sorted(rehomed) == ["q1", "q2"]
        survivors = {h.processor_node for h in system.queries}
        assert victim not in survivors

    def test_delivery_resumes_after_rehoming(self, running_system):
        system, h1, __ = running_system
        victim = h1.processor_node
        fail_processor(system, victim)
        new_h1 = system.query("q1")
        publish_pair(system, 5, 0.0, 1800.0)
        assert new_h1.result_count == 1

    def test_last_processor_protected(self, line_tree):
        system = CosmosSystem(line_tree, processor_nodes=[2])
        with pytest.raises(FaultError):
            fail_processor(system, 2)

    def test_non_processor_rejected(self, running_system):
        system, __, __ = running_system
        with pytest.raises(FaultError):
            fail_processor(system, 7)


class TestRehomingStateCarryOver:
    def test_results_preserved_in_chronological_order(self, running_system):
        system, h1, __ = running_system
        publish_pair(system, 1, 0.0, 3600.0)
        pre_failure = list(h1.results)
        assert pre_failure  # the fixture queries do match this pair
        fail_processor(system, h1.processor_node)
        new_h1 = system.query("q1")
        assert new_h1.results == pre_failure
        publish_pair(system, 2, 7200.0, 7200.0 + 3600.0)
        # Old results come first; new results are appended after them.
        assert new_h1.results[: len(pre_failure)] == pre_failure
        assert new_h1.result_count == len(pre_failure) + 1

    def test_a_handle_taken_before_the_crash_survives(self, running_system):
        system, h1, __ = running_system
        fail_processor(system, h1.processor_node)
        assert system.query("q1") is h1
        assert h1.processor_node in system.processors
        publish_pair(system, 5, 0.0, 1800.0)
        assert h1.result_count == 1

    def test_a_migrating_orphan_is_resumed_where_it_lands(self, running_system):
        # The move its group was quarantined for is superseded by the
        # re-homing, which resumes it on the processor it landed on.
        system, h1, h2 = running_system
        victim = h1.processor_node
        group = system.processors[victim].manager.grouping.group_of("q1")
        assert quarantine_for_migration(system, victim, group.group_id) == ["q1", "q2"]
        fail_processor(system, victim)
        assert (h1.status, h2.status) == (QueryStatus.ACTIVE, QueryStatus.ACTIVE)
        assert check_no_orphans(system) == []
        publish_pair(system, 5, 0.0, 1800.0)
        assert h1.result_count == 1

    def test_submit_failure_does_not_abort_rehoming(self, running_system, monkeypatch):
        system, h1, h2 = running_system
        victim = h1.processor_node
        original = Processor.accept

        def flaky(self, query, name=None):
            if query.name == "q1":
                raise RuntimeError("injected re-homing failure")
            return original(self, query, name=name)

        # fail_processor re-homes each orphan through Processor.accept
        monkeypatch.setattr(Processor, "accept", flaky)
        with pytest.raises(FaultError, match="q1"):
            fail_processor(system, victim)
        # q2 was still re-homed despite q1's failure...
        assert system.query("q2").processor_node != victim
        # ...and q1 left no dangling state behind.
        with pytest.raises(Exception):
            system.query("q1")
        assert "q1" not in system._user_subscriptions
        # The system still works end to end for the survivor.
        publish_pair(system, 3, 0.0, 1800.0)
        assert system.query("q2").result_count >= 1


class TestPublishManyUnderFailure:
    """Batched and per-datagram publication stay identical while the
    tree is repeatedly repaired around failed brokers.

    The fast-path property suite only exercises fault-free
    interleavings; this regression drives twin systems through the same
    ``fail_broker`` sequence, publishing each round's feed per-datagram
    in one and via ``publish_many`` in the other.
    """

    @staticmethod
    def _snapshot(deliveries):
        return [(d.subscription_id, d.node, d.datagram) for d in deliveries]

    @staticmethod
    def _round_feed(round_index):
        from repro.cbn.datagram import Datagram

        base = 7200.0 * round_index
        out = []
        for item in range(3):
            out.append(
                Datagram(
                    "OpenAuction",
                    {
                        "itemID": round_index * 10 + item,
                        "sellerID": 1,
                        "start_price": 1.0,
                        "timestamp": base + item,
                    },
                    base + item,
                )
            )
            out.append(
                Datagram(
                    "ClosedAuction",
                    {
                        "itemID": round_index * 10 + item,
                        "buyerID": 2,
                        "timestamp": base + 1800.0 + item,
                    },
                    base + 1800.0 + item,
                )
            )
        return out

    def test_batched_equals_per_datagram_across_failures(
        self, auction_system_builder
    ):
        system_a, *_ = auction_system_builder()
        system_b, *_ = auction_system_builder()
        protected = {0, 1, 2, 3, 4}
        failed = set()
        for round_index in range(4):
            feed = self._round_feed(round_index)
            per_datagram = [system_a.network.publish_many([d], 2)[0] for d in feed]
            batched = system_b.network.publish_many(feed, 2)
            assert [self._snapshot(per) for per in per_datagram] == [
                self._snapshot(per) for per in batched
            ]
            assert (
                system_a.network.data_stats.as_dict()
                == system_b.network.data_stats.as_dict()
            )
            assert (
                system_a.network.routing_state_size()
                == system_b.network.routing_state_size()
            )
            if round_index == 3:
                break
            # Fail the same (still-alive, unprotected) broker in both.
            for victim in system_a.tree.nodes:
                if victim in protected or victim in failed:
                    continue
                try:
                    fail_broker(system_a, victim)
                except FaultError:
                    continue  # physically partitioned: try the next one
                fail_broker(system_b, victim)
                failed.add(victim)
                break
            else:
                pytest.fail("no repairable victim left")


class TestRepairKeepsOffPathRoutesWarm:
    """A repair redoes the routing state on the paths it broke, so a
    stream routed elsewhere is not reported to the network's facts and
    keeps replaying its cached routes."""

    def test_stream_off_the_failed_path_compiles_nothing(self, monkeypatch):
        from repro.cbn import filters

        # hub 0 (the processor) with three legs of three brokers; the
        # only physical shortcut bridges broker 8 on the third leg.
        tree_edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
        topology = Topology()
        for edge in tree_edges + [(7, 9)]:
            topology.add_edge(*edge, 1.0)
        tree = DisseminationTree(tree_edges, {e: 1.0 for e in tree_edges})
        system = CosmosSystem(tree, processor_nodes=[0], topology=topology)
        system.add_source(OPEN_AUCTION_SCHEMA, 3)
        system.add_source(CLOSED_AUCTION_SCHEMA, 9)
        opened = system.submit(
            "SELECT O.itemID FROM OpenAuction O WHERE O.start_price >= 0.5",
            user_node=6,
            name="opened",
        )
        closed = system.submit(
            "SELECT C.itemID FROM ClosedAuction C WHERE C.buyerID >= 0",
            user_node=6,
            name="closed",
        )
        publish_pair(system, 1, 0.0, 60.0)
        assert (opened.result_count, closed.result_count) == (1, 1)

        # every stream a routing change reports, at every surviving table
        reported = []
        for node in tree.nodes:
            table = system.network.table(node)

            def report(streams, bump=table.on_change):
                reported.extend(streams)
                bump(streams)

            table.on_change = report
        compiled = []
        init = filters.Matcher.__init__

        def counting(matcher, *args):
            compiled.append(args)
            init(matcher, *args)

        monkeypatch.setattr(filters.Matcher, "__init__", counting)
        fail_broker(system, 8)
        # OpenAuction and its results never crossed 8: the repair re-laid
        # only ClosedAuction's entries (three withdrawn, two laid through
        # 7-9), with the profile and matcher they already had
        assert sorted(reported) == ["ClosedAuction"] * 5
        assert compiled == []
        before = system.network.route_cache_stats()
        system.publish(
            "OpenAuction",
            {"itemID": 2, "sellerID": 1, "start_price": 20.0, "timestamp": 120.0},
            120.0,
        )
        assert opened.result_count == 2
        after = system.network.route_cache_stats()
        # the tuple and its result both replayed a route cached before
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 2
        system.publish("ClosedAuction", {"itemID": 2, "buyerID": 1, "timestamp": 180.0}, 180.0)
        assert closed.result_count == 2  # re-laid through 7-9
        last = system.network.route_cache_stats()
        # ClosedAuction's facts went with its entries: its tuple walked,
        # while its result, routed off the failed path, replayed
        assert last["misses"] == after["misses"] + 1
        assert last["hits"] == after["hits"] + 1
        assert compiled == []
