"""Consistent hashing ring and the replicated DHT store."""

import pytest

from repro.cbn.dht import ConsistentHashRing, DHTError, DHTStore


class TestRing:
    def test_owner_deterministic(self):
        ring = ConsistentHashRing(range(10))
        assert ring.owner("streamA") == ring.owner("streamA")

    def test_owner_in_members(self):
        ring = ConsistentHashRing(range(10))
        assert ring.owner("x") in ring.nodes

    def test_empty_ring_raises(self):
        with pytest.raises(DHTError):
            ConsistentHashRing().owner("x")

    def test_owners_distinct(self):
        ring = ConsistentHashRing(range(10))
        owners = ring.owners("x", 3)
        assert len(owners) == len(set(owners)) == 3

    def test_owners_capped_at_ring_size(self):
        ring = ConsistentHashRing(range(2))
        assert len(ring.owners("x", 5)) == 2

    def test_add_node_idempotent(self):
        ring = ConsistentHashRing([1])
        ring.add_node(1)
        assert len(ring) == 1

    def test_remove_node(self):
        ring = ConsistentHashRing(range(5))
        ring.remove_node(3)
        assert 3 not in ring.nodes
        for key in ("a", "b", "c"):
            assert ring.owner(key) != 3

    def test_remove_unknown_raises(self):
        with pytest.raises(DHTError):
            ConsistentHashRing(range(3)).remove_node(99)

    def test_removal_only_moves_affected_keys(self):
        ring = ConsistentHashRing(range(20))
        keys = [f"stream-{i}" for i in range(100)]
        before = {k: ring.owner(k) for k in keys}
        victim = ring.owner("stream-0")
        ring.remove_node(victim)
        moved = sum(
            1 for k in keys if before[k] != ring.owner(k)
        )
        # Only keys owned by the removed node (≈ 1/20th) should move.
        owned_by_victim = sum(1 for k in keys if before[k] == victim)
        assert moved == owned_by_victim

    def test_balance_roughly_uniform(self):
        ring = ConsistentHashRing(range(10), vnodes=64)
        counts = {node: 0 for node in range(10)}
        for i in range(2000):
            counts[ring.owner(f"key-{i}")] += 1
        assert max(counts.values()) < 6 * min(counts.values()) + 1

    def test_bad_vnodes(self):
        with pytest.raises(DHTError):
            ConsistentHashRing(vnodes=0)


class TestStore:
    def test_put_get(self):
        store = DHTStore(ConsistentHashRing(range(5)))
        store.put("k", "v")
        assert store.get("k") == "v"

    def test_put_overwrites(self):
        store = DHTStore(ConsistentHashRing(range(5)), replicas=2)
        store.put("k", "v1")
        owners = store.put("k", "v2")
        assert store.get("k") == "v2"
        assert all("k" in store.keys_on(node) for node in owners)

    def test_put_places_on_the_ring_owners(self):
        ring = ConsistentHashRing(range(8))
        store = DHTStore(ring, replicas=3)
        owners = store.put("k", "v")
        assert owners == ring.owners("k", 3)
        holders = {node for node in ring.nodes if "k" in store.keys_on(node)}
        assert holders == set(owners)

    def test_get_missing(self):
        store = DHTStore(ConsistentHashRing(range(5)))
        assert store.get("nope") is None

    def test_replication_survives_primary_failure(self):
        ring = ConsistentHashRing(range(10))
        store = DHTStore(ring, replicas=3)
        owners = store.put("k", "v")
        store.fail_node(owners[0])
        assert store.get("k") == "v"

    def test_single_replica_lost_on_failure(self):
        ring = ConsistentHashRing(range(10))
        store = DHTStore(ring, replicas=1)
        owners = store.put("k", "v")
        store.fail_node(owners[0])
        assert store.get("k") is None

    def test_keys_on(self):
        ring = ConsistentHashRing(range(3))
        store = DHTStore(ring)
        owners = store.put("k", "v")
        assert "k" in store.keys_on(owners[0])

    def test_bad_replicas(self):
        with pytest.raises(DHTError):
            DHTStore(ConsistentHashRing(range(3)), replicas=0)

    def test_failed_node_leaves_the_ring(self):
        ring = ConsistentHashRing(range(5))
        store = DHTStore(ring)
        store.fail_node(3)
        assert 3 not in ring.nodes
        assert store.keys_on(3) == set()

    def test_reregistration_restores_lost_key(self):
        ring = ConsistentHashRing(range(5))
        store = DHTStore(ring, replicas=1)
        owners = store.put("k", "v")
        store.fail_node(owners[0])
        assert store.get("k") is None
        new_owners = store.put("k", "v2")
        assert store.get("k") == "v2"
        assert owners[0] not in new_owners


class TestSchemaReResolution:
    """Schema lookups through the DHT registry after node loss."""

    def _registry(self, replicas):
        import random

        from repro.cbn.schema_registry import DHTSchemaRegistry
        from repro.overlay.topology import barabasi_albert
        from repro.overlay.tree import DisseminationTree

        topology = barabasi_albert(12, 2, random.Random(4))
        tree = DisseminationTree.minimum_spanning(topology)
        return DHTSchemaRegistry(tree, replicas=replicas)

    def _schema(self):
        from repro.cql.schema import Attribute, StreamSchema

        return StreamSchema(
            "Temp", [Attribute("station", "int", 0, 9)], rate=1.0
        )

    def test_replicated_lookup_survives_primary_loss(self):
        registry = self._registry(replicas=2)
        schema = self._schema()
        registry.register(schema, 0)
        primary = registry._store.ring.owners("Temp", 1)[0]
        registry._store.fail_node(primary)
        resolved = registry.lookup("Temp", 0)
        assert resolved == schema
        # The key re-resolves to a different owner now.
        assert registry._store.ring.owners("Temp", 1)[0] != primary

    def test_unreplicated_loss_needs_reregistration(self):
        registry = self._registry(replicas=1)
        schema = self._schema()
        registry.register(schema, 0)
        primary = registry._store.ring.owners("Temp", 1)[0]
        registry._store.fail_node(primary)
        assert registry.lookup("Temp", 0) is None
        registry.register(schema, 0)
        assert registry.lookup("Temp", 0) == schema
