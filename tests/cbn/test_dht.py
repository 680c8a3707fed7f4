"""Consistent hashing ring and the replicated DHT store."""

import pytest

from repro.cbn.dht import ConsistentHashRing, DHTError, DHTStore


def _new_primary(ring, key):
    """Add to ``ring`` (nodes ``0..n-1``) the first new node id that
    becomes ``key``'s primary owner."""
    newcomer = len(ring)
    while ConsistentHashRing([*range(len(ring)), newcomer]).owners(key, 1) != [newcomer]:
        newcomer += 1
    ring.add_node(newcomer)
    return newcomer


class TestRing:
    def test_owner_deterministic(self):
        ring = ConsistentHashRing(range(10))
        assert ring.owners("streamA", 1) == ring.owners("streamA", 1)

    def test_owner_in_members(self):
        ring = ConsistentHashRing(range(10))
        assert ring.owners("x", 1)[0] in range(10)

    def test_empty_ring_raises(self):
        with pytest.raises(DHTError):
            ConsistentHashRing().owners("x", 1)

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

    def test_balance_roughly_uniform(self):
        ring = ConsistentHashRing(range(10), vnodes=64)
        counts = {node: 0 for node in range(10)}
        for i in range(2000):
            counts[ring.owners(f"key-{i}", 1)[0]] += 1
        assert max(counts.values()) < 6 * min(counts.values()) + 1

    def test_a_new_node_takes_over_only_the_keys_it_now_owns(self):
        ring = ConsistentHashRing(range(20))
        keys = [f"stream-{i}" for i in range(100)]
        before = {k: ring.owners(k, 1)[0] for k in keys}
        ring.add_node(20)
        moved = {k for k in keys if ring.owners(k, 1)[0] != before[k]}
        assert moved == {k for k in keys if ring.owners(k, 1)[0] == 20}
        assert 0 < len(moved) < len(keys) // 4

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
        assert all(store._storage[node]["k"] == "v2" for node in owners)

    def test_put_places_on_the_ring_owners(self):
        ring = ConsistentHashRing(range(8))
        store = DHTStore(ring, replicas=3)
        owners = store.put("k", "v")
        assert owners == ring.owners("k", 3)
        holders = {node for node, keys in store._storage.items() if "k" in keys}
        assert holders == set(owners)

    def test_get_missing(self):
        store = DHTStore(ConsistentHashRing(range(5)))
        assert store.get("nope") is None

    def test_get_falls_back_to_a_replica(self):
        ring = ConsistentHashRing(range(10))
        store = DHTStore(ring, replicas=3)
        owners = store.put("k", "v")
        newcomer = _new_primary(ring, "k")
        assert ring.owners("k", 3)[0] == newcomer not in store._storage
        assert store.get("k") == "v"
        assert ring.owners("k", 3)[1:] == owners[:2]

    def test_a_single_replica_is_lost_to_a_new_primary_until_put_again(self):
        ring = ConsistentHashRing(range(10))
        store = DHTStore(ring, replicas=1)
        store.put("k", "v")
        newcomer = _new_primary(ring, "k")
        assert store.get("k") is None
        assert store.put("k", "v2") == [newcomer]
        assert store.get("k") == "v2"

    def test_bad_replicas(self):
        with pytest.raises(DHTError):
            DHTStore(ConsistentHashRing(range(3)), replicas=0)
