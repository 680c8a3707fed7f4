"""A consistent-hashing ring for distributed schema storage.

Section 3: *"Otherwise, we use a DHT architecture to store the schema
information while using the unique stream name as the hashing key."*

The ring hashes node identifiers (with virtual replicas for balance)
and keys onto a 64-bit circle; a key is owned by the first node
clockwise from its hash.  ``replicas`` > 1 stores each key on that many
distinct successors for availability.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Generic, Hashable, Iterable, List, Optional, Set, Tuple, TypeVar

NodeId = int

T = TypeVar("T")


class DHTError(Exception):
    """Raised for operations on an empty ring or unknown nodes."""


def _hash64(value: str) -> int:
    digest = hashlib.sha1(value.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ConsistentHashRing:
    """Consistent hashing of string keys onto integer node ids."""

    def __init__(self, nodes: Iterable[NodeId] = (), vnodes: int = 16) -> None:
        if vnodes < 1:
            raise DHTError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._ring: List[Tuple[int, NodeId]] = []
        self._nodes: Set[NodeId] = set()
        for node in nodes:
            self.add_node(node)

    # -- membership ------------------------------------------------------------

    def add_node(self, node: NodeId) -> None:
        if node in self._nodes:
            return
        self._nodes.add(node)
        for replica in range(self._vnodes):
            point = _hash64(f"node:{node}:{replica}")
            bisect.insort(self._ring, (point, node))

    def __len__(self) -> int:
        return len(self._nodes)

    # -- lookup -------------------------------------------------------------------

    def owners(self, key: str, count: int) -> List[NodeId]:
        """The first ``count`` distinct nodes clockwise from the key's hash."""
        if not self._ring:
            raise DHTError("ring is empty")
        count = min(count, len(self._nodes))
        point = _hash64(f"key:{key}")
        index = bisect.bisect_right(self._ring, (point, 2**63))
        found: List[NodeId] = []
        seen: Set[NodeId] = set()
        for offset in range(len(self._ring)):
            __, node = self._ring[(index + offset) % len(self._ring)]
            if node not in seen:
                seen.add(node)
                found.append(node)
                if len(found) == count:
                    break
        return found


class DHTStore(Generic[T]):
    """A replicated key-value store layered on a hash ring.

    Values live on the key's ``replicas`` owner nodes; a read takes the
    first owner that holds the key, so a node joining the ring as a
    key's new primary (which holds nothing) is read past until the key
    is put again: there is no churn transfer.
    """

    def __init__(self, ring: ConsistentHashRing, replicas: int = 1) -> None:
        if replicas < 1:
            raise DHTError(f"replicas must be >= 1, got {replicas}")
        self._ring = ring
        self._replicas = replicas
        self._storage: Dict[NodeId, Dict[str, T]] = {}

    @property
    def ring(self) -> ConsistentHashRing:
        return self._ring

    def put(self, key: str, value: T) -> List[NodeId]:
        """Store ``value``; returns the nodes it was placed on."""
        owners = self._ring.owners(key, self._replicas)
        for node in owners:
            self._storage.setdefault(node, {})[key] = value
        return owners

    def get(self, key: str) -> Optional[T]:
        """Fetch from the first owner that still holds the key."""
        for node in self._ring.owners(key, self._replicas):
            value = self._storage.get(node, {}).get(key)
            if value is not None:
                return value
        return None
