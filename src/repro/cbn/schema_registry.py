"""Distribution of stream schema information.

Section 3: *"Each stream is assigned a unique name in COSMOS. In our
current system, if the number of streams is small, the schema
information of the streams will be flooded to every node upon its
arrival. Otherwise, we use a DHT architecture to store the schema
information while using the unique stream name as the hashing key."*

Both strategies share the :class:`SchemaRegistry` interface and account
for the control traffic they generate on a dissemination tree, so the
flooding-vs-DHT trade-off can be measured (see
``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.cbn.dht import ConsistentHashRing, DHTStore
from repro.cql.schema import Catalog, SchemaError, StreamSchema
from repro.overlay.metrics import LinkStats
from repro.overlay.tree import DisseminationTree
from repro.overlay.topology import NodeId

#: Approximate wire size of one schema advertisement message.
_SCHEMA_MESSAGE_BYTES = 64.0


class SchemaRegistry:
    """Interface: register a schema at a node, look one up from a node."""

    def register(self, schema: StreamSchema, node: NodeId) -> None:
        raise NotImplementedError

    def lookup(self, name: str, node: NodeId) -> Optional[StreamSchema]:
        raise NotImplementedError

    @property
    def stats(self) -> LinkStats:
        raise NotImplementedError


class FloodedSchemaRegistry(SchemaRegistry):
    """Every schema advertisement floods the dissemination tree.

    Lookups are then free (every node holds a full catalog), but each
    registration costs one message per tree link.
    """

    def __init__(self, tree: DisseminationTree) -> None:
        self._tree = tree
        self._catalogs: Dict[NodeId, Catalog] = {
            node: Catalog() for node in tree.nodes
        }
        self._stats = LinkStats()

    def register(self, schema: StreamSchema, node: NodeId) -> None:
        for u, v in self._tree.edges:
            self._stats.record(u, v, _SCHEMA_MESSAGE_BYTES)
        for catalog in self._catalogs.values():
            catalog.register(schema)

    def lookup(self, name: str, node: NodeId) -> Optional[StreamSchema]:
        catalog = self._catalogs[node]
        if name in catalog:
            return catalog.get(name)
        return None

    @property
    def stats(self) -> LinkStats:
        return self._stats


class DHTSchemaRegistry(SchemaRegistry):
    """Schemas stored in a DHT keyed by stream name.

    Registration routes one message from the registering node to each
    replica owner along the tree; every lookup routes a request to the
    primary owner and the response back.  Nodes cache nothing (worst
    case for lookup traffic, best case for registration traffic), which
    is the honest baseline for the flooding comparison.
    """

    def __init__(
        self,
        tree: DisseminationTree,
        replicas: int = 1,
        vnodes: int = 16,
    ) -> None:
        self._tree = tree
        ring = ConsistentHashRing(tree.nodes, vnodes=vnodes)
        self._store: DHTStore[StreamSchema] = DHTStore(ring, replicas=replicas)
        self._stats = LinkStats()

    def _charge_path(self, source: NodeId, target: NodeId, size: float) -> None:
        if source == target:
            return
        for u, v in self._tree.path_edges(source, target):
            self._stats.record(u, v, size)

    def register(self, schema: StreamSchema, node: NodeId) -> None:
        owners = self._store.put(schema.name, schema)
        for owner in owners:
            self._charge_path(node, owner, _SCHEMA_MESSAGE_BYTES)

    def lookup(self, name: str, node: NodeId) -> Optional[StreamSchema]:
        schema = self._store.get(name)
        owner = self._store.ring.owners(name, 1)[0]
        self._charge_path(node, owner, _SCHEMA_MESSAGE_BYTES / 4)
        if schema is not None:
            self._charge_path(owner, node, _SCHEMA_MESSAGE_BYTES)
        return schema

    @property
    def stats(self) -> LinkStats:
        return self._stats
