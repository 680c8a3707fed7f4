"""Query distribution (load management).

Section 2: *"A user query is first distributed to a processor by the
load management service"*.  The paper leaves the policy open; this
module provides the natural family:

* :class:`RoundRobinDistribution` — cycle through processors;
* :class:`StreamAffinityDistribution` — hash of the query's stream set,
  so queries over the same streams land on the same processor, which
  maximises the grouping optimizer's merging opportunities (used by the
  Figure 4 reproduction).
* :class:`CostAwareDistribution` — smallest estimated communication
  cost for this query: its source->processor and processor->user
  flows, enumerated and priced exactly as load management prices a
  merged group (the one-member case), in the spirit of the
  operator-placement literature the paper cites ([13, 17]).  Note the
  tension with merging: placing each query individually optimally can
  split same-FROM-set queries across processors and forfeit grouping
  opportunities (quantified in ``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Mapping, Optional, Sequence

from repro.core.cost import CostModel
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
from repro.overlay.topology import NodeId
from repro.overlay.tree import DisseminationTree
from repro.system.node import Processor


class DistributionError(Exception):
    """Raised when no processor is available."""


class QueryDistribution:
    """Policy interface: a subclass's ``choose(query, user_node,
    processors)`` picks the processor for one user query."""

    @staticmethod
    def _require(processors: Sequence[Processor]) -> None:
        if not processors:
            raise DistributionError("no processors available")


class RoundRobinDistribution(QueryDistribution):
    def __init__(self) -> None:
        self._counter = itertools.count()

    def choose(
        self,
        query: ContinuousQuery,
        user_node: NodeId,
        processors: Sequence[Processor],
    ) -> Processor:
        self._require(processors)
        return processors[next(self._counter) % len(processors)]


class CostAwareDistribution(QueryDistribution):
    """Placement by estimated per-query communication cost.

    For each candidate processor: the query's flows as a group of one
    (:meth:`~repro.core.cost.CostModel.group_flows` — its filtered,
    projected source streams in, its result stream out to the user),
    priced by :meth:`~repro.overlay.tree.DisseminationTree.flow_cost` —
    choose the cheapest.  This is per-query-optimal placement in the
    style of the operator-placement systems the paper contrasts with;
    it ignores sharing, so pairing it with the grouping optimizer trades
    merging opportunity for shorter paths (see the placement ablation).
    """

    def __init__(
        self,
        tree: DisseminationTree,
        catalog: Catalog,
        source_nodes: Mapping[str, NodeId],
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self._tree = tree
        self._catalog = catalog
        self._source_nodes = dict(source_nodes)
        self._cost = cost_model or CostModel()

    def _query_cost(
        self, query: ContinuousQuery, processor: NodeId, user: NodeId
    ) -> float:
        flows = self._cost.group_flows(
            query, [(query, user)], self._source_nodes, processor, self._catalog
        )
        return self._tree.flow_cost(flows)

    def choose(
        self,
        query: ContinuousQuery,
        user_node: NodeId,
        processors: Sequence[Processor],
    ) -> Processor:
        self._require(processors)
        return min(
            processors,
            key=lambda p: (
                self._query_cost(query, p.node_id, user_node),
                p.node_id,
            ),
        )


class StreamAffinityDistribution(QueryDistribution):
    """Deterministic stream-set hashing.

    All queries over the same FROM set reach the same processor, so the
    per-processor grouping optimizer sees every merging opportunity.
    """

    def choose(
        self,
        query: ContinuousQuery,
        user_node: NodeId,
        processors: Sequence[Processor],
    ) -> Processor:
        self._require(processors)
        key = ",".join(sorted(set(query.stream_names)))
        digest = hashlib.sha1(key.encode("utf-8")).digest()
        index = int.from_bytes(digest[:4], "big") % len(processors)
        return processors[index]
