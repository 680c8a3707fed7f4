"""Query groups and the incremental greedy grouping optimizer.

Section 4: *"each processor maintains a number of query groups such
that queries inside each group have overlapping results and it is
beneficial to rewrite these queries into one query q [...] The benefit
of the rewriting can be estimated as sum_i C(q_i) - C(q), where C(q) is
the estimated rate (bps) of the result stream of q. [...] An
incremental greedy algorithm is used to optimize the query grouping,
where each new query is assigned to the query group that can achieve
the maximum benefit."*
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
from repro.core.cost import CostModel
from repro.core.merging import MergeError, mergeable, representative


@dataclass
class QueryGroup:
    """One group of merged queries and its representative."""

    group_id: str
    members: List[ContinuousQuery]
    representative: ContinuousQuery
    representative_rate: float

    def member_names(self) -> List[str]:
        return [q.name or "?" for q in self.members]

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class GroupingDecision:
    """Where a newly added query went."""

    query: ContinuousQuery
    group: QueryGroup
    created_group: bool
    benefit_delta: float


class GroupingOptimizer:
    """Incremental greedy query grouping.

    Each :meth:`add` evaluates, for every structurally compatible
    group, the benefit delta of extending the group with the new query:

        delta = C(rep_old) + C(q_new) - C(rep_new)

    (the change in total representative output rate).  The query joins
    the group with the largest positive delta, or founds a singleton
    group when none is positive.

    ``merge_threshold`` requires a minimum positive delta before a
    merge is accepted (0.0 reproduces the paper's "maximum benefit"
    rule).
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        merge_threshold: float = 0.0,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.merge_threshold = merge_threshold
        self._groups: Dict[str, QueryGroup] = {}
        #: structural key (stream set + aggregate signature) -> group ids,
        #: so a new query is only evaluated against compatible groups.
        self._index: Dict[Tuple, List[str]] = {}
        self._group_of_query: Dict[str, str] = {}
        self._counter = itertools.count()

    @staticmethod
    def _structure_key(query: ContinuousQuery) -> Tuple:
        streams = tuple(sorted(set(query.stream_names)))
        if not query.is_aggregate:
            return (streams, None)
        aggs = tuple(
            (agg.func, agg.arg.key if agg.arg is not None else None)
            for agg in query.aggregates
        )
        groups = tuple(sorted(attr.key for attr in query.group_by))
        return (streams, (groups, aggs))

    # -- queries --------------------------------------------------------------

    @property
    def groups(self) -> List[QueryGroup]:
        return list(self._groups.values())

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def query_count(self) -> int:
        return sum(len(group) for group in self._groups.values())

    def grouping_ratio(self) -> float:
        """#groups / #queries — Figure 4(b)'s metric (1.0 when empty)."""
        if self.query_count == 0:
            return 1.0
        return self.group_count / self.query_count

    def group(self, group_id: str) -> Optional[QueryGroup]:
        return self._groups.get(group_id)

    def group_of(self, query_name: str) -> Optional[QueryGroup]:
        group_id = self._group_of_query.get(query_name)
        if group_id is None:
            return None
        return self._groups.get(group_id)

    # -- benefit accounting ------------------------------------------------------

    def total_unmerged_rate(self) -> float:
        """sum over all queries of C(q): the no-merging output rate."""
        return sum(
            self.cost_model.result_rate(member, self.catalog)
            for group in self._groups.values()
            for member in group.members
        )

    def total_merged_rate(self) -> float:
        """sum over groups of C(representative)."""
        return sum(group.representative_rate for group in self._groups.values())

    def total_benefit(self) -> float:
        """sum_i C(q_i) - sum_groups C(rep): the paper's benefit."""
        return self.total_unmerged_rate() - self.total_merged_rate()

    def benefit_ratio(self) -> float:
        """Benefit as a fraction of the unmerged rate (0 when empty)."""
        unmerged = self.total_unmerged_rate()
        if unmerged == 0:
            return 0.0
        return self.total_benefit() / unmerged

    # -- the greedy algorithm --------------------------------------------------------

    def add(self, query: ContinuousQuery) -> GroupingDecision:
        """Assign ``query`` to the best group (or a new singleton).

        The representative of an extended group is composed
        *incrementally* — ``representative([rep_old, q_new])`` — which
        is associative with batch composition for the predicate,
        windows and projection (the incremental projection may keep a
        few extra attributes; it is never smaller than any member
        requires).
        """
        if query.name is None:
            raise ValueError("queries must be named before grouping")
        if query.name in self._group_of_query:
            raise ValueError(f"duplicate query name {query.name!r}")
        query = query.canonical(self.catalog)
        query_rate = self.cost_model.result_rate(query, self.catalog)
        best_delta = self.merge_threshold
        best: Optional[Tuple[QueryGroup, ContinuousQuery, float]] = None
        key = self._structure_key(query)
        for group_id in self._index.get(key, ()):
            group = self._groups[group_id]
            if not mergeable(group.representative, query, self.catalog):
                continue
            try:
                candidate = representative(
                    [group.representative, query],
                    self.catalog,
                    name=f"{group.group_id}:rep",
                    verify=False,
                )
            except MergeError:
                continue
            candidate_rate = self.cost_model.result_rate(candidate, self.catalog)
            delta = group.representative_rate + query_rate - candidate_rate
            if delta > best_delta:
                best_delta = delta
                best = (group, candidate, candidate_rate)
        if best is not None:
            group, candidate, candidate_rate = best
            group.members.append(query)
            group.representative = candidate
            group.representative_rate = candidate_rate
            self._group_of_query[query.name] = group.group_id
            return GroupingDecision(query, group, False, best_delta)
        group = self._new_group(query, query_rate)
        return GroupingDecision(query, group, True, 0.0)

    def add_all(
        self, queries: Iterable[ContinuousQuery]
    ) -> List[GroupingDecision]:
        return [self.add(query) for query in queries]

    def remove(self, query_name: str) -> None:
        """Remove a query; its group's representative is recomposed.

        An emptied group disappears.  (The paper does not specify
        removal; recomposition keeps the invariant that the
        representative is exactly the merge of the members.)
        """
        group = self.group_of(query_name)
        if group is None:
            raise KeyError(f"unknown query {query_name!r}")
        group.members = [m for m in group.members if m.name != query_name]
        del self._group_of_query[query_name]
        if not group.members:
            del self._groups[group.group_id]
            key = self._structure_key(group.representative)
            self._index[key] = [
                gid for gid in self._index.get(key, []) if gid != group.group_id
            ]
            return
        group.representative = representative(
            group.members, self.catalog, name=f"{group.group_id}:rep"
        )
        group.representative_rate = self.cost_model.result_rate(
            group.representative, self.catalog
        )

    def extract_group(self, group_id: str) -> List[ContinuousQuery]:
        """Remove a whole group intact; returns its members in order.

        Unlike :meth:`remove` there is no recomposition — the group
        leaves as one unit (live migration moves groups whole, so the
        merge the optimizer found is preserved at the destination).
        """
        group = self._groups.pop(group_id, None)
        if group is None:
            raise KeyError(f"unknown group {group_id!r}")
        key = self._structure_key(group.representative)
        self._index[key] = [
            gid for gid in self._index.get(key, []) if gid != group_id
        ]
        for member in group.members:
            del self._group_of_query[member.name]
        return list(group.members)

    def reoptimize(self) -> int:
        """Rebuild the grouping from scratch (periodic re-grouping).

        The incremental greedy is order-sensitive: an early query can
        found a group that later arrivals would have partitioned
        better.  Re-inserting every query in descending rate order
        (big flows first anchor the groups) often recovers some of that
        loss.  Returns the change in group count (positive = fewer
        groups).  The paper only describes the incremental algorithm;
        this is the "periodic re-grouping" ablation of DESIGN.md.
        """
        queries: List[ContinuousQuery] = [
            member for group in self._groups.values() for member in group.members
        ]
        before = self.group_count
        self._groups.clear()
        self._index.clear()
        self._group_of_query.clear()
        queries.sort(
            key=lambda q: self.cost_model.result_rate(q, self.catalog),
            reverse=True,
        )
        for query in queries:
            self.add(query)
        return before - self.group_count

    def _new_group(self, query: ContinuousQuery, rate: float) -> QueryGroup:
        group_id = f"g{next(self._counter)}"
        canonical = representative([query], self.catalog, name=f"{group_id}:rep")
        group = QueryGroup(group_id, [query], canonical, rate)
        self._groups[group_id] = group
        self._index.setdefault(self._structure_key(query), []).append(group_id)
        self._group_of_query[query.name] = group_id
        return group
