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
from typing import Dict, List, Optional, Tuple

from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
from repro.core.containment import _aggregate_signature
from repro.core.cost import CostModel
from repro.core.merging import (
    MergeError,
    MergePlan,
    complete_plan,
    merged_streams,
    representative,
)


@dataclass
class QueryGroup:
    """One group of merged queries and its representative."""

    group_id: str
    members: List[ContinuousQuery]
    representative: ContinuousQuery
    representative_rate: float
    #: the representative's :meth:`CostModel.column_widths`, kept by the
    #: optimizer for the candidate floors of :meth:`GroupingOptimizer.add`.
    column_widths: Dict[str, float] = field(
        default_factory=dict, compare=False, repr=False
    )

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

    ``merging=False`` turns merging off (the "non-share" baseline of
    Figure 3): no candidate is planned and every query founds its own
    group.
    """

    def __init__(
        self,
        catalog: Catalog,
        cost_model: Optional[CostModel] = None,
        merging: bool = True,
    ) -> None:
        self.catalog = catalog
        self.cost_model = cost_model or CostModel()
        self.merging = merging
        self._groups: Dict[str, QueryGroup] = {}
        #: structure key -> the ids of the live groups under it, so a new
        #: query is only evaluated against mergeable groups.
        self._index: Dict[object, List[str]] = {}
        self._group_of_query: Dict[str, str] = {}
        self._counter = itertools.count()

    @staticmethod
    def _structure_key(query: ContinuousQuery) -> object:
        """Equal for two canonical queries exactly when :func:`mergeable`
        holds: the stream set, and for an aggregate its signature and
        per-stream windows.  A self-join is mergeable with nothing, so its
        key is a fresh object."""
        if query.has_self_join:
            return object()
        streams = tuple(sorted(query.stream_names))
        if not query.is_aggregate:
            return (streams, None)
        windows = tuple(sorted((ref.stream, ref.window.size) for ref in query.streams))
        return (streams, (_aggregate_signature(query), windows))

    # -- queries --------------------------------------------------------------

    @property
    def groups(self) -> List[QueryGroup]:
        return list(self._groups.values())

    @property
    def group_count(self) -> int:
        return len(self._groups)

    @property
    def query_count(self) -> int:
        return len(self._group_of_query)

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
        *incrementally* — the plan of ``[rep_old, q_new]`` — which is
        associative with batch composition for the predicate, windows
        and projection (the incremental projection may keep a few extra
        attributes; it is never smaller than any member requires).

        A candidate is first floored from its merged windows and hull
        alone (:meth:`CostModel.merge_floor`).  Only one whose floor
        leaves a delta above the best so far is planned and priced from
        its :class:`MergePlan` (the floor never exceeds that price, so
        the skipped ones could not have won); only the winning group's
        representative is built.
        """
        if query.name is None:
            raise ValueError("queries must be named before grouping")
        if query.name in self._group_of_query:
            raise ValueError(f"duplicate query name {query.name!r}")
        query = query.canonical(self.catalog)
        query_rate = self.cost_model.result_rate(query, self.catalog)
        widths = self.cost_model.column_widths(query, self.catalog)
        aggregates = len(query.aggregates)
        best_delta = 0.0
        best: Optional[Tuple[QueryGroup, MergePlan, float]] = None
        key = self._structure_key(query)
        candidates = self._index.get(key, ()) if self.merging else ()
        for group_id in candidates:
            # the key is the mergeability relation: no structural re-check
            group = self._groups[group_id]
            rep = group.representative
            members = (rep, query)
            streams = merged_streams(members)
            hull = rep.predicate.hull(query.predicate)
            floor = self.cost_model.merge_floor(
                streams, hull, (group.column_widths, widths), aggregates, self.catalog
            )
            if group.representative_rate + query_rate - floor <= best_delta:
                continue
            try:
                plan = complete_plan(members, streams, hull, self.catalog)
            except MergeError:
                continue
            candidate_rate = plan.rate(self.cost_model, self.catalog)
            delta = group.representative_rate + query_rate - candidate_rate
            if delta > best_delta:
                best_delta = delta
                best = (group, plan, candidate_rate)
        if best is not None:
            group, plan, candidate_rate = best
            group.members.append(query)
            rep = plan.build(f"{group.group_id}:rep")
            self._set_representative(group, rep, candidate_rate)
            self._group_of_query[query.name] = group.group_id
            return GroupingDecision(query, group, False, best_delta)
        group = self._new_group(query, query_rate, widths)
        return GroupingDecision(query, group, True, 0.0)

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
            self._unindex(group)
            return
        rep = representative(group.members, self.catalog, name=f"{group.group_id}:rep")
        self._set_representative(
            group, rep, self.cost_model.result_rate(rep, self.catalog)
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
        self._unindex(group)
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

    def _new_group(
        self, query: ContinuousQuery, rate: float, widths: Dict[str, float]
    ) -> QueryGroup:
        """Found a singleton group of canonical ``query``, whose
        :meth:`CostModel.column_widths` are ``widths`` (a singleton's
        representative has the query's SELECT list and FROM list)."""
        group_id = f"g{next(self._counter)}"
        canonical = representative([query], self.catalog, name=f"{group_id}:rep")
        group = QueryGroup(group_id, [query], canonical, rate, widths)
        self._groups[group_id] = group
        self._index.setdefault(self._structure_key(query), []).append(group_id)
        self._group_of_query[query.name] = group_id
        return group

    def _unindex(self, group: QueryGroup) -> None:
        """Take a departing group off the index; a key whose last group
        left is deleted."""
        key = self._structure_key(group.representative)
        group_ids = self._index[key]
        group_ids.remove(group.group_id)
        if not group_ids:
            del self._index[key]

    def _set_representative(
        self, group: QueryGroup, rep: ContinuousQuery, rate: float
    ) -> None:
        group.representative = rep
        group.representative_rate = rate
        group.column_widths = self.cost_model.column_widths(rep, self.catalog)
