"""Representative-query composition (query merging, section 4).

For a group of queries with overlapping results, COSMOS composes one
*representative query* ``q`` that contains every member, issues only
``q`` to the SPE, and lets the CBN split ``q``'s result stream back
into the members' result streams.  "The representative query is
generated by merging the query predicates (selection predicates, join
predicates, window predicates, etc.)":

* **windows** — per-stream maximum over the members (Theorem 1
  direction); aggregate queries require *equal* windows (Theorem 2);
* **predicate** — the hull of the members' predicates (the tightest
  conjunction in the fragment that every member implies);
* **projection** — the union of the members' output attributes, plus
  whatever the re-tightening profiles will need: the attributes of
  every member's *residual* predicates (constraints the representative
  loosened) and, when windows were widened, the streams' timestamp
  attributes for the Lemma 1 window constraints.

Every member must remain *recoverable*: its residual constraints must
be expressible over the representative's result-stream attributes.
:func:`merge_queries` raises :class:`MergeError` otherwise (the
grouping optimizer treats that as "not mergeable").

Composition is two steps: :func:`merge_plan` decides everything the
representative will be (and raises :class:`MergeError`), and
:meth:`MergePlan.build` makes the query.  The grouping optimizer floors
every candidate from its merged windows and hull alone
(:meth:`CostModel.merge_floor`), completes the plan of only those that
could win (:func:`complete_plan`), prices them, and builds the winner's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cql.ast import (
    Aggregate,
    ContinuousQuery,
    SelectItem,
    StreamRef,
)
from repro.cql.predicates import (
    Atom,
    AttrRef,
    Conjunction,
    DifferenceConstraint,
    Interval,
    atom_terms,
)
from repro.cql.schema import Catalog
from repro.core.containment import _aggregate_signature, contains
from repro.core.cost import CostModel


class MergeError(Exception):
    """Raised when a set of queries has no valid representative."""


def mergeable(
    q1: ContinuousQuery, q2: ContinuousQuery, catalog: Catalog
) -> bool:
    """The structural check :func:`merge_plan` starts with.

    Queries are candidates for one group when they involve the same set
    of streams (same FROM clause up to aliasing), are both plain SPJ or
    both aggregates with the same aggregation functions and grouping
    conditions (and, for aggregates, the same windows), and neither is
    a self-join.
    """
    if q1.has_self_join or q2.has_self_join:
        return False
    if set(q1.stream_names) != set(q2.stream_names):
        return False
    if q1.is_aggregate != q2.is_aggregate:
        return False
    if q1.is_aggregate:
        c1 = q1.canonical(catalog)
        c2 = q2.canonical(catalog)
        if _aggregate_signature(c1) != _aggregate_signature(c2):
            return False
        w1 = {ref.stream: ref.window for ref in c1.streams}
        w2 = {ref.stream: ref.window for ref in c2.streams}
        if w1 != w2:
            return False
    return True


def residual_atoms(
    member: ContinuousQuery, rep_predicate: Conjunction
) -> List[Atom]:
    """The member's atoms that the representative no longer guarantees.

    These are exactly the constraints the member's re-tightening
    profile must re-apply at the split broker.  Both queries must be
    canonical.
    """
    return rep_predicate.unimplied_atoms(member.predicate.atoms())


def window_residuals(
    member: ContinuousQuery, rep: ContinuousQuery
) -> List[DifferenceConstraint]:
    """Lemma 1 timestamp constraints re-tightening widened windows.

    For every stream *k* whose window the representative widened, and
    every other stream *j* of the join, the member's results satisfy
    ``t_j.timestamp - t_k.timestamp <= T_k(member)`` — the pairwise form
    of Lemma 1's ``-T1 <= t1.ts - t2.ts <= T2``.  Single-stream SPJ
    queries need no window residuals (their result stream is window
    independent).
    """
    if len(member.streams) < 2:
        return []
    member_windows = {ref.stream: ref.window.size for ref in member.streams}
    rep_windows = {ref.stream: ref.window.size for ref in rep.streams}
    constraints: List[DifferenceConstraint] = []
    for k, t_k in member_windows.items():
        if t_k >= rep_windows[k]:
            continue
        for j in member_windows:
            if j == k:
                continue
            constraints.append(
                DifferenceConstraint(
                    f"{j}.timestamp",
                    f"{k}.timestamp",
                    Interval.at_most(t_k),
                )
            )
    return constraints


def merge_queries(
    q1: ContinuousQuery,
    q2: ContinuousQuery,
    catalog: Catalog,
    name: Optional[str] = None,
) -> ContinuousQuery:
    """The representative of two queries (see :func:`representative`)."""
    return representative([q1, q2], catalog, name=name)


@dataclass(frozen=True)
class MergePlan:
    """A group's representative before it is built.

    Everything :meth:`build` puts into the query — the merged windows,
    the hull predicate, the SELECT list (the sorted projection terms, or
    the common aggregate list) and the grouping attributes — so a
    candidate can be priced (:meth:`rate`) without building it.  A plan
    of one query is that (canonical) query.
    """

    members: Tuple[ContinuousQuery, ...]
    streams: Tuple[StreamRef, ...]
    predicate: Conjunction
    select_items: Tuple[SelectItem, ...]
    group_by: Tuple[AttrRef, ...] = ()

    def rate(self, cost_model: CostModel, catalog: Catalog) -> float:
        """C(q) of the query :meth:`build` returns, bit for bit: both
        go through :meth:`CostModel.stream_rate` with the same inputs."""
        if len(self.members) == 1:
            return cost_model.result_rate(self.members[0], catalog)
        aggregates = sum(isinstance(item, Aggregate) for item in self.select_items)
        columns = self.group_by if aggregates else self.select_items
        return cost_model.stream_rate(
            self.streams, self.predicate, columns, aggregates, catalog
        )

    def build(self, name: Optional[str] = None) -> ContinuousQuery:
        """The representative query (canonical; ``name`` if given)."""
        if len(self.members) == 1 and name is None:
            return self.members[0]
        return ContinuousQuery(
            select_items=self.select_items,
            streams=self.streams,
            predicate=self.predicate,
            group_by=self.group_by,
            name=name,
        )


def merge_plan(
    queries: Sequence[ContinuousQuery], catalog: Catalog
) -> MergePlan:
    """Plan the representative of a group (see :func:`representative`).

    Raises :class:`MergeError` when the group is structurally
    incompatible — exactly where :func:`representative` does before
    its optional verification.
    """
    if not queries:
        raise MergeError("cannot merge an empty group")
    first = queries[0]
    for other in queries[1:]:
        if not mergeable(first, other, catalog):
            raise MergeError(
                f"queries {first.name!r} and {other.name!r} are not mergeable"
            )
    members = tuple(q.canonical(catalog) for q in queries)
    if len(members) == 1:
        only = members[0]
        return MergePlan(
            members, only.streams, only.predicate, only.select_items, only.group_by
        )

    predicate = members[0].predicate
    for member in members[1:]:
        predicate = predicate.hull(member.predicate)
    return complete_plan(members, merged_streams(members), predicate, catalog)


def complete_plan(
    members: Tuple[ContinuousQuery, ...],
    streams: Tuple[StreamRef, ...],
    predicate: Conjunction,
    catalog: Catalog,
) -> MergePlan:
    """The plan of mergeable canonical ``members`` (two or more) whose
    merged windows (:func:`merged_streams`) and hull predicate are
    known: the aggregate-selection check, or the SPJ projection with its
    residual atoms.  Raises :class:`MergeError` where :func:`merge_plan`
    does after its structural check."""
    if members[0].is_aggregate:
        _check_aggregate_selections(members, predicate)
        template = members[0]
        return MergePlan(
            members, streams, predicate, template.aggregates, template.group_by
        )
    return MergePlan(
        members, streams, predicate, _spj_projection(members, streams, predicate, catalog)
    )


def representative(
    queries: Sequence[ContinuousQuery],
    catalog: Catalog,
    name: Optional[str] = None,
) -> ContinuousQuery:
    """Compose the representative query of a group.

    Raises :class:`MergeError` when the group is structurally
    incompatible or some member would not be recoverable from the
    representative's result stream.  The returned query is canonical
    (qualifiers are stream names) and satisfies ``member ⊑ rep`` for
    every member.  The construction guarantees containment and
    recoverability; a final O(members) check verifies both anyway.

    Composition is associative: ``representative([rep_old, q])`` where
    ``rep_old`` is itself a representative extends a group one query at
    a time, which is how the incremental optimizer uses it (through
    :func:`merge_plan`, pricing every candidate and building only the
    winner).
    """
    plan = merge_plan(queries, catalog)
    rep = plan.build(name)
    if len(plan.members) > 1:
        _check_recoverable(plan.members, rep, catalog)
    return rep


def merged_streams(members: Sequence[ContinuousQuery]) -> Tuple[StreamRef, ...]:
    """Per-stream maximum window over the members, in first-member order.

    The first member to carry a stream's widest window lends its
    reference when it has no alias and no ``pos``; otherwise a bare
    reference to the same window is made."""
    widest: Dict[str, StreamRef] = {ref.stream: ref for ref in members[0].streams}
    for member in members[1:]:
        for ref in member.streams:
            if ref.window.size > widest[ref.stream].window.size:
                widest[ref.stream] = ref
    return tuple(
        ref if ref.alias is None and ref.pos is None else StreamRef(ref.stream, ref.window)
        for ref in widest.values()
    )


def _spj_projection(
    members: Sequence[ContinuousQuery],
    streams: Tuple[StreamRef, ...],
    predicate: Conjunction,
    catalog: Catalog,
) -> Tuple[AttrRef, ...]:
    """The SELECT list of an SPJ representative, in sorted term order."""
    rep_windows = {ref.stream: ref.window.size for ref in streams}
    projection: Set[str] = set()
    for member in members:
        projection.update(attr.key for attr in member.projected_attributes(catalog))
        for atom in residual_atoms(member, predicate):
            projection.update(atom_terms(atom))
        member_windows = {ref.stream: ref.window.size for ref in member.streams}
        widened = [
            stream
            for stream, size in member_windows.items()
            if size < rep_windows[stream]
        ]
        if widened and len(member.streams) > 1:
            # Lemma 1 re-tightening needs every stream's timestamp.
            projection.update(f"{ref.stream}.timestamp" for ref in member.streams)
    return tuple(AttrRef.parse(term) for term in sorted(projection))


def _check_aggregate_selections(
    members: Sequence[ContinuousQuery], predicate: Conjunction
) -> None:
    """Aggregates share signature and windows; only group-attribute
    selections may differ (they commute with grouping), so the hull
    predicate plus the common aggregate list is the representative."""
    group_keys = {attr.key for attr in members[0].group_by}
    for member in members:
        non_group_terms = member.predicate.referenced_terms() - group_keys
        rest_member = member.predicate.restrict_to(non_group_terms)
        rest_rep = predicate.restrict_to(non_group_terms)
        if not rest_member.equivalent(rest_rep):
            raise MergeError(
                "aggregate members differ on non-grouping selections; "
                "values would change and members become unrecoverable"
            )


def _check_recoverable(
    members: Sequence[ContinuousQuery],
    rep: ContinuousQuery,
    catalog: Catalog,
) -> None:
    rep_outputs = set(rep.output_attribute_names(catalog))
    for member in members:
        if not contains(member, rep, catalog):
            raise MergeError(
                f"internal error: member {member.name!r} is not contained "
                "by the composed representative"
            )
        needed: Set[str] = set()
        for atom in residual_atoms(member, rep.predicate):
            needed |= atom_terms(atom)
        for constraint in window_residuals(member, rep):
            needed.add(constraint.left)
            needed.add(constraint.right)
        missing = needed - rep_outputs
        if missing:
            raise MergeError(
                f"member {member.name!r} needs attributes {sorted(missing)} "
                "for re-tightening but the representative does not output them"
            )
        member_outputs = set(member.output_attribute_names(catalog))
        if not member_outputs <= rep_outputs:
            raise MergeError(
                f"member {member.name!r} outputs {sorted(member_outputs - rep_outputs)} "
                "which the representative does not provide"
            )
