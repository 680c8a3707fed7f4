"""Profile composition (sections 3.1 and 4).

Three kinds of data-interest profiles are composed by the query layer:

* :func:`source_profile` — for a processor to retrieve a query's source
  data: the selection predicates applicable to each individual stream
  become the filters, and every attribute the query mentions becomes
  the projection (the paper's ⟨S, P, F⟩ example in section 4).
* :func:`direct_result_profile` — for a user to retrieve an unshared
  result stream: the unique result-stream name with no filter and no
  projection.
* :func:`result_profile` — for a user whose query was merged into a
  representative: a profile on the representative's result stream that
  *re-tightens* "the constraints that have been loosened in the
  representative query": the member's residual selection/join atoms
  plus the Lemma 1 window constraints, and the member's own projection.
  Composing several members against one representative derives the
  representative's side once (:class:`PreparedRepresentative`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Union

from repro.cbn.filters import ALL_ATTRIBUTES, Filter, Profile
from repro.cql.ast import ContinuousQuery
from repro.cql.predicates import Atom, AttrRef, Conjunction, atom_terms
from repro.cql.schema import Catalog
from repro.core.merging import residual_atoms, window_residuals


class ProfileCompositionError(Exception):
    """Raised when a profile cannot be composed (unrecoverable member)."""


def source_profile(
    query: ContinuousQuery, catalog: Catalog, subscriber: Optional[str] = None
) -> Profile:
    """The profile a processor subscribes to fetch a query's inputs.

    Per stream: the projection is every attribute of that stream the
    query references anywhere; the filter is the conjunction of the
    query's single-attribute constraints on that stream (join
    predicates and cross-stream constraints cannot be evaluated per
    datagram and are left to the SPE).

    Example (paper, section 4): for ``SELECT R.A, S.C FROM R [Now],
    S [Now] WHERE R.B = S.B AND R.A > 10`` it returns S = {R, S},
    P = {R: {A, B}, S: {B, C}}, F = {R.A > 10 on R}.  (We additionally
    propagate constants through equijoin links — had the constraint
    been ``R.B > 10``, the S-side filter would gain ``S.B > 10`` — which
    is strictly tighter and still correct.)
    """
    canonical = query.canonical(catalog)
    projections: Dict[str, Set[str]] = {
        ref.stream: set() for ref in canonical.streams
    }
    for attr in canonical.projected_attributes(catalog):
        if attr.qualifier in projections:
            projections[attr.qualifier].add(attr.name)
    for term in canonical.predicate.referenced_terms():
        attr = AttrRef.parse(term)
        if attr.qualifier in projections:
            projections[attr.qualifier].add(attr.name)
    for attr in canonical.group_by:
        if attr.qualifier in projections:
            projections[attr.qualifier].add(attr.name)

    filters: List[Filter] = []
    closed = canonical.predicate.closure()
    for ref in canonical.streams:
        prefix = f"{ref.stream}."
        own_terms = {
            term
            for term in closed.referenced_terms()
            if term.startswith(prefix)
        }
        condition = closed.restrict_to(own_terms)
        # Drop equality links: a link between two attributes of the same
        # stream is evaluable per datagram, links across streams are
        # not — restrict_to already removed the latter.
        condition = _strip_prefix(condition, prefix)
        filters.append(Filter(ref.stream, condition))

    return Profile(
        {stream: frozenset(attrs) for stream, attrs in projections.items()},
        filters,
        subscriber=subscriber,
    )


def _strip_prefix(condition: Conjunction, prefix: str) -> Conjunction:
    """Rewrite ``R.A``-style terms to the raw attribute names of the
    stream's datagrams."""
    mapping = {
        term: term[len(prefix):]
        for term in condition.referenced_terms()
        if term.startswith(prefix)
    }
    return condition.rename(mapping)


def direct_result_profile(
    result_stream: str, subscriber: Optional[str] = None
) -> Profile:
    """Retrieve an unshared result stream: no filter, no projection."""
    return Profile({result_stream: ALL_ATTRIBUTES}, (), subscriber=subscriber)


class PreparedRepresentative:
    """A representative's side of :func:`result_profile`, derived once
    for all the members composed against it: its canonical form (whose
    predicate and windows the residuals are taken against) and the
    attribute names its result stream carries."""

    __slots__ = ("canonical", "outputs")

    def __init__(self, rep: ContinuousQuery, catalog: Catalog) -> None:
        self.canonical = rep.canonical(catalog)
        self.outputs: FrozenSet[str] = frozenset(
            self.canonical.output_attribute_names(catalog)
        )


def result_profile(
    member: ContinuousQuery,
    rep: Union[ContinuousQuery, PreparedRepresentative],
    catalog: Catalog,
    result_stream: str,
    subscriber: Optional[str] = None,
) -> Profile:
    """Re-tightening profile for a merged member query.

    The returned profile, subscribed against the representative's
    result stream, reproduces exactly the member's result stream: the
    filter re-applies the member's residual constraints (including the
    Lemma 1 window constraints for windows the representative widened)
    and the projection keeps the member's own output attributes.
    ``rep`` is the representative, or its :class:`PreparedRepresentative`
    when several members are composed against it.

    For the paper's Table 1 example this yields
    ``p1 = ⟨{s3}, {O.*}, {-3h <= O.timestamp - C.timestamp <= 0}⟩``
    for q1 against the representative q3.
    """
    if not isinstance(rep, PreparedRepresentative):
        rep = PreparedRepresentative(rep, catalog)
    canonical_member = member.canonical(catalog)

    atoms: List[Atom] = list(
        residual_atoms(canonical_member, rep.canonical.predicate)
    )
    atoms.extend(window_residuals(canonical_member, rep.canonical))
    needed: Set[str] = set()
    for atom in atoms:
        needed |= atom_terms(atom)
    missing = needed - rep.outputs
    if missing:
        raise ProfileCompositionError(
            f"member {member.name!r} cannot be recovered: representative "
            f"result stream lacks attributes {sorted(missing)}"
        )
    member_outputs = canonical_member.output_attribute_names(catalog)
    not_provided = set(member_outputs) - rep.outputs
    if not_provided:
        raise ProfileCompositionError(
            f"member {member.name!r} outputs {sorted(not_provided)} missing "
            "from the representative result stream"
        )
    condition = Conjunction.from_atoms(atoms)
    return Profile(
        {result_stream: frozenset(member_outputs)},
        [Filter(result_stream, condition)],
        subscriber=subscriber,
    )
