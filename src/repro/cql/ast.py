"""Abstract syntax of continuous queries.

The fragment implemented is the one the paper's query layer reasons
about: select-project-join queries over windowed streams, optionally
with grouped aggregation, written in a CQL-like surface syntax:

.. code-block:: sql

    SELECT O.*, C.buyerID, C.timestamp
    FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C
    WHERE O.itemID = C.itemID

Windows are the time-based sliding windows of CQL: ``[Range T]``,
``[Now]`` (= ``Range 0``) and ``[Unbounded]`` (= ``Range`` infinity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.cql.predicates import (
    Atom,
    AttrRef,
    Comparison,
    Conjunction,
    DifferenceConstraint,
    JoinPredicate,
)
from repro.cql.schema import Attribute, Catalog, StreamSchema


class QueryError(Exception):
    """Raised for malformed queries (unknown streams, bad projections)."""


class Unresolved(NamedTuple):
    """Why a reference names nothing in the catalog.

    ``kind`` is ``"unqualified"`` (an attribute without a stream
    reference), ``"qualifier"`` (no FROM entry has that name),
    ``"stream"`` (the FROM entry's stream is not in the catalog) or
    ``"attribute"`` (the stream has no such attribute).
    """

    kind: str
    message: str


class Problem(NamedTuple):
    """One error that keeps a query out: the code it has in the
    analyzer's catalogue (``docs/STATIC_ANALYSIS.md``), a message and
    the offset into the query text it points at (``None`` when the
    query carries no text or the problem no position)."""

    code: str
    message: str
    pos: Optional[int]


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

#: Time-unit multipliers to seconds accepted in window specifications.
TIME_UNITS = {
    "second": 1.0,
    "seconds": 1.0,
    "minute": 60.0,
    "minutes": 60.0,
    "hour": 3600.0,
    "hours": 3600.0,
    "day": 86400.0,
    "days": 86400.0,
}


@dataclass(frozen=True, order=True)
class Window:
    """A time-based sliding window of ``size`` seconds.

    ``w(T)`` defines, at every application time instant, the temporal
    relation of tuples that arrived within the last ``T`` time units.
    ``Window(0)`` is CQL's ``[Now]``; ``Window(math.inf)`` is
    ``[Unbounded]``.
    """

    size: float

    def __post_init__(self) -> None:
        if self.size < 0:
            raise QueryError(f"window size must be non-negative, got {self.size}")

    @property
    def is_now(self) -> bool:
        return self.size == 0

    @property
    def is_unbounded(self) -> bool:
        return math.isinf(self.size)

    def __str__(self) -> str:
        if self.is_now:
            return "[Now]"
        if self.is_unbounded:
            return "[Unbounded]"
        for unit, mult in (("Day", 86400.0), ("Hour", 3600.0), ("Minute", 60.0)):
            if self.size % mult == 0:
                count = int(self.size // mult)
                return f"[Range {count} {unit}]"
        return f"[Range {self.size:g} Second]"


NOW = Window(0.0)
UNBOUNDED = Window(math.inf)


# ---------------------------------------------------------------------------
# Stream references and select items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StreamRef:
    """One entry of the FROM clause: a stream, its window and its alias.

    ``pos`` is the character offset of the reference in the query text
    it was parsed from (``None`` for programmatically built references);
    it is excluded from equality so provenance never affects semantics.
    """

    stream: str
    window: Window = UNBOUNDED
    alias: Optional[str] = None
    pos: Optional[int] = field(default=None, compare=False)

    @property
    def name(self) -> str:
        """The name predicates use to qualify this stream's attributes."""
        return self.alias if self.alias is not None else self.stream

    def __str__(self) -> str:
        alias = f" {self.alias}" if self.alias else ""
        return f"{self.stream} {self.window}{alias}"


@dataclass(frozen=True)
class Star:
    """``Q.*`` in a SELECT list (all attributes of one stream reference)."""

    qualifier: str
    pos: Optional[int] = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.qualifier}.*"


@dataclass(frozen=True)
class Aggregate:
    """An aggregate select item, e.g. ``AVG(S.temperature) AS avg_temp``."""

    func: str
    arg: Optional[AttrRef]  # None only for COUNT(*)
    output_name: Optional[str] = None
    pos: Optional[int] = field(default=None, compare=False)

    FUNCS = ("count", "sum", "avg", "min", "max")

    def __post_init__(self) -> None:
        if self.func not in self.FUNCS:
            raise QueryError(f"unknown aggregate function {self.func!r}")
        if self.arg is None and self.func != "count":
            raise QueryError(f"{self.func.upper()}(*) is not supported")

    @property
    def name(self) -> str:
        """The output attribute name of this aggregate."""
        if self.output_name:
            return self.output_name
        arg = "star" if self.arg is None else self.arg.key.replace(".", "_")
        return f"{self.func}_{arg}"

    def __str__(self) -> str:
        arg = "*" if self.arg is None else self.arg.key
        rendered = f"{self.func.upper()}({arg})"
        if self.output_name:
            rendered += f" AS {self.output_name}"
        return rendered


SelectItem = Union[Star, AttrRef, Aggregate]


@dataclass(frozen=True)
class QuerySource:
    """Provenance of a parsed query.

    ``text`` is the original CQL surface text; ``where_atoms`` are the
    raw WHERE-clause atoms exactly as written (with their source
    offsets), *before* :meth:`Conjunction.from_atoms` normalised them
    (normalisation intersects same-term intervals, which erases
    redundant conjuncts the static analyzer wants to warn about).
    """

    text: str
    where_atoms: Tuple[Atom, ...] = ()


# ---------------------------------------------------------------------------
# Continuous queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuousQuery:
    """A continuous select-project-join (optionally aggregate) query.

    ``predicate`` is a :class:`~repro.cql.predicates.Conjunction` over
    qualified terms (``"O.itemID"``): it bundles the selection
    predicates, the equijoin predicates and any explicit
    timestamp-difference constraints of the WHERE clause.
    """

    select_items: Tuple[SelectItem, ...]
    streams: Tuple[StreamRef, ...]
    predicate: Conjunction = field(default_factory=Conjunction.true)
    group_by: Tuple[AttrRef, ...] = ()
    name: Optional[str] = None
    #: Parse provenance (original text + raw WHERE atoms with offsets);
    #: dropped by rewrites such as :meth:`canonical`, excluded from
    #: equality, and ``None`` for programmatically built queries.
    source: Optional[QuerySource] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.streams:
            raise QueryError("a query must reference at least one stream")
        if not self.select_items:
            raise QueryError("a query must select at least one item")
        names = [ref.name for ref in self.streams]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate stream reference names in FROM: {names}")
        aggregates = tuple(i for i in self.select_items if isinstance(i, Aggregate))
        if aggregates and any(
            isinstance(i, Star) for i in self.select_items
        ):
            raise QueryError("cannot mix aggregates with Q.* select items")
        # The instance is immutable: derive the structure grouping asks
        # about on every candidate once, here.
        stream_names = tuple(ref.stream for ref in self.streams)
        object.__setattr__(self, "_aggregates", aggregates)
        object.__setattr__(self, "_stream_names", stream_names)
        object.__setattr__(
            self, "_has_self_join", len(set(stream_names)) != len(stream_names)
        )

    # -- basic structure ---------------------------------------------------------

    @property
    def is_aggregate(self) -> bool:
        return bool(self._aggregates)

    @property
    def aggregates(self) -> Tuple[Aggregate, ...]:
        return self._aggregates

    @property
    def stream_names(self) -> Tuple[str, ...]:
        """Underlying stream names, in FROM order."""
        return self._stream_names

    @property
    def reference_names(self) -> Tuple[str, ...]:
        """Qualifier names (aliases) in FROM order."""
        return tuple(ref.name for ref in self.streams)

    def stream_ref(self, qualifier: str) -> StreamRef:
        for ref in self.streams:
            if ref.name == qualifier:
                return ref
        raise QueryError(f"query has no stream reference named {qualifier!r}")

    @property
    def has_self_join(self) -> bool:
        return self._has_self_join

    # -- resolution against a catalog -----------------------------------------------

    def validate(self, catalog: Catalog) -> None:
        """Admit the query against ``catalog`` or raise :class:`QueryError`
        with the first of its :func:`query_problems`."""
        problems = query_problems(self, catalog)
        if problems:
            raise QueryError(problems[0].message)

    def resolve_qualifier(
        self, qualifier: str, catalog: Catalog
    ) -> Union[StreamSchema, Unresolved]:
        """The schema of the stream the FROM entry ``qualifier`` names."""
        for ref in self.streams:
            if ref.name == qualifier:
                if ref.stream not in catalog:
                    return Unresolved("stream", f"unknown stream {ref.stream!r}")
                return catalog.get(ref.stream)
        return Unresolved(
            "qualifier",
            f"no stream reference named {qualifier!r} in FROM "
            f"(have: {', '.join(self.reference_names)})",
        )

    def resolve(
        self, attr: AttrRef, catalog: Catalog
    ) -> Union[Attribute, Unresolved]:
        """The schema attribute ``attr`` names — the one rule for
        unqualified names, unknown qualifiers and unknown attributes
        (:func:`query_problems` reads it)."""
        if attr.qualifier is None:
            return Unresolved(
                "unqualified",
                f"attribute {attr.name!r} must be qualified with a stream "
                f"reference ({', '.join(self.reference_names)})",
            )
        schema = self.resolve_qualifier(attr.qualifier, catalog)
        if isinstance(schema, Unresolved):
            return schema
        if not schema.has_attribute(attr.name):
            return Unresolved(
                "attribute",
                f"stream {schema.name!r} has no attribute {attr.name!r} "
                f"(have: {', '.join(schema.attribute_names)})",
            )
        return schema.attribute(attr.name)

    def projected_attributes(self, catalog: Catalog) -> List[AttrRef]:
        """The SELECT list with every ``Q.*`` expanded, in output order.

        Aggregate queries have no projected source attributes in this
        sense (their output attributes are aggregate/grouping columns);
        for them this returns the grouping attributes followed by the
        aggregate argument attributes.
        """
        out: List[AttrRef] = []
        if self.is_aggregate:
            out.extend(self.group_by)
            for agg in self.aggregates:
                if agg.arg is not None:
                    out.append(agg.arg)
            return out
        for item in self.select_items:
            if isinstance(item, Star):
                ref = self.stream_ref(item.qualifier)
                schema = catalog.get(ref.stream)
                for attr_name in schema.attribute_names:
                    out.append(AttrRef(item.qualifier, attr_name))
            elif isinstance(item, AttrRef):
                out.append(item)
        return out

    def output_attribute_names(self, catalog: Catalog) -> List[str]:
        """Names of the attributes of this query's result stream.

        SPJ queries name their outputs with qualified source names
        (``"O.itemID"``); aggregate queries use grouping attribute names
        plus aggregate output names.
        """
        if self.is_aggregate:
            names = [attr.key for attr in self.group_by]
            names.extend(agg.name for agg in self.aggregates)
            return names
        return [attr.key for attr in self.projected_attributes(catalog)]

    # -- canonicalisation -------------------------------------------------------------

    def canonical(self, catalog: Catalog) -> "ContinuousQuery":
        """Rewrite the query so every qualifier is the stream's own name.

        Canonicalisation makes queries from different users directly
        comparable (the containment and merging machinery assumes it).
        Self-joins cannot be canonicalised this way and raise
        :class:`QueryError`; the grouping optimizer simply never groups
        them.
        """
        if self.has_self_join:
            raise QueryError("cannot canonicalise a self-join query")
        if all(ref.alias is None for ref in self.streams):
            return self  # already canonical
        mapping: Dict[str, str] = {}
        term_mapping: Dict[str, str] = {}
        for ref in self.streams:
            mapping[ref.name] = ref.stream
            schema = catalog.get(ref.stream) if ref.stream in catalog else None
            attr_names: Iterable[str]
            if schema is not None:
                attr_names = schema.attribute_names
            else:
                attr_names = [
                    AttrRef.parse(t).name
                    for t in sorted(self.predicate.referenced_terms())
                    if AttrRef.parse(t).qualifier == ref.name
                ]
            for attr_name in attr_names:
                term_mapping[f"{ref.name}.{attr_name}"] = f"{ref.stream}.{attr_name}"

        def remap_attr(attr: AttrRef) -> AttrRef:
            if attr.qualifier in mapping:
                return AttrRef(mapping[attr.qualifier], attr.name)
            return attr

        select_items: List[SelectItem] = []
        for item in self.select_items:
            if isinstance(item, Star):
                select_items.append(Star(mapping.get(item.qualifier, item.qualifier)))
            elif isinstance(item, AttrRef):
                select_items.append(remap_attr(item))
            else:
                arg = remap_attr(item.arg) if item.arg is not None else None
                select_items.append(Aggregate(item.func, arg, item.output_name))
        streams = tuple(
            StreamRef(ref.stream, ref.window, alias=None) for ref in self.streams
        )
        return ContinuousQuery(
            select_items=tuple(select_items),
            streams=streams,
            predicate=self.predicate.rename(term_mapping),
            group_by=tuple(remap_attr(a) for a in self.group_by),
            name=self.name,
        )

    def __str__(self) -> str:
        from repro.cql.text import to_cql

        return to_cql(self)


# ---------------------------------------------------------------------------
# Admission
# ---------------------------------------------------------------------------

#: the problem each kind of unresolved reference is; an unknown stream
#: is reported once, on its FROM entry
_CODE_OF_KIND = {"unqualified": "COS105", "qualifier": "COS101", "attribute": "COS102"}


def raw_atoms(query: ContinuousQuery) -> List[Atom]:
    """WHERE atoms as written when provenance exists, else reconstructed."""
    if query.source is not None and query.source.where_atoms:
        return list(query.source.where_atoms)
    return query.predicate.atoms()


def query_problems(query: ContinuousQuery, catalog: Catalog) -> List[Problem]:
    """Every error that keeps ``query`` out of a system over ``catalog``.

    One walk over the query's references, each distinct reference
    resolved once (:meth:`ContinuousQuery.resolve`): unknown streams,
    qualifiers and attributes (COS101/102/105), then constraints no
    value of the attribute's type satisfies (COS103), then a WHERE
    clause nothing satisfies (COS201).  :meth:`ContinuousQuery.validate`
    raises the first; ``repro check`` renders them all.
    """
    problems: List[Problem] = []
    for ref in query.streams:
        if ref.stream not in catalog:
            problems.append(Problem(
                "COS101",
                f"unknown stream {ref.stream!r} "
                f"(catalog has: {', '.join(catalog.stream_names)})",
                ref.pos,
            ))
    attributes: Dict[str, Optional[Attribute]] = {}

    def attribute(
        key: str, pos: Optional[int], ref: Optional[AttrRef] = None
    ) -> Optional[Attribute]:
        """What the term ``key`` (``ref``, when parsed) names; its
        problem is reported once, at ``pos``."""
        if key not in attributes:
            resolved = query.resolve(ref or AttrRef.parse(key), catalog)
            if isinstance(resolved, Unresolved):
                code = _CODE_OF_KIND.get(resolved.kind)
                if code is not None:
                    problems.append(Problem(code, resolved.message, pos))
                resolved = None
            attributes[key] = resolved
        return attributes[key]

    for item in query.select_items:
        if isinstance(item, Star):
            schema = query.resolve_qualifier(item.qualifier, catalog)
            if isinstance(schema, Unresolved) and schema.kind == "qualifier":
                problems.append(Problem("COS101", schema.message, item.pos))
        elif isinstance(item, AttrRef):
            attribute(item.key, item.pos, item)
        elif item.arg is not None:
            attr = attribute(item.arg.key, item.arg.pos, item.arg)
            if attr is not None and item.func in ("sum", "avg") and not attr.is_numeric:
                problems.append(Problem(
                    "COS103",
                    f"{item.func.upper()} over non-numeric attribute "
                    f"{item.arg.key} (type {attr.type!r})",
                    item.pos,
                ))
    for ref in query.group_by:
        attribute(ref.key, ref.pos, ref)
    atoms = raw_atoms(query)
    for atom in atoms:
        if isinstance(atom, Comparison):
            attr = attribute(atom.term, atom.pos)
            if attr is not None and attr.is_numeric == isinstance(atom.value, str):
                kind = "string" if attr.is_numeric else "number"
                problems.append(Problem(
                    "COS103",
                    f"{atom.term} has type {attr.type!r} but is compared "
                    f"against {kind} {atom.value!r}",
                    atom.pos,
                ))
        elif isinstance(atom, JoinPredicate):
            left = attribute(atom.left, atom.pos)
            right = attribute(atom.right, atom.pos)
            if left is not None and right is not None and left.is_numeric != right.is_numeric:
                problems.append(Problem(
                    "COS103",
                    f"equijoin {atom.left} = {atom.right} mixes types "
                    f"{left.type!r} and {right.type!r}",
                    atom.pos,
                ))
        elif isinstance(atom, DifferenceConstraint):
            for term in (atom.left, atom.right):
                attr = attribute(term, atom.pos)
                if attr is not None and not attr.is_numeric:
                    problems.append(Problem(
                        "COS103",
                        f"difference constraint on non-numeric attribute "
                        f"{term} (type {attr.type!r})",
                        atom.pos,
                    ))
    if not query.predicate.is_true:
        solved = query.predicate.solved()
        if not solved.satisfiable:
            problems.append(Problem(
                "COS201",
                f"WHERE clause can never be satisfied: {solved.unsat_reason}",
                next((atom.pos for atom in atoms if atom.pos is not None), None),
            ))
    return problems
