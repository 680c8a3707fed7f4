"""Predicate algebra shared by the CBN filters and the query layer.

Both layers of COSMOS reason about the *same* class of predicates:

* CBN datagram filters (section 3.1) are conjunctions of constraints on
  the attribute values of a single stream's datagrams.
* Query selection/join predicates (section 4) are conjunctions of
  constraints over the attributes of the referenced streams, and query
  containment reduces to implication between such conjunctions.

To serve both, the algebra here is defined over generic string *terms*:
the query layer uses qualified attribute names (``"O.timestamp"``), the
CBN layer uses a datagram's attribute names directly.  A
:class:`Conjunction` stores

* one :class:`Interval` of allowed values per constrained term,
* a set of excluded values (``!=``) per term,
* equality links between terms (equijoin predicates ``a = b``), and
* difference constraints ``lo <= a - b <= hi`` (the timestamp-window
  constraints of Lemma 1).

Satisfiability, implication and the equality closure are all read off
one *solved form* per conjunction (:class:`ConstraintSystem`): equality
classes, one interval and exclusion set per class, and the
shortest-path closure of the difference-bound matrix (DBM) over the
constraint graph.  The translation is the classic one for systems of
difference constraints:

* a value bound ``t <= hi`` becomes the edge ``origin -> t`` of weight
  ``hi`` (``t - origin <= hi`` with a virtual origin pinned at 0) and
  ``t >= lo`` becomes ``t -> origin`` of weight ``-lo``;
* a difference constraint ``a - b <= hi`` becomes ``b -> a`` of weight
  ``hi`` and ``a - b >= lo`` becomes ``a -> b`` of weight ``-lo``;
* equality links (equijoins) merge their endpoints into one node.

Edge weights are pairs ``(value, strict)`` ordered lexicographically
(``(5, strict)`` is tighter than ``(5, non-strict)``), kept in the
numeric type they were written in so integer bounds stay exact.  The
conjunction is unsatisfiable over the reals iff the closure puts a
negative entry on the diagonal — a cycle of negative weight, or of zero
weight through a strict edge — and the closed matrix gives the
*tightest* interval per term and per difference.  So the tests are
sound and complete for conjunctions of interval, equality and
difference constraints over the reals.  Exclusions (``!=``) and
string-valued constraints stay out of the matrix and are handled by
point/exclusion analysis after tightening: complete for satisfiability,
sound for implication (``x <= 5 AND x != 5`` is not recognised as
implying ``x < 5``).  A missed implication only costs a merging
opportunity, never correctness.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

Value = Union[int, float, str]

COMPARISON_OPS = ("<", "<=", ">", ">=", "=", "!=")


class PredicateError(Exception):
    """Raised for malformed predicates (mixed types, bad operators)."""


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """A (possibly half-open, possibly unbounded) interval of values.

    ``lo is None`` means unbounded below, ``hi is None`` unbounded
    above.  ``lo_strict``/``hi_strict`` mark open endpoints.  Values may
    be numbers or strings (strings compare lexicographically), but a
    single interval must not mix the two.
    """

    lo: Optional[Value] = None
    hi: Optional[Value] = None
    lo_strict: bool = False
    hi_strict: bool = False

    def __post_init__(self) -> None:
        if self.lo is not None and self.hi is not None:
            if isinstance(self.lo, str) != isinstance(self.hi, str):
                raise PredicateError(
                    f"interval mixes string and numeric bounds: {self}"
                )

    def _check_same_kind(self, other: "Interval") -> None:
        """Reject comparing a string-bounded with a numeric interval.

        Each interval is homogeneous, so one bound of each decides.
        """
        mine = self.hi if self.lo is None else self.lo
        theirs = other.hi if other.lo is None else other.lo
        if (
            mine is not None
            and theirs is not None
            and isinstance(mine, str) != isinstance(theirs, str)
        ):
            raise PredicateError(
                f"interval mixes string and numeric bounds: {self} with {other}"
            )

    # -- classification -----------------------------------------------------

    @property
    def is_universal(self) -> bool:
        """True when the interval admits every value."""
        return self.lo is None and self.hi is None

    @property
    def is_empty(self) -> bool:
        """True when no value can satisfy the interval."""
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        if self.lo == self.hi and (self.lo_strict or self.hi_strict):
            return True
        return False

    @property
    def is_point(self) -> bool:
        """True when exactly one value satisfies the interval."""
        return (
            self.lo is not None
            and self.lo == self.hi
            and not self.lo_strict
            and not self.hi_strict
        )

    # -- membership and ordering ---------------------------------------------

    def contains_value(self, value: Value) -> bool:
        if self.lo is not None:
            if isinstance(value, str) != isinstance(self.lo, str):
                return False
            if value < self.lo or (value == self.lo and self.lo_strict):
                return False
        if self.hi is not None:
            if isinstance(value, str) != isinstance(self.hi, str):
                return False
            if value > self.hi or (value == self.hi and self.hi_strict):
                return False
        return True

    def contains_interval(self, other: "Interval") -> bool:
        """True when every value of ``other`` lies inside ``self``."""
        self._check_same_kind(other)
        if other.is_empty:
            return True
        if self.lo is not None:
            if other.lo is None:
                return False
            if other.lo < self.lo:
                return False
            if other.lo == self.lo and self.lo_strict and not other.lo_strict:
                return False
        if self.hi is not None:
            if other.hi is None:
                return False
            if other.hi > self.hi:
                return False
            if other.hi == self.hi and self.hi_strict and not other.hi_strict:
                return False
        return True

    # -- lattice operations ---------------------------------------------------

    def intersect(self, other: "Interval") -> "Interval":
        """Largest interval contained in both operands."""
        self._check_same_kind(other)
        lo, lo_strict = self.lo, self.lo_strict
        if other.lo is not None and (
            lo is None
            or other.lo > lo
            or (other.lo == lo and other.lo_strict)
        ):
            lo, lo_strict = other.lo, other.lo_strict
        hi, hi_strict = self.hi, self.hi_strict
        if other.hi is not None and (
            hi is None
            or other.hi < hi
            or (other.hi == hi and other.hi_strict)
        ):
            hi, hi_strict = other.hi, other.hi_strict
        return Interval(lo, hi, lo_strict, hi_strict)

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both operands (convex hull)."""
        self._check_same_kind(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        if self.lo is None or other.lo is None:
            lo, lo_strict = None, False
        elif self.lo < other.lo:
            lo, lo_strict = self.lo, self.lo_strict
        elif other.lo < self.lo:
            lo, lo_strict = other.lo, other.lo_strict
        else:
            lo, lo_strict = self.lo, self.lo_strict and other.lo_strict
        if self.hi is None or other.hi is None:
            hi, hi_strict = None, False
        elif self.hi > other.hi:
            hi, hi_strict = self.hi, self.hi_strict
        elif other.hi > self.hi:
            hi, hi_strict = other.hi, other.hi_strict
        else:
            hi, hi_strict = self.hi, self.hi_strict and other.hi_strict
        return Interval(lo, hi, lo_strict, hi_strict)

    def negate(self) -> "Interval":
        """The interval ``{-v : v in self}`` (numeric intervals only)."""
        lo = None if self.hi is None else -self.hi
        hi = None if self.lo is None else -self.lo
        return Interval(lo, hi, self.hi_strict, self.lo_strict)

    @staticmethod
    def universal() -> "Interval":
        return Interval()

    @staticmethod
    def point(value: Value) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def at_least(value: Value, strict: bool = False) -> "Interval":
        return Interval(lo=value, lo_strict=strict)

    @staticmethod
    def at_most(value: Value, strict: bool = False) -> "Interval":
        return Interval(hi=value, hi_strict=strict)

    def __str__(self) -> str:
        left = "(" if self.lo_strict else "["
        right = ")" if self.hi_strict else "]"
        lo = "-inf" if self.lo is None else repr(self.lo)
        hi = "+inf" if self.hi is None else repr(self.hi)
        return f"{left}{lo}, {hi}{right}"


# ---------------------------------------------------------------------------
# Atomic predicates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttrRef:
    """A qualified attribute reference, e.g. ``O.timestamp``.

    ``qualifier`` is the stream reference name (alias or stream name);
    it may be ``None`` for already-flat attribute names such as those of
    CBN datagrams.  :attr:`key` is the canonical term string used by the
    predicate algebra.  ``pos`` is the character offset of the reference
    in the query text it was parsed from (``None`` for programmatically
    built references); it is excluded from equality so provenance never
    affects predicate semantics.
    """

    qualifier: Optional[str]
    name: str
    pos: Optional[int] = field(default=None, compare=False)

    @property
    def key(self) -> str:
        if self.qualifier is None:
            return self.name
        return f"{self.qualifier}.{self.name}"

    @staticmethod
    def parse(text: str) -> "AttrRef":
        """Parse ``"O.timestamp"`` or a bare ``"temperature"``."""
        if "." in text:
            qualifier, __, name = text.partition(".")
            return AttrRef(qualifier, name)
        return AttrRef(None, text)

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class Comparison:
    """An atomic comparison of a term against a constant: ``term op value``."""

    term: str
    op: str
    value: Value
    pos: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise PredicateError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.term} {self.op} {self.value!r}"


@dataclass(frozen=True)
class JoinPredicate:
    """An equality between two terms: ``left = right`` (equijoin)."""

    left: str
    right: str
    pos: Optional[int] = field(default=None, compare=False)

    def normalized(self) -> Tuple[str, str]:
        return (self.left, self.right) if self.left <= self.right else (self.right, self.left)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class DifferenceConstraint:
    """A bound on the difference of two terms: ``left - right in interval``.

    This is the shape of the window re-tightening constraints produced by
    Lemma 1, e.g. ``-3h <= O.timestamp - C.timestamp <= 0``.
    """

    left: str
    right: str
    interval: Interval
    pos: Optional[int] = field(default=None, compare=False)

    def normalized(self) -> Tuple[Tuple[str, str], Interval]:
        """Canonical orientation: terms in lexicographic order."""
        if self.left <= self.right:
            return (self.left, self.right), self.interval
        return (self.right, self.left), self.interval.negate()

    def __str__(self) -> str:
        return f"{self.left} - {self.right} in {self.interval}"


Atom = Union[Comparison, JoinPredicate, DifferenceConstraint]


# ---------------------------------------------------------------------------
# Conjunctions
# ---------------------------------------------------------------------------


class Conjunction:
    """An immutable conjunction of atomic predicates over string terms.

    The empty conjunction is the predicate ``TRUE``.  Construct from
    atoms with :meth:`from_atoms`, combine with :meth:`and_`, weaken
    with :meth:`hull`, compare with :meth:`implies`, and evaluate
    against a value binding with :meth:`evaluate`.
    """

    __slots__ = ("_intervals", "_excluded", "_links", "_diffs", "_solved", "_atoms")

    def __init__(
        self,
        intervals: Optional[Mapping[str, Interval]] = None,
        excluded: Optional[Mapping[str, FrozenSet[Value]]] = None,
        links: Optional[Iterable[Tuple[str, str]]] = None,
        diffs: Optional[Mapping[Tuple[str, str], Interval]] = None,
    ) -> None:
        # A hull is TRUE more often than not: empty parts skip the filters.
        self._intervals: Dict[str, Interval] = (
            {term: iv for term, iv in intervals.items() if not iv.is_universal}
            if intervals
            else {}
        )
        self._excluded: Dict[str, FrozenSet[Value]] = (
            {term: vals for term, vals in excluded.items() if vals}
            if excluded
            else {}
        )
        self._links: FrozenSet[Tuple[str, str]] = (
            frozenset((a, b) if a <= b else (b, a) for a, b in links if a != b)
            if links
            else frozenset()
        )
        self._diffs: Dict[Tuple[str, str], Interval] = (
            {pair: iv for pair, iv in diffs.items() if not iv.is_universal}
            if diffs
            else {}
        )
        self._solved: Optional[ConstraintSystem] = None
        self._atoms: Optional[Tuple[Atom, ...]] = None

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def true() -> "Conjunction":
        """The empty conjunction (always satisfied)."""
        return Conjunction()

    @staticmethod
    def from_atoms(atoms: Iterable[Atom]) -> "Conjunction":
        """Build a conjunction from comparison/join/difference atoms."""
        intervals: Dict[str, Interval] = {}
        excluded: Dict[str, Set[Value]] = {}
        links: List[Tuple[str, str]] = []
        diffs: Dict[Tuple[str, str], Interval] = {}
        for atom in atoms:
            if isinstance(atom, Comparison):
                iv = _comparison_interval(atom)
                if iv is None:
                    excluded.setdefault(atom.term, set()).add(atom.value)
                else:
                    prev = intervals.get(atom.term, Interval.universal())
                    intervals[atom.term] = prev.intersect(iv)
            elif isinstance(atom, JoinPredicate):
                links.append(atom.normalized())
            elif isinstance(atom, DifferenceConstraint):
                pair, iv = atom.normalized()
                prev = diffs.get(pair, Interval.universal())
                diffs[pair] = prev.intersect(iv)
            else:
                raise PredicateError(f"unknown atom type: {atom!r}")
        return Conjunction(
            intervals,
            {term: frozenset(vals) for term, vals in excluded.items()},
            links,
            diffs,
        )

    # -- accessors -------------------------------------------------------------

    # Read-only views, not copies: a conjunction never changes.

    @property
    def intervals(self) -> Mapping[str, Interval]:
        return MappingProxyType(self._intervals)

    @property
    def excluded(self) -> Mapping[str, FrozenSet[Value]]:
        return MappingProxyType(self._excluded)

    @property
    def links(self) -> FrozenSet[Tuple[str, str]]:
        return self._links

    @property
    def diffs(self) -> Mapping[Tuple[str, str], Interval]:
        return MappingProxyType(self._diffs)

    @property
    def is_true(self) -> bool:
        """True when this conjunction is the trivial predicate ``TRUE``."""
        return not (self._intervals or self._excluded or self._links or self._diffs)

    def referenced_terms(self) -> Set[str]:
        """All terms mentioned by any atom of this conjunction."""
        terms: Set[str] = set(self._intervals) | set(self._excluded)
        for a, b in self._links:
            terms.update((a, b))
        for a, b in self._diffs:
            terms.update((a, b))
        return terms

    # -- combination ------------------------------------------------------------

    def and_(self, other: "Conjunction") -> "Conjunction":
        """Conjunction of both operands (tighter than each)."""
        intervals = dict(self._intervals)
        for term, iv in other._intervals.items():
            intervals[term] = intervals.get(term, Interval.universal()).intersect(iv)
        excluded: Dict[str, FrozenSet[Value]] = dict(self._excluded)
        for term, vals in other._excluded.items():
            excluded[term] = excluded.get(term, frozenset()) | vals
        links = set(self._links) | set(other._links)
        diffs = dict(self._diffs)
        for pair, iv in other._diffs.items():
            diffs[pair] = diffs.get(pair, Interval.universal()).intersect(iv)
        return Conjunction(intervals, excluded, links, diffs)

    def hull(self, other: "Conjunction") -> "Conjunction":
        """A conjunction implied by *both* operands (their "loosening").

        This is the merge step of representative-query composition:
        per-term interval hulls, the intersection of the exclusion sets,
        only the equality links present in both, and per-pair hulls of
        the difference constraints.  The result is the tightest
        conjunction in our fragment that both operands imply.
        """
        self_c, other_c = self.closure(), other.closure()
        intervals: Dict[str, Interval] = {}
        for term in set(self_c._intervals) & set(other_c._intervals):
            intervals[term] = self_c._intervals[term].hull(other_c._intervals[term])
        excluded: Dict[str, FrozenSet[Value]] = {}
        for term in set(self_c._excluded) & set(other_c._excluded):
            common = self_c._excluded[term] & other_c._excluded[term]
            if common:
                excluded[term] = common
        links = self_c._links & other_c._links
        diffs: Dict[Tuple[str, str], Interval] = {}
        for pair in set(self_c._diffs) & set(other_c._diffs):
            diffs[pair] = self_c._diffs[pair].hull(other_c._diffs[pair])
        return Conjunction(intervals, excluded, links, diffs)

    def rename(self, mapping: Mapping[str, str]) -> "Conjunction":
        """Rewrite every term through ``mapping`` (identity when absent)."""

        def ren(term: str) -> str:
            return mapping.get(term, term)

        intervals = {ren(t): iv for t, iv in self._intervals.items()}
        excluded = {ren(t): vals for t, vals in self._excluded.items()}
        links = {(ren(a), ren(b)) for a, b in self._links}
        diffs: Dict[Tuple[str, str], Interval] = {}
        for (a, b), iv in self._diffs.items():
            dc = DifferenceConstraint(ren(a), ren(b), iv)
            pair, piv = dc.normalized()
            diffs[pair] = diffs.get(pair, Interval.universal()).intersect(piv)
        return Conjunction(intervals, excluded, links, diffs)

    def restrict_to(self, terms: Iterable[str]) -> "Conjunction":
        """Keep only atoms whose terms all belong to ``terms``."""
        keep = set(terms)
        intervals = {t: iv for t, iv in self._intervals.items() if t in keep}
        excluded = {t: v for t, v in self._excluded.items() if t in keep}
        links = {(a, b) for a, b in self._links if a in keep and b in keep}
        diffs = {
            pair: iv
            for pair, iv in self._diffs.items()
            if pair[0] in keep and pair[1] in keep
        }
        return Conjunction(intervals, excluded, links, diffs)

    # -- semantic analysis --------------------------------------------------------

    def solved(self) -> "ConstraintSystem":
        """The solved form every test below reads, computed on first use.

        Kept on the (immutable) instance: grouping asks one
        representative predicate about many members, and a fresh solve
        per question showed up in install latency (DESIGN.md §9).
        """
        if self._solved is None:
            self._solved = ConstraintSystem(self)
        return self._solved

    def closure(self) -> "Conjunction":
        """Propagate constraints through equality links.

        Every term in an equality class receives the intersection of all
        class members' intervals and the union of their exclusions.
        Difference constraints between members of one class intersect
        with the point interval ``[0, 0]``.  Value intervals are *not*
        tightened through difference chains: source profiles are
        composed from this closure and must not move with the solver.
        """
        if not self._links:
            return self
        solved = self.solved()
        intervals: Dict[str, Interval] = dict(self._intervals)
        excluded: Dict[str, FrozenSet[Value]] = dict(self._excluded)
        for term in sorted(set(itertools.chain.from_iterable(self._links))):
            shared = solved.class_interval(term)
            if shared is not None:
                intervals[term] = intervals.get(term, _UNIVERSAL).intersect(shared)
            values = solved.excluded_values(term)
            if values:
                excluded[term] = excluded.get(term, frozenset()) | values
        diffs = {
            pair: iv.intersect(Interval.point(0)) if solved.same_class(*pair) else iv
            for pair, iv in self._diffs.items()
        }
        return Conjunction(intervals, excluded, self._links, diffs)

    def is_satisfiable(self) -> bool:
        """Can any binding (over the reals) satisfy this conjunction?"""
        return self.solved().satisfiable

    def implies(self, other: "Conjunction") -> bool:
        """Does every binding satisfying ``self`` satisfy ``other``?"""
        return implies(self, other)

    def equivalent(self, other: "Conjunction") -> bool:
        return self.implies(other) and other.implies(self)

    def unimplied_atoms(self, atoms: Iterable[Atom]) -> List[Atom]:
        """The subset of ``atoms`` this conjunction does *not* imply.

        This is the inner loop of residual computation during query
        merging; every atom is checked against the one solved form.
        """
        solved = self.solved()
        return [atom for atom in atoms if not solved.entails(atom)]

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, binding: Mapping[str, Value]) -> bool:
        """Evaluate against a term->value binding.

        A constraint whose term is missing from the binding fails (the
        CBN treats a datagram lacking a constrained attribute as not
        covered).
        """
        for term, iv in self._intervals.items():
            if term not in binding or not iv.contains_value(binding[term]):
                return False
        for term, vals in self._excluded.items():
            if term not in binding or binding[term] in vals:
                return False
        for a, b in self._links:
            if a not in binding or b not in binding or binding[a] != binding[b]:
                return False
        for (a, b), iv in self._diffs.items():
            if a not in binding or b not in binding:
                return False
            try:
                diff = binding[a] - binding[b]  # type: ignore[operator]
            except TypeError:
                return False
            if not iv.contains_value(diff):
                return False
        return True

    # -- misc -------------------------------------------------------------------------

    def atoms(self) -> List[Atom]:
        """Decompose back into a list of atomic predicates.

        Decomposed once per (immutable) instance — every member's
        residual check and every implication test reads it — and handed
        out as a fresh list.
        """
        if self._atoms is None:
            out: List[Atom] = []
            for term, iv in sorted(self._intervals.items()):
                out.extend(_interval_comparisons(term, iv))
            for term, vals in sorted(self._excluded.items()):
                for value in sorted(vals, key=repr):
                    out.append(Comparison(term, "!=", value))
            for a, b in sorted(self._links):
                out.append(JoinPredicate(a, b))
            for (a, b), iv in sorted(self._diffs.items()):
                out.append(DifferenceConstraint(a, b, iv))
            self._atoms = tuple(out)
        return list(self._atoms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Conjunction):
            return NotImplemented
        return (
            self._intervals == other._intervals
            and self._excluded == other._excluded
            and self._links == other._links
            and self._diffs == other._diffs
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._intervals.items()),
                frozenset(self._excluded.items()),
                self._links,
                frozenset(self._diffs.items()),
            )
        )

    def __str__(self) -> str:
        parts = [str(atom) for atom in self.atoms()]
        return " AND ".join(parts) if parts else "TRUE"

    def __repr__(self) -> str:
        return f"Conjunction({self})"


# ---------------------------------------------------------------------------
# Outcome index: many conjunctions against one binding
# ---------------------------------------------------------------------------

_MISSING = object()
_INFINITIES = (math.inf, -math.inf)


def _numeric(value: object) -> bool:
    """An ``int`` or ``float`` (not ``bool``) that is not NaN: the values
    the index orders."""
    kind = type(value)
    return (kind is int or kind is float) and value == value


def _inside(lo: Optional[Value], hi: Optional[Value]) -> Value:
    """A value strictly between two consecutive bounds (``None``:
    unbounded): the next float after ``lo`` (before ``hi`` when ``lo``
    is unbounded), or an exact rational where no float lies between;
    any value for a cell no number lies in (beyond an infinite bound)."""
    finite_lo = lo is not None and lo not in _INFINITIES
    finite_hi = hi is not None and hi not in _INFINITIES
    if not (finite_lo or finite_hi):
        return 0
    try:
        value: Optional[float] = (
            math.nextafter(lo, math.inf) if finite_lo else math.nextafter(hi, -math.inf)  # type: ignore[arg-type]
        )
    except OverflowError:  # an int beyond the float range
        value = None
    if value is not None and (lo is None or lo < value) and (hi is None or value < hi):
        return value
    if finite_lo and finite_hi:
        return (Fraction(lo) + Fraction(hi)) / 2  # type: ignore[arg-type]
    return Fraction(hi) - 1 if finite_hi else Fraction(lo) + 1  # type: ignore[arg-type]


class OutcomeIndex:
    """The outcomes of a fixed tuple of conjunctions on one binding, as
    the bits of an ``int``: bit *i* is ``conjunctions[i].evaluate(binding)``.

    An *indexed* conjunction constrains terms by numeric intervals only.
    Per term, the sorted distinct bounds of its intervals cut the values
    into cells — below the first bound, equal to a bound, strictly
    between two, above the last — and inside a cell every interval's
    membership is constant.  So each cell stores the mask of the
    conjunctions the term does not reject there, computed once with
    :meth:`Interval.contains_value` on one value inside it, and a
    binding costs one bisect per constrained term and an AND.

    Everything else goes to :meth:`Conjunction.evaluate`, the
    definition: conjunctions with ``!=`` exclusions, equality links,
    difference constraints or a bound that is not an ``int``/``float``
    (or is NaN), and, per binding, every conjunction constraining a term
    whose value is missing, NaN or not an ``int``/``float`` (``bool``
    included).
    """

    __slots__ = ("conjunctions", "_terms", "_direct", "_every")

    def __init__(self, conjunctions: Sequence[Conjunction]) -> None:
        self.conjunctions = tuple(conjunctions)
        self._every = (1 << len(self.conjunctions)) - 1
        #: conjunctions always evaluated directly
        self._direct = 0
        by_term: Dict[str, List[Tuple[int, Interval]]] = {}
        for index, conj in enumerate(self.conjunctions):
            bit = 1 << index
            if (
                conj._excluded
                or conj._links
                or conj._diffs
                or not all(
                    bound is None or _numeric(bound)
                    for iv in conj._intervals.values()
                    for bound in (iv.lo, iv.hi)
                )
            ):
                self._direct |= bit
                continue
            for term, iv in conj._intervals.items():
                by_term.setdefault(term, []).append((bit, iv))
        #: (term, sorted distinct bounds, their count, cell masks, the
        #: bits of the conjunctions constraining the term)
        self._terms: Tuple[Tuple[str, List[Value], int, Tuple[int, ...], int], ...] = tuple(
            self._compile(term, constraints) for term, constraints in by_term.items()
        )

    def _compile(
        self, term: str, constraints: List[Tuple[int, Interval]]
    ) -> Tuple[str, List[Value], int, Tuple[int, ...], int]:
        bounds: List[Value] = sorted(
            {bound for __, iv in constraints for bound in (iv.lo, iv.hi) if bound is not None}
        )
        constrained = 0
        for bit, __ in constraints:
            constrained |= bit
        # cell 2j lies below bounds[j] (and above bounds[j - 1]), cell
        # 2j + 1 is bounds[j] itself, the last cell is above them all
        inside = [_inside(None, bounds[0])]
        for lo, hi in zip(bounds, bounds[1:] + [None]):
            inside += [lo, _inside(lo, hi)]
        cells = []
        for value in inside:
            mask = self._every & ~constrained
            for bit, iv in constraints:
                if iv.contains_value(value):
                    mask |= bit
            cells.append(mask)
        return term, bounds, len(bounds), tuple(cells), constrained

    def outcomes(self, binding: Mapping[str, Value]) -> int:
        """Bit *i* set iff ``conjunctions[i].evaluate(binding)``."""
        mask = self._every
        direct = self._direct
        for term, bounds, count, cells, constrained in self._terms:
            value = binding.get(term, _MISSING)
            kind = type(value)
            if (kind is int or kind is float) and value == value:
                at = bisect_left(bounds, value)
                if at < count and bounds[at] == value:
                    mask &= cells[2 * at + 1]
                else:
                    mask &= cells[2 * at]
            else:
                direct |= constrained
        if direct:
            mask &= ~direct
            conjunctions = self.conjunctions
            while direct:
                bit = direct & -direct
                if conjunctions[bit.bit_length() - 1].evaluate(binding):
                    mask |= bit
                direct ^= bit
        return mask


# ---------------------------------------------------------------------------
# Solved form: the one decision procedure
# ---------------------------------------------------------------------------

#: A derived bound ``(value, strict)``: ``(5, True)`` means ``< 5``.
Bound = Tuple[Union[int, float], bool]

_ORIGIN = "\x00origin"
_UNIVERSAL = Interval()
_ZERO: Bound = (0, False)


def _tighter(current: Optional[Bound], candidate: Bound) -> bool:
    """Is ``candidate`` strictly tighter than ``current`` (None = +inf)?"""
    if current is None:
        return True
    return candidate[0] < current[0] or (
        candidate[0] == current[0] and candidate[1] and not current[1]
    )


def _string_bounded(interval: Interval) -> bool:
    return isinstance(interval.lo, str) or isinstance(interval.hi, str)


class ConstraintSystem:
    """The solved form of one :class:`Conjunction`.

    Equality classes (union-find over the terms), one interval and one
    exclusion set per class, and the shortest-path closure of the
    difference-bound matrix.  The closure is computed eagerly only when
    the conjunction has difference constraints (no CBN filter does);
    otherwise it is built if a difference between two terms is asked
    for.  ``seed`` optionally supplies a priori value domains per term:
    the analyzer passes declared schema attribute domains, turning "can
    this filter ever match real data?" into the same satisfiability
    query.  Production passes none.
    """

    __slots__ = (
        "unsat_reason",
        "_terms",
        "_rep",
        "_class_interval",
        "_class_excluded",
        "_domain",
        "_edges",
        "_matrix",
    )

    def __init__(
        self,
        conjunction: Conjunction,
        seed: Optional[Mapping[str, Interval]] = None,
    ) -> None:
        seed = seed or {}
        #: Every term the conjunction (or the seed) constrains.
        self._terms: Set[str] = conjunction.referenced_terms() | set(seed)
        self._rep: Dict[str, str] = {}
        self._class_interval: Dict[str, Interval] = {}
        self._class_excluded: Dict[str, Set[Value]] = {}
        #: Graph edges ``(u, v, weight, strict)`` for ``v - u <= weight``.
        self._edges: List[Tuple[str, str, Union[int, float], bool]] = []
        self._matrix: Optional[Dict[str, Dict[str, Bound]]] = None
        #: Tightest interval per class; the class intervals themselves
        #: unless difference constraints tighten them.
        self._domain = self._class_interval
        #: Why the conjunction has no model (``None`` when it has one).
        self.unsat_reason: Optional[str] = self._solve(conjunction, seed)

    # -- construction ---------------------------------------------------------

    def _find(self, term: str) -> str:
        rep = self._rep
        root = term
        while rep.get(root, root) != root:
            root = rep[root]
        while rep.get(term, term) != root:
            rep[term], term = root, rep[term]
        return root

    def _solve(
        self, conj: Conjunction, seed: Mapping[str, Interval]
    ) -> Optional[str]:
        for a, b in conj._links:
            ra, rb = self._find(a), self._find(b)
            if ra != rb:
                self._rep[max(ra, rb)] = min(ra, rb)
        classes = self._class_interval
        for term, interval in itertools.chain(conj._intervals.items(), seed.items()):
            root = self._find(term)
            try:
                classes[root] = classes.get(root, _UNIVERSAL).intersect(interval)
            except PredicateError:
                # Nothing consistent to propagate through this class.
                classes.clear()
                return f"term {term!r} mixes string and numeric constraints"
        for term, values in conj._excluded.items():
            self._class_excluded.setdefault(self._find(term), set()).update(values)
        for root, interval in classes.items():
            if interval.is_empty:
                return f"empty value interval for {root!r}"
        for (a, b), iv in conj._diffs.items():
            if iv.is_empty:
                return f"empty difference interval for {a!r} - {b!r}"
            if _string_bounded(iv):
                # ``a - b`` can only be evaluated on numbers; a string
                # bound admits no binding at all.
                return f"difference {a!r} - {b!r} bounded by a string"
            ra, rb = self._find(a), self._find(b)
            if ra == rb:
                if not iv.contains_value(0):
                    return f"{a!r} = {b!r} but their difference must lie in {iv}"
                continue
            for root in (ra, rb):
                if _string_bounded(classes.get(root, _UNIVERSAL)):
                    return f"difference constraint on string-valued term {root!r}"
            if iv.hi is not None:
                self._edges.append((rb, ra, iv.hi, iv.hi_strict))
            if iv.lo is not None:
                self._edges.append((ra, rb, -iv.lo, iv.lo_strict))
        if self._edges:
            matrix = self._closed()
            for node, row in matrix.items():
                if _tighter(_ZERO, row[node]):
                    return "difference constraints form a contradictory cycle"
            self._domain = dict(classes)  # string-valued classes stay as given
            for root in matrix:
                if root != _ORIGIN:
                    self._domain[root] = self.tightest_diff(root, _ORIGIN)
        for root, values in self._class_excluded.items():
            interval = self._domain.get(root, _UNIVERSAL)
            if interval.is_point and interval.lo in values:
                return f"{root!r} is pinned to {interval.lo!r} but excludes it"
        return None

    def _closed(self) -> Dict[str, Dict[str, Bound]]:
        """Floyd-Warshall closure over the bound semiring, built once.

        ``matrix[u][v]`` is the tightest derivable bound on ``v - u``.
        A diagonal entry below ``(0, non-strict)`` witnesses an
        infeasible cycle.  String-valued classes stay out of the matrix.
        """
        if self._matrix is not None:
            return self._matrix
        edges = list(self._edges)
        for root, interval in self._class_interval.items():
            if _string_bounded(interval):
                continue
            if interval.hi is not None:
                edges.append((_ORIGIN, root, interval.hi, interval.hi_strict))
            if interval.lo is not None:
                edges.append((root, _ORIGIN, -interval.lo, interval.lo_strict))
        matrix: Dict[str, Dict[str, Bound]] = {_ORIGIN: {_ORIGIN: _ZERO}}
        for u, v, weight, strict in edges:
            matrix.setdefault(v, {v: _ZERO})
            row = matrix.setdefault(u, {u: _ZERO})
            if _tighter(row.get(v), (weight, strict)):
                row[v] = (weight, strict)
        nodes = sorted(matrix)
        for k in nodes:
            through = list(matrix[k].items())
            for i in nodes:
                row = matrix[i]
                d_ik = row.get(k)
                if d_ik is None:
                    continue
                for j, d_kj in through:
                    candidate = (d_ik[0] + d_kj[0], d_ik[1] or d_kj[1])
                    if _tighter(row.get(j), candidate):
                        row[j] = candidate
        self._matrix = matrix
        return matrix

    # -- results ----------------------------------------------------------------

    @property
    def satisfiable(self) -> bool:
        return self.unsat_reason is None

    def same_class(self, a: str, b: str) -> bool:
        return self._find(a) == self._find(b)

    def class_interval(self, term: str) -> Optional[Interval]:
        """Intersection of the value intervals of ``term``'s equality class."""
        return self._class_interval.get(self._find(term))

    def domain(self, term: str) -> Interval:
        """The tightest derivable value interval for ``term``."""
        return self._domain.get(self._find(term), _UNIVERSAL)

    def excluded_values(self, term: str) -> FrozenSet[Value]:
        return frozenset(self._class_excluded.get(self._find(term), ()))

    def tightest_diff(self, a: str, b: str) -> Interval:
        """The tightest derivable interval for ``a - b``."""
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return Interval.point(0)
        matrix = self._closed()
        if ra not in matrix or rb not in matrix:
            return _UNIVERSAL
        upper = matrix[rb].get(ra)  # a - b <= w
        lower = matrix[ra].get(rb)  # b - a <= w, so a - b >= -w
        hi, hi_strict = upper if upper is not None else (None, False)
        lo, lo_strict = (-lower[0], lower[1]) if lower is not None else (None, False)
        return Interval(lo, hi, lo_strict, hi_strict)

    def entails(self, atom: Atom) -> bool:
        """Does every model of the system satisfy ``atom``?

        A constraint on a term requires the term to be bound (the CBN
        treats a datagram lacking a constrained attribute as not
        covered), so an atom over a term the system leaves unconstrained
        is never entailed.  A system without models entails everything.
        """
        if self.unsat_reason is not None:
            return True
        if isinstance(atom, Comparison):
            if atom.term not in self._terms:
                return False
            root = self._find(atom.term)
            domain = self._domain.get(root, _UNIVERSAL)
            if atom.op == "!=":
                return atom.value in self._class_excluded.get(
                    root, ()
                ) or not domain.contains_value(atom.value)
            if not domain.is_universal and _string_bounded(domain) != isinstance(
                atom.value, str
            ):
                # Bounded in one type, asked about the other: strings and
                # numbers are not ordered against each other, so no value
                # the premise admits satisfies the atom.
                return False
            return _comparison_interval(atom).contains_interval(domain)
        if atom.left not in self._terms or atom.right not in self._terms:
            return False
        between = self.tightest_diff(atom.left, atom.right)
        if isinstance(atom, JoinPredicate):
            return between.is_point and between.lo == 0
        return atom.interval.contains_interval(between)


def implies(
    premise: Conjunction,
    conclusion: Conjunction,
    seed: Optional[Mapping[str, Interval]] = None,
) -> bool:
    """Does every binding satisfying ``premise`` satisfy ``conclusion``?

    Bindings range over the reals, within the ``seed`` domains when
    given.
    """
    system = ConstraintSystem(premise, seed) if seed else premise.solved()
    return all(system.entails(atom) for atom in conclusion.atoms())


def vacuous_atoms(
    atoms: Sequence[Atom],
    seed: Optional[Mapping[str, Interval]] = None,
) -> List[Atom]:
    """Atoms implied by the conjunction of their siblings.

    A vacuous conjunct adds nothing to the predicate (``x > 5 AND
    x > 3`` — the second atom).  Callers must establish satisfiability
    first: an unsatisfiable sibling set implies everything.
    """
    out: List[Atom] = []
    for index, atom in enumerate(atoms):
        rest = Conjunction.from_atoms(
            [a for j, a in enumerate(atoms) if j != index]
        )
        if ConstraintSystem(rest, seed).entails(atom):
            out.append(atom)
    return out


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _comparison_interval(atom: Comparison) -> Optional[Interval]:
    """Interval for a comparison atom; ``None`` for ``!=`` atoms."""
    if atom.op == "=":
        return Interval.point(atom.value)
    if atom.op == "<":
        return Interval.at_most(atom.value, strict=True)
    if atom.op == "<=":
        return Interval.at_most(atom.value)
    if atom.op == ">":
        return Interval.at_least(atom.value, strict=True)
    if atom.op == ">=":
        return Interval.at_least(atom.value)
    return None


def _interval_comparisons(term: str, iv: Interval) -> List[Comparison]:
    if iv.is_point:
        return [Comparison(term, "=", iv.lo)]
    out: List[Comparison] = []
    if iv.lo is not None:
        out.append(Comparison(term, ">" if iv.lo_strict else ">=", iv.lo))
    if iv.hi is not None:
        out.append(Comparison(term, "<" if iv.hi_strict else "<=", iv.hi))
    return out


def atom_terms(atom: Atom) -> Set[str]:
    """The terms referenced by one atomic predicate."""
    if isinstance(atom, Comparison):
        return {atom.term}
    if isinstance(atom, (JoinPredicate, DifferenceConstraint)):
        return {atom.left, atom.right}
    raise PredicateError(f"unknown atom type: {atom!r}")
