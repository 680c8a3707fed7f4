"""Relational operators over windowed streams.

These are the building blocks the engine compiles a
:class:`~repro.cql.ast.ContinuousQuery` into:

* :class:`PayloadSelectProject` -- a single-stream select-project,
  evaluated on the raw payload;
* :class:`Select` -- predicate filter over a (joined) binding;
* :class:`Project` -- attribute projection / renaming;
* :class:`WindowJoin` -- the n-way (n >= 2) symmetric window join whose pairing
  rule is exactly Lemma 1 of the paper: tuples ``t1`` (stream 1, window
  ``T1``) and ``t2`` (stream 2, window ``T2``) join iff they satisfy the
  join predicates and ``-T1 <= t1.ts - t2.ts <= T2``;
* :class:`GroupedAggregate` -- windowed grouped aggregation over one
  stream's raw payload, re-emitting the affected group's row on every
  arrival.

Bindings are plain ``dict`` objects mapping *qualified* attribute names
(``"O.itemID"``) to values, so the query's
:class:`~repro.cql.predicates.Conjunction` evaluates directly on them.
Both stateful operators keep their state in
:class:`~repro.spe.windows.KeyedWindow`: the join keeps bindings, built
once on arrival, and the aggregate keeps the values it aggregates.
Select and project keep nothing, and the single-stream operators build
no binding at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from sys import intern
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cbn.datagram import Datagram, Value
from repro.cql.predicates import Conjunction
from repro.spe.windows import KeyedWindow

Binding = Dict[str, Value]


def qualify(qualifier: str, datagram: Datagram) -> Binding:
    """Turn a raw stream tuple into a qualified binding.

    ``{"itemID": 7}`` from reference ``O`` becomes ``{"O.itemID": 7}``,
    plus the implicit ``"O.timestamp"`` when the payload does not carry
    an explicit timestamp attribute (sensor streams usually do).
    """
    # Interned: a window retains one binding per tuple, not one more copy
    # of every attribute name per tuple.
    binding: Binding = {
        intern(f"{qualifier}.{name}"): value
        for name, value in datagram.payload.items()
    }
    binding.setdefault(intern(f"{qualifier}.timestamp"), datagram.timestamp)
    return binding


class Select:
    """Filter bindings through a conjunction."""

    def __init__(self, condition: Conjunction) -> None:
        self.condition = condition

    def process(self, binding: Binding) -> Optional[Binding]:
        return binding if self.condition.evaluate(binding) else None


class Project:
    """Keep (and optionally rename) a list of binding attributes.

    ``columns`` maps output name -> input name.  Missing inputs raise,
    because by the time a binding reaches projection the query has been
    validated against the catalog.
    """

    def __init__(self, columns: Mapping[str, str]) -> None:
        self.columns = dict(columns)

    def process(self, binding: Binding) -> Binding:
        try:
            return {out: binding[src] for out, src in self.columns.items()}
        except KeyError as exc:
            raise KeyError(
                f"projection input {exc.args[0]!r} missing from binding "
                f"{sorted(binding)}"
            ) from None


class PayloadSelectProject:
    """Select-project over one stream, evaluated on the raw payload.

    A single-stream query retains nothing, so it never needs a qualified
    binding: the predicate is renamed once from qualified terms
    (``"S.temp"``) to payload attribute names, the projection is a list
    of ``(output key, payload attribute)`` pairs, and the implicit
    ``timestamp`` is supplied as :func:`qualify` does — only when the
    query reads it and the payload lacks it.  ``condition`` and
    ``columns`` are the validated query's, so every term they name is
    qualified by ``qualifier``.
    """

    def __init__(
        self, qualifier: str, condition: Conjunction, columns: Mapping[str, str]
    ) -> None:
        cut = len(qualifier) + 1
        self.condition = condition.rename(
            {term: term[cut:] for term in condition.referenced_terms()}
        )
        self.columns = tuple((out, src[cut:]) for out, src in columns.items())
        self._stamped = "timestamp" in self.condition.referenced_terms() or any(
            src == "timestamp" for __, src in self.columns
        )

    def process(self, datagram: Datagram) -> Optional[Binding]:
        payload = datagram.payload
        if self._stamped and "timestamp" not in payload:
            payload = {**payload, "timestamp": datagram.timestamp}
        if not self.condition.evaluate(payload):
            return None
        try:
            return {out: payload[src] for out, src in self.columns}
        except KeyError as exc:
            raise KeyError(
                f"projection input {exc.args[0]!r} missing from payload "
                f"{sorted(payload)}"
            ) from None


@dataclass
class JoinInput:
    """One input of the symmetric join: a qualifier and its window size."""

    qualifier: str
    window: float


def equijoin_key_pairs(
    predicate: Conjunction, left_qualifier: str, right_qualifier: str
) -> List[Tuple[str, str]]:
    """Extract the cross-input equijoin attribute pairs of a predicate.

    Returns ``(left_attr, right_attr)`` pairs for links connecting the
    two qualifiers; links within one input or to other terms are left
    for residual evaluation.
    """
    pairs: List[Tuple[str, str]] = []
    lp, rp = f"{left_qualifier}.", f"{right_qualifier}."
    for a, b in sorted(predicate.links):
        if a.startswith(lp) and b.startswith(rp):
            pairs.append((a[len(lp):], b[len(rp):]))
        elif a.startswith(rp) and b.startswith(lp):
            pairs.append((b[len(lp):], a[len(rp):]))
    return pairs


class WindowJoin:
    """N-way symmetric window join with Lemma 1 pairing semantics.

    Tuples must arrive in global timestamp order.  On an arrival for
    input *i*, every other input's window is expired to the arrival
    time and the new binding is combined with all combinations of the
    bindings the other windows hold under the arrival's key; each
    combined binding is handed to the caller's predicate.  Combining
    only with *previously arrived* tuples makes every result appear
    exactly once.

    ``key_pairs`` lists the equijoin links of a two-way join as
    ``(left_attr, right_attr)`` *unqualified* attribute names: each
    input is then bucketed by its side's values and an arrival meets
    only the bucket equal to its own.  Without pairs every binding
    lives under the key ``()`` and the same loop scans the whole
    window.  Either way the caller evaluates the whole predicate (links
    included) on what comes back; a bucket holds the buffered bindings
    whose key equals the arrival's, in arrival order, so keying changes
    neither the results nor their order.
    """

    def __init__(
        self,
        inputs: Sequence[JoinInput],
        key_pairs: Sequence[Tuple[str, str]] = (),
    ) -> None:
        if len(inputs) < 2:
            raise ValueError("join needs at least two inputs")
        if key_pairs and len(inputs) != 2:
            raise ValueError("equijoin key pairs need exactly two inputs")
        self._windows: Dict[str, KeyedWindow] = {
            spec.qualifier: KeyedWindow(spec.window) for spec in inputs
        }
        #: qualifier -> the binding terms whose values key that input.
        self._key_terms: Dict[str, Tuple[str, ...]] = {
            spec.qualifier: tuple(
                f"{spec.qualifier}.{pair[side]}" for pair in key_pairs
            )
            for side, spec in enumerate(inputs)
        }

    def process(self, qualifier: str, datagram: Datagram) -> List[Binding]:
        """Feed one arrival; return the new combined bindings."""
        if qualifier not in self._windows:
            raise KeyError(f"unknown join input {qualifier!r}")
        binding = qualify(qualifier, datagram)
        now = datagram.timestamp
        try:
            key = tuple([binding[term] for term in self._key_terms[qualifier]])
        except KeyError:
            # Lacking a key attribute it satisfies no link: it joins
            # with nothing, now or later (no bucket is keyed ``None``),
            # and is not stored.
            key = None
        partials: List[Binding] = [binding]
        for other, window in self._windows.items():
            if other == qualifier:
                continue
            window.expire(now)
            partials = [
                {**partial, **old}
                for partial in partials
                for old in window.probe(key)
            ]
        # Window semantics of the *arriving* stream bound how long this
        # tuple itself stays joinable; insert after combining so a tuple
        # never joins with itself.
        own = self._windows[qualifier]
        if key is not None:
            own.insert(key, now, binding)
        own.expire(now)
        return partials


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate column: function, input attribute, output name."""

    func: str
    attribute: Optional[str]  # qualified input name; None for COUNT(*)
    output_name: str


#: aggregate function -> its fold over a group's values, oldest first
_FOLDS: Dict[str, Callable[[Sequence[Value]], Value]] = {
    "count": len,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "min": min,
    "max": max,
}


class GroupedAggregate:
    """Windowed grouped aggregation over one stream's raw payload.

    Keeps columns, not bindings: for each aggregated attribute one
    :class:`~repro.spe.windows.KeyedWindow`, bucketed by the grouping
    values, holds the values present in the window in arrival order
    (``COUNT(*)`` keeps one value-free window).  On every arrival each
    aggregate folds its group's bucket -- ``sum``/``avg`` add it up in
    arrival order -- and the group's current row is emitted (an
    *Istream*-style update stream).  An attribute a tuple lacks is SQL
    NULL: it enters no window, and a group with no value at all for an
    aggregated attribute emits its row without that column.

    The pre-filter and grouping terms are renamed once, here, to payload
    attribute names, and the implicit ``timestamp`` is supplied as
    :func:`qualify` does -- only when the query reads it and the payload
    lacks it.
    """

    def __init__(
        self,
        qualifier: str,
        window: float,
        group_by: Sequence[str],
        aggregates: Sequence[AggregateSpec],
        pre_filter: Optional[Conjunction] = None,
    ) -> None:
        cut = len(qualifier) + 1
        condition = pre_filter or Conjunction.true()
        self._pre_filter = condition.rename(
            {term: term[cut:] for term in condition.referenced_terms()}
        )
        self._group_by = tuple(group_by)
        self._group_names = tuple(attr[cut:] for attr in group_by)
        #: payload attribute (``None``: ``COUNT(*)``) -> its values' window
        self._columns: Dict[Optional[str], KeyedWindow] = {}
        self._aggregates: List[Tuple[Callable, KeyedWindow, str]] = []
        for spec in aggregates:
            if spec.func not in _FOLDS:
                raise ValueError(f"unknown aggregate function {spec.func!r}")
            name = None if spec.attribute is None else spec.attribute[cut:]
            column = self._columns.setdefault(name, KeyedWindow(window))
            self._aggregates.append((_FOLDS[spec.func], column, spec.output_name))
        self._stamped = "timestamp" in (
            self._pre_filter.referenced_terms() | {*self._group_names, *self._columns}
        )

    def process(self, datagram: Datagram) -> List[Binding]:
        now = datagram.timestamp
        for column in self._columns.values():
            column.expire(now)
        payload = datagram.payload
        if self._stamped and "timestamp" not in payload:
            payload = {**payload, "timestamp": now}
        if not self._pre_filter.evaluate(payload):
            # Tuples failing the selection never enter the window.
            return []
        key = tuple([payload.get(name) for name in self._group_names])
        for name, column in self._columns.items():
            if name is None:
                column.insert(key, now, None)
            elif name in payload:
                column.insert(key, now, payload[name])
        row: Binding = dict(zip(self._group_by, key))
        for fold, column, output in self._aggregates:
            values = column.probe(key)
            if values or fold is len:
                row[output] = fold(values)
        return [row]
