"""Columnar batch evaluation for the CBN data plane.

The fast path of PR 2 evaluates filters datagram-at-a-time: every hop
re-enters every compiled entry with a single payload dict.  At the
10k-node / 100k-subscription scale the ROADMAP targets, the per-call
overhead (attribute lookups, method dispatch, short-lived dicts)
dominates.  This module supplies the batch primitives the routing layer
uses to evaluate each bucket's predicate plan **once per batch**:

* :class:`ColumnBatch` decomposes a same-stream run of datagrams into
  per-attribute *columns* (built lazily, one list per referenced term,
  with :data:`MISSING` marking absent attributes);
* :func:`compile_condition` turns a
  :class:`~repro.cql.predicates.Conjunction` into a closure mapping a
  batch to a boolean *match mask*, specialised per constraint kind so
  the inner loop is a plain list comprehension over a column.

Everything here is observationally equivalent to per-datagram
``Conjunction.evaluate``: the property suite in
``tests/properties/test_batch_columnar.py`` holds the columnar path
byte-identical to the naive scan.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.cbn.datagram import Datagram
from repro.cql.predicates import Conjunction, Interval

#: Column sentinel for "attribute absent from this payload".  Distinct
#: from every payload value (including ``None``) by identity.
MISSING: object = object()


class ColumnBatch:
    """A same-stream run of datagrams decomposed into attribute columns.

    Columns are materialised lazily: the first evaluator to reference a
    term pays one pass over the batch, later evaluators for the same
    term (other subscriptions in the bucket, other interfaces of the
    broker) reuse the list.  Absent attributes become :data:`MISSING`
    so evaluators can mirror ``Conjunction.evaluate``'s missing-term
    semantics without per-row ``in`` checks on the payload dict.
    """

    __slots__ = ("stream", "datagrams", "n", "_columns")

    def __init__(self, datagrams: Sequence[Datagram], stream: str) -> None:
        self.stream = stream
        self.datagrams = datagrams
        self.n = len(datagrams)
        self._columns: Dict[str, List[object]] = {}

    def column(self, term: str) -> List[object]:
        """The values of ``term`` across the batch (MISSING when absent)."""
        col = self._columns.get(term)
        if col is None:
            missing = MISSING
            col = [d.payload.get(term, missing) for d in self.datagrams]
            self._columns[term] = col
        return col


#: A compiled condition: batch -> per-datagram match mask.
Mask = List[bool]
BatchEvaluator = Callable[[ColumnBatch], Mask]


def _interval_check(interval: Interval) -> Callable[[object], bool]:
    """A per-value membership test equal to ``interval.contains_value``.

    The bound comparisons and the string/number type guard are folded
    into one closure so the column loop does no attribute access.
    """
    lo, hi = interval.lo, interval.hi
    lo_strict, hi_strict = interval.lo_strict, interval.hi_strict
    if lo is None and hi is None:
        return lambda value: True
    # An interval never mixes string and numeric bounds (__post_init__),
    # so one flag decides the type guard for both ends.
    stringly = isinstance(lo if lo is not None else hi, str)
    if lo is not None and hi is not None:
        if lo_strict and hi_strict:
            inside = lambda value: lo < value < hi  # noqa: E731
        elif lo_strict:
            inside = lambda value: lo < value <= hi  # noqa: E731
        elif hi_strict:
            inside = lambda value: lo <= value < hi  # noqa: E731
        else:
            inside = lambda value: lo <= value <= hi  # noqa: E731
    elif lo is not None:
        if lo_strict:
            inside = lambda value: value > lo  # noqa: E731
        else:
            inside = lambda value: value >= lo  # noqa: E731
    else:
        if hi_strict:
            inside = lambda value: value < hi  # noqa: E731
        else:
            inside = lambda value: value <= hi  # noqa: E731
    if stringly:
        return lambda value: isinstance(value, str) and inside(value)
    return lambda value: not isinstance(value, str) and inside(value)


def compile_condition(condition: Conjunction) -> BatchEvaluator:
    """Compile a conjunction into a vectorized batch evaluator.

    The returned closure produces, for a :class:`ColumnBatch`, the mask
    ``[condition.evaluate(d.payload) for d in batch.datagrams]`` —
    but via one list pass per constrained term.  Conjunctions with
    join links or difference constraints need two terms per row and
    fall back to the scalar evaluator (they never occur in single-
    stream CBN filters, which the routing layer compiles per stream).
    """
    if condition.is_true:
        return lambda batch: [True] * batch.n
    if condition.links or condition.diffs:
        evaluate = condition.evaluate

        def general(batch: ColumnBatch) -> Mask:
            return [evaluate(d.payload) for d in batch.datagrams]

        return general
    checks: List[tuple] = []
    for term, interval in sorted(condition.intervals.items()):
        checks.append((term, _interval_check(interval)))
    for term, vals in sorted(condition.excluded.items()):
        checks.append((term, lambda value, _vals=vals: value not in _vals))
    missing = MISSING
    if len(checks) == 1:
        term, check = checks[0]

        def single(batch: ColumnBatch) -> Mask:
            return [
                value is not missing and check(value)
                for value in batch.column(term)
            ]

        return single

    def conjoined(batch: ColumnBatch) -> Mask:
        mask: Mask = None  # type: ignore[assignment]
        for term, check in checks:
            column = batch.column(term)
            if mask is None:
                mask = [
                    value is not missing and check(value) for value in column
                ]
            else:
                mask = [
                    hit and value is not missing and check(value)
                    for hit, value in zip(mask, column)
                ]
        return mask

    return conjoined
