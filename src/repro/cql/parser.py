"""Recursive-descent parser for the CQL-like surface syntax.

Grammar (case-insensitive keywords)::

    query       := SELECT select_list FROM stream_list [WHERE condition]
                   [GROUP BY attr_list]
    select_list := select_item ("," select_item)*
    select_item := qualifier "." "*"
                 | attr_ref [AS ident]
                 | AGGFUNC "(" ("*" | attr_ref) ")" [AS ident]
    stream_list := stream_ref ("," stream_ref)*
    stream_ref  := ident [window] [ident]          -- trailing ident = alias
    window      := "[" NOW "]" | "[" UNBOUNDED "]"
                 | "[" RANGE number [unit] "]"
    condition   := comparison (AND comparison)*
    comparison  := operand op operand
                 | operand BETWEEN operand AND operand
    operand     := number | string | [-] number
                 | attr_ref [("-") attr_ref]       -- attribute difference

Attribute differences (``O.timestamp - C.timestamp <= 0``) parse into
:class:`~repro.cql.predicates.DifferenceConstraint` atoms, which is how
the window re-tightening profiles of section 4 are expressed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from repro.cql.ast import (
    Aggregate,
    ContinuousQuery,
    NOW,
    QuerySource,
    SelectItem,
    Star,
    StreamRef,
    UNBOUNDED,
    Window,
    TIME_UNITS,
)
from repro.cql.lexer import Token, tokenize
from repro.cql.predicates import (
    Atom,
    AttrRef,
    Comparison,
    Conjunction,
    DifferenceConstraint,
    Interval,
    JoinPredicate,
    PredicateError,
)

AGG_FUNCS = {"count", "sum", "avg", "min", "max"}

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}


class ParseError(Exception):
    """Raised on any syntax error, with the offending position."""


@dataclass
class _Operand:
    """A parsed comparison operand: a constant, an attribute, or an
    attribute difference ``left - right``."""

    value: Union[int, float, str, None] = None
    attr: Optional[AttrRef] = None
    diff: Optional[Tuple[AttrRef, AttrRef]] = None
    pos: Optional[int] = None

    @property
    def is_constant(self) -> bool:
        return self.attr is None and self.diff is None


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = tokenize(text)
        self._pos = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if token.kind != kind or (
            text is not None and token.text.lower() != text.lower()
        ):
            wanted = text or kind
            raise ParseError(
                f"expected {wanted!r} but found {token.text!r} at position {token.pos}"
            )
        return self._next()

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self._peek()
        if token.kind == kind and (
            text is None or token.text.lower() == text.lower()
        ):
            return self._next()
        return None

    # -- grammar ----------------------------------------------------------------

    def parse(self) -> ContinuousQuery:
        self._expect("keyword", "select")
        select_items = self._select_list()
        self._expect("keyword", "from")
        streams = self._stream_list()
        predicate = Conjunction.true()
        where_atoms: List[Atom] = []
        if self._accept("keyword", "where"):
            where_atoms = self._condition()
            predicate = _conjunction(where_atoms)
        group_by: Tuple[AttrRef, ...] = ()
        if self._accept("keyword", "group"):
            self._expect("keyword", "by")
            group_by = tuple(self._attr_list())
        self._expect("eof")
        return ContinuousQuery(
            select_items=tuple(select_items),
            streams=tuple(streams),
            predicate=predicate,
            group_by=group_by,
            source=QuerySource(self._text, tuple(where_atoms)),
        )

    def _select_list(self) -> List[SelectItem]:
        items = [self._select_item()]
        while self._accept("punct", ","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> SelectItem:
        token = self._peek()
        if token.kind == "ident" and token.text.lower() in AGG_FUNCS:
            after = self._tokens[self._pos + 1]
            if after.kind == "punct" and after.text == "(":
                return self._aggregate()
        ident = self._expect("ident")
        if self._accept("punct", "."):
            if self._accept("punct", "*"):
                return Star(ident.text, pos=ident.pos)
            attr_name = self._expect("ident")
            attr = AttrRef(ident.text, attr_name.text, pos=ident.pos)
        else:
            attr = AttrRef(None, ident.text, pos=ident.pos)
        if self._accept("keyword", "as"):
            # Output aliases on plain columns are accepted for CQL
            # compatibility but do not rename the output attribute.
            self._expect("ident")
        return attr

    def _aggregate(self) -> Aggregate:
        func_token = self._expect("ident")
        func = func_token.text.lower()
        self._expect("punct", "(")
        arg: Optional[AttrRef] = None
        if not self._accept("punct", "*"):
            arg = self._attr_ref()
        self._expect("punct", ")")
        output_name = None
        if self._accept("keyword", "as"):
            output_name = self._expect("ident").text
        return Aggregate(func, arg, output_name, pos=func_token.pos)

    def _attr_ref(self) -> AttrRef:
        first = self._expect("ident")
        if self._accept("punct", "."):
            second = self._expect("ident")
            return AttrRef(first.text, second.text, pos=first.pos)
        return AttrRef(None, first.text, pos=first.pos)

    def _attr_list(self) -> List[AttrRef]:
        attrs = [self._attr_ref()]
        while self._accept("punct", ","):
            attrs.append(self._attr_ref())
        return attrs

    def _stream_list(self) -> List[StreamRef]:
        streams = [self._stream_ref()]
        while self._accept("punct", ","):
            streams.append(self._stream_ref())
        return streams

    def _stream_ref(self) -> StreamRef:
        name_token = self._expect("ident")
        window = UNBOUNDED
        if self._accept("punct", "["):
            window = self._window_body()
            self._expect("punct", "]")
        alias = None
        if self._peek().kind == "ident":
            alias = self._next().text
        return StreamRef(name_token.text, window, alias, pos=name_token.pos)

    def _window_body(self) -> Window:
        if self._accept("keyword", "now"):
            return NOW
        if self._accept("keyword", "unbounded"):
            return UNBOUNDED
        self._expect("keyword", "range")
        number = self._expect("number")
        seconds = float(number.value)  # type: ignore[arg-type]
        unit_token = self._peek()
        if unit_token.kind == "ident" and unit_token.text.lower() in TIME_UNITS:
            self._next()
            seconds *= TIME_UNITS[unit_token.text.lower()]
        return Window(seconds)

    # -- WHERE clause ---------------------------------------------------------------

    def _condition(self) -> List[Atom]:
        atoms = self._comparison()
        while self._accept("keyword", "and"):
            atoms.extend(self._comparison())
        return atoms

    def _comparison(self) -> List[Atom]:
        left = self._operand()
        if self._accept("keyword", "between"):
            lo = self._operand()
            self._expect("keyword", "and")
            hi = self._operand()
            if not (lo.is_constant and hi.is_constant):
                raise ParseError("BETWEEN bounds must be constants")
            return self._make_atoms(left, ">=", lo) + self._make_atoms(
                left, "<=", hi
            )
        op_token = self._expect("op")
        right = self._operand()
        return self._make_atoms(left, op_token.text, right)

    def _operand(self) -> _Operand:
        token = self._peek()
        if token.kind in ("number", "string"):
            self._next()
            return _Operand(value=token.value, pos=token.pos)
        if token.kind == "punct" and token.text in ("-", "+"):
            sign = -1 if token.text == "-" else 1
            self._next()
            number = self._expect("number")
            return _Operand(value=sign * number.value, pos=token.pos)  # type: ignore[operator]
        attr = self._attr_ref()
        if self._peek().kind == "punct" and self._peek().text == "-":
            after = self._tokens[self._pos + 1]
            if after.kind == "ident":
                self._next()
                other = self._attr_ref()
                return _Operand(diff=(attr, other), pos=attr.pos)
        return _Operand(attr=attr, pos=attr.pos)

    def _make_atoms(self, left: _Operand, op: str, right: _Operand) -> List[Atom]:
        if left.is_constant and right.is_constant:
            raise ParseError("comparison between two constants is not allowed")
        if left.is_constant:
            # Flip "10 < R.A" into "R.A > 10".
            left, right, op = right, left, _FLIPPED[op]
        if left.diff is not None:
            if not right.is_constant:
                raise ParseError(
                    "attribute differences may only be compared to constants"
                )
            return [self._diff_atom(left.diff, op, right.value, left.pos)]
        assert left.attr is not None
        if right.is_constant:
            return [Comparison(left.attr.key, op, right.value, pos=left.pos)]
        if right.diff is not None:
            raise ParseError(
                "attribute differences may only appear on one side"
            )
        assert right.attr is not None
        if op != "=":
            raise ParseError(
                f"only equality joins between attributes are supported, got {op!r}"
            )
        return [JoinPredicate(left.attr.key, right.attr.key, pos=left.pos)]

    def _diff_atom(
        self,
        diff: Tuple[AttrRef, AttrRef],
        op: str,
        value: object,
        pos: Optional[int] = None,
    ) -> DifferenceConstraint:
        left, right = diff
        if isinstance(value, str):
            raise ParseError(
                f"attribute difference {left.key} - {right.key} compared to "
                f"string {value!r} at position {pos}"
            )
        if op == "=":
            interval = Interval.point(value)  # type: ignore[arg-type]
        elif op == "<":
            interval = Interval.at_most(value, strict=True)  # type: ignore[arg-type]
        elif op == "<=":
            interval = Interval.at_most(value)  # type: ignore[arg-type]
        elif op == ">":
            interval = Interval.at_least(value, strict=True)  # type: ignore[arg-type]
        elif op == ">=":
            interval = Interval.at_least(value)  # type: ignore[arg-type]
        else:
            raise ParseError("'!=' is not supported on attribute differences")
        return DifferenceConstraint(left.key, right.key, interval, pos=pos)


def _conjunction(atoms: List[Atom]) -> Conjunction:
    """The WHERE clause's conjunction; a term bounded by both a string
    and a number is a :class:`ParseError` at the first atom that mixes
    them."""
    try:
        return Conjunction.from_atoms(atoms)
    except PredicateError as exc:
        for end in range(1, len(atoms) + 1):
            try:
                Conjunction.from_atoms(atoms[:end])
            except PredicateError:
                raise ParseError(f"{exc} at position {atoms[end - 1].pos}") from None
        raise


def parse_query(text: str, name: Optional[str] = None) -> ContinuousQuery:
    """Parse CQL-like ``text`` into a :class:`ContinuousQuery`.

    >>> q = parse_query(
    ...     "SELECT O.itemID FROM OpenAuction [Range 3 Hour] O, "
    ...     "ClosedAuction [Now] C WHERE O.itemID = C.itemID"
    ... )
    >>> q.stream_ref("O").window.size
    10800.0
    """
    query = _Parser(text).parse()
    if name is not None:
        query = ContinuousQuery(
            query.select_items,
            query.streams,
            query.predicate,
            query.group_by,
            name=name,
            source=query.source,
        )
    return query
