"""Per-link traffic accounting.

Communication efficiency is the paper's headline objective, so every
layer that moves data records it here.  :class:`LinkStats` accumulates
message counts and byte volumes per overlay link and can report totals
either raw or weighted by link cost (delay), which is the
"communication cost" of the evaluation section.

A sequence of link records that is applied again and again — a cached
route — is a :class:`Tally`: its first use in a
:class:`LinkStats` is applied record by record, later uses only count,
and the counts are folded into the per-link totals before anything
reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.overlay.topology import Edge, NodeId, edge_key


@dataclass
class LinkUsage:
    """Accumulated traffic on one overlay link."""

    messages: int = 0
    bytes: float = 0.0


class Tally:
    """One message of ``size`` bytes per ``(canonical edge, size)``
    record, used any number of times by one :class:`LinkStats`.

    ``uses`` are the uses counted since that accumulator last folded;
    ``generation`` is the token of the accumulator the records were
    last applied one by one to (``None``: never).
    """

    __slots__ = ("records", "uses", "generation")

    def __init__(self, records: Iterable[Tuple[Edge, float]]) -> None:
        self.records: Tuple[Tuple[Edge, float], ...] = tuple(records)
        self.uses = 0
        self.generation: Optional[object] = None


class LinkStats:
    """Traffic accumulator keyed by canonical overlay edge.

    ``weights`` (optional) maps edges to link costs; when present,
    :meth:`weighted_cost` reports bytes x link-cost summed over links —
    the communication-cost metric the benefit ratio of Figure 4 is
    computed from.

    Links enter in first-use order, the summation order of
    :meth:`weighted_cost`.  A :class:`Tally` keeps that order and every
    total exact while deferring its additions: its first use on an
    accumulator is applied in order, so its links already exist when
    later uses are folded in (``messages += n``, ``bytes += size *
    n``); and uses are only deferred while every byte total is a whole
    number, so adding them later, in any order, gives the same floats.
    (Sums stay below 2**53; a whole-number size times a count is then
    the repeated sum.)  The first size that is not a whole number folds
    what is pending and makes every later use eager.
    """

    def __init__(self, weights: Optional[Mapping[Edge, float]] = None) -> None:
        self._usage: Dict[Edge, LinkUsage] = {}
        # Canonicalize the keys: ``record``/``add_weight`` store under
        # edge_key, so a reversed (v, u) supplied here would otherwise
        # never be found by weighted_cost() and silently cost 1.0.
        self._weights = {
            edge_key(*edge): weight for edge, weight in (weights or {}).items()
        }
        #: tallies with uses not yet folded into ``_usage``
        self._pending: List[Tally] = []
        #: this accumulator's token: a tally holding it had its first use applied here
        self._generation = object()
        #: every byte total is a whole number (uses may be deferred)
        self._whole = True

    def add_weight(self, edge: Edge, weight: float) -> None:
        """Register a link cost (kept if the edge already has one)."""
        self._weights.setdefault(edge_key(*edge), weight)

    # -- accumulation -----------------------------------------------------------

    def _add(self, edge: Edge, messages: int, size: float) -> None:
        if self._whole and not float(size).is_integer():
            self._fold()
            self._whole = False
        usage = self._usage.get(edge)
        if usage is None:
            usage = self._usage[edge] = LinkUsage()
        usage.messages += messages
        usage.bytes += size

    def record(self, u: NodeId, v: NodeId, size: float, count: int = 1) -> None:
        """Record ``count`` messages totalling ``size`` bytes on link (u, v)."""
        self._add(edge_key(u, v), count, size)

    def replay(self, records: Iterable[Tuple[Edge, float]]) -> None:
        """Record one message of ``size`` bytes per ``(canonical edge,
        size)`` record, in order.

        A :class:`LinkUsage` is only made for a link never seen; none is
        handed out, so callers may keep ``records`` and replay them.
        """
        for edge, size in records:
            self._add(edge, 1, size)

    def bump(self, tally: Tally) -> None:
        """One more use of ``tally``: applied now when it is the first
        on this accumulator (or totals are not whole numbers),
        otherwise counted and folded before the next read."""
        if tally.generation is self._generation and self._whole:
            if not tally.uses:
                self._pending.append(tally)
            tally.uses += 1
        else:
            self.replay(tally.records)
            tally.generation = self._generation

    def _fold(self) -> None:
        """Add the counted uses of every pending tally to the totals."""
        usages = self._usage
        for tally in self._pending:
            uses = tally.uses
            for edge, size in tally.records:
                usage = usages[edge]
                usage.messages += uses
                usage.bytes += size * uses
            tally.uses = 0
        self._pending.clear()

    # -- reading ------------------------------------------------------------------

    def usage(self, u: NodeId, v: NodeId) -> LinkUsage:
        self._fold()
        return self._usage.get(edge_key(u, v), LinkUsage())

    def total_messages(self) -> int:
        self._fold()
        return sum(usage.messages for usage in self._usage.values())

    def total_bytes(self) -> float:
        self._fold()
        return sum(usage.bytes for usage in self._usage.values())

    def weighted_cost(self) -> float:
        """Sum over links of bytes x link cost (cost 1.0 when unknown)."""
        self._fold()
        return sum(
            usage.bytes * self._weights.get(edge, 1.0)
            for edge, usage in self._usage.items()
        )

    def as_dict(self) -> Dict[Edge, Tuple[int, float]]:
        """Snapshot: edge -> (messages, bytes)."""
        self._fold()
        return {
            edge: (usage.messages, usage.bytes)
            for edge, usage in self._usage.items()
        }
