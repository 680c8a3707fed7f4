"""Per-link traffic accounting.

Communication efficiency is the paper's headline objective, so every
layer that moves data records it here.  :class:`LinkStats` accumulates
message counts and byte volumes per overlay link and can report totals
either raw or weighted by link cost (delay), which is the
"communication cost" of the evaluation section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.overlay.topology import Edge, NodeId, edge_key


@dataclass
class LinkUsage:
    """Accumulated traffic on one overlay link."""

    messages: int = 0
    bytes: float = 0.0


class LinkStats:
    """Traffic accumulator keyed by canonical overlay edge.

    ``weights`` (optional) maps edges to link costs; when present,
    :meth:`weighted_cost` reports bytes x link-cost summed over links —
    the communication-cost metric the benefit ratio of Figure 4 is
    computed from.
    """

    def __init__(self, weights: Optional[Mapping[Edge, float]] = None) -> None:
        self._usage: Dict[Edge, LinkUsage] = {}
        # Canonicalize the keys: ``record``/``add_weight`` store under
        # edge_key, so a reversed (v, u) supplied here would otherwise
        # never be found by weighted_cost() and silently cost 1.0.
        self._weights = {
            edge_key(*edge): weight for edge, weight in (weights or {}).items()
        }

    def add_weight(self, edge: Edge, weight: float) -> None:
        """Register a link cost (kept if the edge already has one)."""
        self._weights.setdefault(edge_key(*edge), weight)

    def record(self, u: NodeId, v: NodeId, size: float, count: int = 1) -> None:
        """Record ``count`` messages totalling ``size`` bytes on link (u, v)."""
        self.replay(((edge_key(u, v), size),), count)

    def replay(self, records: Iterable[Tuple[Edge, float]], count: int = 1) -> None:
        """Record ``count`` messages of ``size`` bytes per ``(canonical
        edge, size)`` record, in order.

        Links enter in first-use order — the summation order of
        :meth:`weighted_cost` — and a :class:`LinkUsage` is only made
        for a link never seen (since the last :meth:`reset`); none is
        handed out, so callers may keep ``records`` and replay them.
        """
        usages = self._usage
        for edge, size in records:
            usage = usages.get(edge)
            if usage is None:
                usage = usages[edge] = LinkUsage()
            usage.messages += count
            usage.bytes += size

    def usage(self, u: NodeId, v: NodeId) -> LinkUsage:
        return self._usage.get(edge_key(u, v), LinkUsage())

    @property
    def links_used(self) -> int:
        return len(self._usage)

    def total_messages(self) -> int:
        return sum(usage.messages for usage in self._usage.values())

    def total_bytes(self) -> float:
        return sum(usage.bytes for usage in self._usage.values())

    def weighted_cost(self) -> float:
        """Sum over links of bytes x link cost (cost 1.0 when unknown)."""
        return sum(
            usage.bytes * self._weights.get(edge, 1.0)
            for edge, usage in self._usage.items()
        )

    def reset(self) -> None:
        self._usage.clear()

    def as_dict(self) -> Dict[Edge, Tuple[int, float]]:
        """Snapshot: edge -> (messages, bytes)."""
        return {
            edge: (usage.messages, usage.bytes)
            for edge, usage in self._usage.items()
        }
