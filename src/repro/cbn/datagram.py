"""Stream-tagged datagrams.

A classic CBN datagram is a set of attribute/value pairs.  COSMOS
datagrams additionally carry the unique name of the stream they belong
to (section 3: "we have to first enhance the CBN to be aware of
streaming relations") and a timestamp drawn from the application time
domain T (section 4, Definition 1).

Datagrams travelling a *reliable sequenced uplink*
(:mod:`repro.system.reliability`) additionally carry a per-(stream,
source) monotone sequence number in ``seq``; it is transport metadata
(gap detection, duplicate suppression), preserved through projection
and relabelling, and ``None`` everywhere reliability is not in play.

Every published tuple builds several datagrams (the origin's, one per
early projection and one per result row), so the value is a slotted
class: no per-instance ``__dict__``, fields stored once through the slot
descriptors, and assignment or deletion of a field raises
``AttributeError``.  ``copy``, ``deepcopy`` and ``pickle`` rebuild it
through ``__reduce__``.

A datagram has two constructors.  ``Datagram(stream, payload, timestamp,
seq)`` copies the payload into a fresh dict and coerces the timestamp to
``float`` and ``seq`` to ``int``: it is the constructor for a payload the
caller owns and may still change (publication, workload generators, the
simulator).  :meth:`Datagram.owning` stores what it is handed
as it is, and is only for the data plane's own copies: its ``payload``
must be a fresh ``dict`` that the caller just built and keeps no other
reference to, ``timestamp`` already a ``float`` and ``seq`` an ``int``
or ``None`` (read off another datagram, they are).  A dict that reaches
it from outside the data plane would let its owner change a datagram
after the fact.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Union

Value = Union[int, float, str]

#: Per-type wire widths used when no schema information is available.
_FALLBACK_WIDTHS = {int: 4, float: 8, str: 16, bool: 1}


class Datagram:
    """One immutable datagram of a named stream.

    ``payload`` maps attribute names to values; ``timestamp`` is the
    application-time instant of the tuple the datagram carries.
    """

    __slots__ = ("stream", "payload", "timestamp", "seq")

    stream: str
    payload: Dict[str, Value]
    timestamp: float
    seq: Optional[int]

    def __init__(
        self,
        stream: str,
        payload: Mapping[str, Value],
        timestamp: float = 0.0,
        seq: Optional[int] = None,
    ) -> None:
        _set_stream(self, stream)
        _set_payload(self, dict(payload))
        _set_timestamp(self, float(timestamp))
        _set_seq(self, None if seq is None else int(seq))

    @staticmethod
    def owning(
        stream: str,
        payload: Dict[str, Value],
        timestamp: float,
        seq: Optional[int] = None,
    ) -> "Datagram":
        """A datagram that takes ``payload`` over instead of copying it.

        ``payload`` is a fresh dict nobody else references,
        ``timestamp`` a ``float`` and ``seq`` an ``int`` or ``None``;
        nothing is copied or coerced (see the module docstring).
        """
        datagram = _new(Datagram)
        _set_stream(datagram, stream)
        _set_payload(datagram, payload)
        _set_timestamp(datagram, timestamp)
        _set_seq(datagram, seq)
        return datagram

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"Datagram is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"Datagram is immutable: cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return (Datagram, (self.stream, self.payload, self.timestamp, self.seq))

    # -- accessors ---------------------------------------------------------------

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.payload

    # -- transformation -----------------------------------------------------------

    def project(self, attributes: Iterable[str]) -> "Datagram":
        """A copy keeping only ``attributes`` (the CBN's early projection).

        Attributes that the datagram does not carry are silently
        skipped, matching the forgiving semantics of profile projection
        sets aggregated from several subscriptions.
        """
        keep = set(attributes)
        payload = {k: v for k, v in self.payload.items() if k in keep}
        return Datagram.owning(self.stream, payload, self.timestamp, self.seq)

    # -- size accounting -------------------------------------------------------------

    def size_bytes(self, widths: Optional[Mapping[str, int]] = None) -> float:
        """Approximate wire size of the datagram payload.

        ``widths`` (attribute name -> bytes) comes from the stream
        schema when available; otherwise Python-type fallbacks apply.
        """
        total = 0.0
        for name, value in self.payload.items():
            if widths is not None and name in widths:
                total += widths[name]
            else:
                total += _FALLBACK_WIDTHS.get(type(value), 16)
        if self.seq is not None:
            total += 8  # the sequence number travels as an i64
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Datagram):
            return NotImplemented
        return (
            self.stream == other.stream
            and self.timestamp == other.timestamp
            and self.seq == other.seq
            and self.payload == other.payload
        )

    def __hash__(self) -> int:
        return hash(
            (self.stream, self.timestamp, self.seq,
             frozenset(self.payload.items()))
        )

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in sorted(self.payload.items()))
        tag = "" if self.seq is None else f"#{self.seq}"
        return f"Datagram({self.stream}{tag}@{self.timestamp:g}: {items})"


_new = object.__new__
_set_stream = Datagram.stream.__set__  # type: ignore[attr-defined]
_set_payload = Datagram.payload.__set__  # type: ignore[attr-defined]
_set_timestamp = Datagram.timestamp.__set__  # type: ignore[attr-defined]
_set_seq = Datagram.seq.__set__  # type: ignore[attr-defined]
