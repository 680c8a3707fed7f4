"""Stream schemas and the stream catalog.

Streams in COSMOS are modelled as relations that are continuously
appended (section 3 of the paper).  Every stream has a unique name and a
schema: an ordered list of typed attributes.  The catalog is the
process-local view of all known schemas; in the distributed system it is
either flooded to every node or stored in a DHT
(:mod:`repro.cbn.schema_registry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Attribute type names understood by the system.  ``int`` and ``float``
#: support range predicates; ``str`` supports equality predicates;
#: ``timestamp`` behaves like ``float`` but is recognised as the stream
#: time domain by the window machinery.
ATTRIBUTE_TYPES = ("int", "float", "str", "timestamp")

#: Default wire width (bytes) charged per attribute type when estimating
#: stream rates.  These mirror typical fixed-width encodings; ``str``
#: uses an average payload size.
DEFAULT_WIDTHS = {"int": 4, "float": 8, "str": 16, "timestamp": 8}


class SchemaError(Exception):
    """Raised for malformed schemas or unknown streams/attributes."""


@dataclass(frozen=True)
class Attribute:
    """A single typed attribute of a stream schema.

    ``lo``/``hi`` optionally record the value domain of numeric
    attributes; the cost model uses them to estimate predicate
    selectivity, and the workload generators use them to draw constants.
    """

    name: str
    type: str = "float"
    lo: Optional[float] = None
    hi: Optional[float] = None
    width: Optional[int] = None

    def __post_init__(self) -> None:
        if self.type not in ATTRIBUTE_TYPES:
            raise SchemaError(
                f"unknown attribute type {self.type!r} for {self.name!r}; "
                f"expected one of {ATTRIBUTE_TYPES}"
            )
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise SchemaError(
                f"attribute {self.name!r} has empty domain [{self.lo}, {self.hi}]"
            )

    @property
    def byte_width(self) -> int:
        """Wire width in bytes used for rate estimation."""
        if self.width is not None:
            return self.width
        return DEFAULT_WIDTHS[self.type]

    @property
    def is_numeric(self) -> bool:
        return self.type in ("int", "float", "timestamp")


@dataclass(frozen=True)
class StreamSchema:
    """Schema of a named stream: an ordered tuple of attributes.

    A ``rate`` (tuples per second) may be attached; it seeds the cost
    model's estimate of the stream's data rate.
    """

    name: str
    attributes: Tuple[Attribute, ...]
    rate: float = 1.0

    def __init__(
        self,
        name: str,
        attributes: Iterable[Attribute],
        rate: float = 1.0,
    ) -> None:
        attrs = tuple(attributes)
        by_name: Dict[str, Attribute] = {}
        for attr in attrs:
            if attr.name in by_name:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in stream {name!r}"
                )
            by_name[attr.name] = attr
        if rate <= 0:
            raise SchemaError(f"stream {name!r} must have a positive rate")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "rate", float(rate))
        #: name -> attribute, the index every lookup below reads
        object.__setattr__(self, "_by_name", by_name)

    @property
    def attribute_names(self) -> Tuple[str, ...]:
        return tuple(attr.name for attr in self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name, raising :class:`SchemaError`."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"stream {self.name!r} has no attribute {name!r}"
            ) from None

    def has_attribute(self, name: str) -> bool:
        return name in self._by_name

    def width_of(self, attribute_names: Iterable[str]) -> int:
        """Wire width of a projection of this schema, in bytes."""
        return sum(self.attribute(name).byte_width for name in attribute_names)


class Catalog:
    """A mutable registry of stream schemas keyed by stream name.

    The catalog is deliberately simple: downstream layers (the CBN
    schema registry, processors, the workload generators) each hold a
    catalog and keep it in sync through advertisement messages.
    """

    def __init__(self, schemas: Iterable[StreamSchema] = ()) -> None:
        self._schemas: Dict[str, StreamSchema] = {}
        #: Bumped on every mutation; caches derived from schema contents
        #: (e.g. the CBN's per-stream width tables) key on it.
        self.version = 0
        for schema in schemas:
            self.register(schema)

    def register(self, schema: StreamSchema) -> None:
        """Register (or replace) the schema of a stream."""
        self._schemas[schema.name] = schema
        self.version += 1

    def get(self, name: str) -> StreamSchema:
        try:
            return self._schemas[name]
        except KeyError:
            raise SchemaError(f"unknown stream {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._schemas

    def __iter__(self) -> Iterator[StreamSchema]:
        return iter(self._schemas.values())

    def __len__(self) -> int:
        return len(self._schemas)

    @property
    def stream_names(self) -> List[str]:
        return sorted(self._schemas)
