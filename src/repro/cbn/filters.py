"""CBN filters and data-interest profiles (section 3.1).

A *filter* is defined on one stream and is a conjunction of constraints
on that stream's attributes.  A *profile* is the triple ⟨S, P, F⟩:

* ``S`` — the set of requested stream names;
* ``P`` — one projection attribute set per stream in S (the COSMOS
  extension enabling early projection);
* ``F`` — a set of filters; a datagram is covered by the profile when
  it is covered by *any* filter (disjunction of conjunctions).

Coverage (:meth:`Profile.covers`) is what brokers use to route
datagrams.  Subsumption (:meth:`Profile.subsumes`, built on the sound
implication test of the predicate algebra) is what the analyzer reads
to flag a profile that another on the same interface makes dead
(COS203); routing tables keep one entry per subscription and do not
aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.cbn.datagram import Datagram
from repro.cql.predicates import Conjunction

#: Sentinel projection meaning "all attributes of the stream".
ALL_ATTRIBUTES: FrozenSet[str] = frozenset({"*"})


class ProfileError(Exception):
    """Raised for ill-formed profiles (filters on unrequested streams)."""


@dataclass(frozen=True)
class Filter:
    """A datagram filter on a single stream.

    ``condition`` is a conjunction over the stream's attribute names.
    The trivially-true condition makes the filter match every datagram
    of the stream.
    """

    stream: str
    condition: Conjunction = field(default_factory=Conjunction.true)

    def covers(self, datagram: Datagram) -> bool:
        """Is ``datagram`` from this filter's stream and satisfying it?"""
        if datagram.stream != self.stream:
            return False
        return self.condition.evaluate(datagram.payload)

    def subsumes(self, other: "Filter") -> bool:
        """Does every datagram covered by ``other`` pass this filter?

        Decided by :meth:`~repro.cql.predicates.Conjunction.implies`:
        sound, and complete for interval, equality and difference
        constraints over the reals (``!=`` in ``other`` only feeds a
        point/exclusion analysis).
        """
        if self.stream != other.stream:
            return False
        return other.condition.implies(self.condition)

    def __str__(self) -> str:
        return f"{self.stream}: {self.condition}"


class Matcher:
    """One profile resolved for one of its streams, so a broker matches
    and projects a datagram with no profile introspection: the stream's
    filter ``conditions`` (empty means unconditional), the delivered
    ``projection``, the forwarded ``carried`` set
    (:meth:`Profile.carried_attributes`) and whether the projection
    ``wants_all`` attributes.  Built by :meth:`Profile.matcher`.
    """

    __slots__ = ("conditions", "projection", "carried", "wants_all")

    def __init__(self, profile: "Profile", stream: str) -> None:
        self.conditions = tuple(flt.condition for flt in profile.filters_for(stream))
        self.projection = profile.projection_for(stream)
        self.carried = profile.carried_attributes(stream)
        self.wants_all = self.projection == ALL_ATTRIBUTES

    def covers(self, payload: Mapping[str, object]) -> bool:
        """Does a datagram of the stream carrying ``payload`` pass?"""
        conditions = self.conditions
        if not conditions:
            return True
        for condition in conditions:
            if condition.evaluate(payload):
                return True
        return False


class Profile:
    """A data-interest profile ⟨S, P, F⟩.

    Parameters
    ----------
    projections:
        Mapping stream name -> attribute-name set.  Streams present here
        form ``S``.  Use :data:`ALL_ATTRIBUTES` for "every attribute".
    filters:
        The disjunction of per-stream filters ``F``.  A stream in ``S``
        with no filter at all is requested unconditionally (equivalent
        to one trivially-true filter on it).
    subscriber:
        Optional identity of the subscribing party; used by the routing
        layer to address deliveries.
    """

    def __init__(
        self,
        projections: Mapping[str, Iterable[str]],
        filters: Iterable[Filter] = (),
        subscriber: Optional[str] = None,
    ) -> None:
        self._projections: Dict[str, FrozenSet[str]] = {
            stream: frozenset(attrs) for stream, attrs in projections.items()
        }
        self._streams: FrozenSet[str] = frozenset(self._projections)
        self._filters: Tuple[Filter, ...] = tuple(filters)
        for flt in self._filters:
            if flt.stream not in self._projections:
                raise ProfileError(
                    f"filter on stream {flt.stream!r} which is not in S = "
                    f"{sorted(self._projections)}"
                )
        self.subscriber = subscriber
        self._matchers: Dict[str, Matcher] = {}

    # -- the triple ------------------------------------------------------------------

    @property
    def streams(self) -> FrozenSet[str]:
        """``S``: the set of requested stream names."""
        return self._streams

    @property
    def projections(self) -> Dict[str, FrozenSet[str]]:
        """``P``: per-stream projection attribute sets."""
        return dict(self._projections)

    @property
    def filters(self) -> Tuple[Filter, ...]:
        """``F``: the disjunction of per-stream filters."""
        return self._filters

    def projection_for(self, stream: str) -> FrozenSet[str]:
        try:
            return self._projections[stream]
        except KeyError:
            raise ProfileError(f"stream {stream!r} is not in this profile") from None

    def filters_for(self, stream: str) -> List[Filter]:
        return [flt for flt in self._filters if flt.stream == stream]

    def matcher(self, stream: str) -> Matcher:
        """This profile resolved for ``stream``: built on first use and
        kept, as a profile never changes."""
        matcher = self._matchers.get(stream)
        if matcher is None:
            matcher = self._matchers[stream] = Matcher(self, stream)
        return matcher

    # -- coverage ---------------------------------------------------------------------

    def covers(self, datagram: Datagram) -> bool:
        """Is the datagram covered by any filter of this profile?

        A stream in ``S`` with no filters is requested unconditionally.
        """
        if datagram.stream not in self._projections:
            return False
        stream_filters = self.filters_for(datagram.stream)
        if not stream_filters:
            return True
        return any(flt.covers(datagram) for flt in stream_filters)

    def apply(self, datagram: Datagram) -> Optional[Datagram]:
        """Coverage check plus projection: the receiver-side view.

        Returns the projected datagram, or ``None`` when not covered.
        """
        if not self.covers(datagram):
            return None
        projection = self.projection_for(datagram.stream)
        if projection == ALL_ATTRIBUTES:
            return datagram
        return datagram.project(projection)

    # -- algebra -------------------------------------------------------------------------

    def carried_attributes(self, stream: str) -> FrozenSet[str]:
        """Attributes a broker forwards when this profile matches.

        Early projection keeps the projection set *plus* the attributes
        this profile's own filters evaluate (they must survive for
        re-filtering at later hops); see
        :meth:`repro.cbn.routing.RoutingTable.decide`, which reads it
        off the stream's :meth:`matcher`.
        """
        projection = self.projection_for(stream)
        if projection == ALL_ATTRIBUTES:
            return ALL_ATTRIBUTES
        carried = set(projection)
        for flt in self.filters_for(stream):
            carried |= flt.condition.referenced_terms()
        return frozenset(carried)

    def subsumes(self, other: "Profile") -> bool:
        """Is ``other`` redundant routing state next to this profile?

        Per stream of ``other``: the stream must be requested here,
        every filter of ``other`` (or its unconditional request) must be
        subsumed by some filter here, and — because brokers project
        early — the attributes *carried* when this profile matches must
        cover everything ``other`` needs downstream (its projection and
        the attributes its own filters evaluate).  Sound; each
        filter-against-filter test is the complete
        :meth:`Filter.subsumes`, but a filter of ``other`` covered only
        by the *union* of several filters here is not recognised.
        """
        for stream in other.streams:
            if stream not in self._projections:
                return False
            mine = self.carried_attributes(stream)
            theirs = other.carried_attributes(stream)
            if mine != ALL_ATTRIBUTES:
                if theirs == ALL_ATTRIBUTES or not theirs <= mine:
                    return False
            my_filters = self.filters_for(stream)
            their_filters = other.filters_for(stream)
            if my_filters:
                if not their_filters:
                    return False  # they want everything, we filter
                for their_filter in their_filters:
                    if not any(f.subsumes(their_filter) for f in my_filters):
                        return False
        return True

    def restricted_to(self, stream: str) -> "Profile":
        """The sub-profile concerning a single stream."""
        return Profile(
            {stream: self.projection_for(stream)},
            self.filters_for(stream),
            subscriber=self.subscriber,
        )

    def size_estimate(self) -> int:
        """Rough wire size of the profile itself (subscription traffic)."""
        size = 0
        for stream, attrs in self._projections.items():
            size += len(stream) + sum(len(a) for a in attrs)
        for flt in self._filters:
            size += len(flt.stream) + 8 * len(flt.condition.atoms())
        return size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Profile):
            return NotImplemented
        return (
            self._projections == other._projections
            and set(self._filters) == set(other._filters)
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._projections.items()),
                frozenset(self._filters),
            )
        )

    def __repr__(self) -> str:
        streams = ", ".join(sorted(self.streams))
        return f"Profile(S={{{streams}}}, |F|={len(self._filters)})"
