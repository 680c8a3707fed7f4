"""CBN filters and data-interest profiles (section 3.1).

A *filter* is defined on one stream and is a conjunction of constraints
on that stream's attributes.  A *profile* is the triple ⟨S, P, F⟩:

* ``S`` — the set of requested stream names;
* ``P`` — one projection attribute set per stream in S (the COSMOS
  extension enabling early projection);
* ``F`` — a set of filters; a datagram is covered by the profile when
  it is covered by *any* filter (disjunction of conjunctions).

Coverage (:meth:`Profile.covers`) defines what brokers route; the
routers read the same outcomes off a stream's outcome bits
(:class:`repro.cbn.routing.ConditionBits`).  Routing tables keep one
entry per subscription and do not aggregate, so nothing here decides
whether one profile subsumes another.
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

    def __str__(self) -> str:
        return f"{self.stream}: {self.condition}"


class Matcher:
    """One profile resolved for one of its streams, so a broker matches
    and projects a datagram with no profile introspection: the stream's
    filter ``conditions`` (empty means unconditional), the delivered
    ``projection``, the forwarded ``carried`` set
    (:meth:`Profile.carried_attributes`) and whether the projection
    ``wants_all`` attributes.  Built by :meth:`Profile.matcher`.  It
    evaluates nothing: a router reads whether its conditions hold off
    the stream's outcome bits (:class:`repro.cbn.routing.ConditionBits`).
    """

    __slots__ = ("conditions", "projection", "carried", "wants_all")

    def __init__(self, profile: "Profile", stream: str) -> None:
        self.conditions = tuple(
            flt.condition for flt in profile._filters_by_stream().get(stream, ())
        )
        self.projection = profile.projection_for(stream)
        self.carried = profile.carried_attributes(stream)
        self.wants_all = self.projection == ALL_ATTRIBUTES


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

    ``F`` is also kept by stream (each stream in ``S`` -> its filters in
    ``F`` order), built on first use so that building a profile costs
    no more than storing it.  :meth:`covers` and :meth:`apply` read that
    map and test each filter with :meth:`Filter.covers`: they are the
    definition of coverage the reference scan applies, and never go
    through the routers' :meth:`matcher`.
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
        #: stream in S -> its filters in F order, built on first use
        #: (:meth:`_filters_by_stream`).
        self._per_stream: Optional[Dict[str, Tuple[Filter, ...]]] = None
        self._matchers: Dict[str, Matcher] = {}
        #: stream -> :meth:`restricted_to` it, built on first use
        self._restricted: Optional[Dict[str, "Profile"]] = None

    # -- the triple ------------------------------------------------------------------

    @property
    def streams(self) -> FrozenSet[str]:
        """``S``: the set of requested stream names."""
        return self._streams

    @property
    def filters(self) -> Tuple[Filter, ...]:
        """``F``: the disjunction of per-stream filters."""
        return self._filters

    def projection_for(self, stream: str) -> FrozenSet[str]:
        try:
            return self._projections[stream]
        except KeyError:
            raise ProfileError(f"stream {stream!r} is not in this profile") from None

    def _filters_by_stream(self) -> Dict[str, Tuple[Filter, ...]]:
        """Stream in ``S`` -> that stream's filters, in ``F`` order (an
        empty tuple means unconditional): built on first use and kept,
        as a profile never changes."""
        per_stream = self._per_stream
        if per_stream is None:
            per_stream = self._per_stream = {
                stream: tuple(flt for flt in self._filters if flt.stream == stream)
                for stream in self._projections
            }
        return per_stream

    def filters_for(self, stream: str) -> List[Filter]:
        """``stream``'s filters in ``F`` order, as a fresh list (empty for
        an unconditional stream or one outside ``S``)."""
        return list(self._filters_by_stream().get(stream, ()))

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
        Each filter is tested by :meth:`Filter.covers`; this never goes
        through :meth:`matcher`, so the reference scan
        (:mod:`repro.sim.reference`) shares no evaluator with the routers.
        """
        per_stream = self._per_stream
        if per_stream is None:
            per_stream = self._filters_by_stream()
        stream_filters = per_stream.get(datagram.stream)
        if stream_filters is None:
            return False
        if not stream_filters:
            return True
        for flt in stream_filters:
            if flt.covers(datagram):
                return True
        return False

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

    def restricted_to(self, stream: str) -> "Profile":
        """The sub-profile concerning a single stream: what the network
        lays at the hops toward a publisher of ``stream`` for a profile
        that requests several streams (one that requests only ``stream``
        is laid itself, being equal to it).  Built on first use and
        kept, as a profile never changes, so every hop and propagation
        of the stream shares one copy and its one :meth:`matcher`."""
        restricted = self._restricted
        if restricted is None:
            restricted = self._restricted = {}
        copy = restricted.get(stream)
        if copy is None:
            copy = restricted[stream] = Profile(
                {stream: self.projection_for(stream)},
                self.filters_for(stream),
                subscriber=self.subscriber,
            )
        return copy

    def size_estimate(self) -> int:
        """Rough wire size of the profile itself (subscription traffic)."""
        size = 0
        for stream, attrs in self._projections.items():
            size += len(stream) + sum(len(a) for a in attrs)
        for flt in self._filters:
            size += len(flt.stream) + 8 * len(flt.condition.atoms())
        return size

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
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
