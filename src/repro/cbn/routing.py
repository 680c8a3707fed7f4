"""Per-node CBN routing state.

Every broker keeps, per overlay interface (tree neighbour), the set of
data-interest profiles reachable through that interface.  A datagram
arriving at the broker is forwarded on an interface when any profile
behind it covers the datagram, after **early projection**: the
forwarded copy keeps only the union of the attributes requested by the
covering downstream profiles (section 3.1).  Every subscription keeps
its own entry behind every interface its propagation crossed.

The index, the per-profile matcher and the outcome bits
-------------------------------------------------------
Each entry is indexed under every stream its profile requests, per
interface, so :meth:`RoutingTable.decide` and
:meth:`RoutingTable.local_deliveries` touch only the entries of the
datagram's stream, in install order, and a bucket goes with its last
entry.  A bucket holds each entry's
:meth:`~repro.cbn.filters.Profile.matcher` for the stream (conditions,
projection and carried attributes), resolved once when the entry is
installed, so a scan calls no profile (a profile builds one matcher
per stream, and the network lays one profile object per subscription and
stream at every hop — the subscription's own when it requests one
stream, so its LOCAL entry shares the matcher too).  Coverage is not
evaluated here: the caller hands in the *live* mask of the copy — the
bits, in the stream's :class:`~repro.cql.predicates.OutcomeIndex`
order, of the conditions that hold on it — and :class:`ConditionBits`,
which names the bits each matcher's conditions own; an entry covers the
copy iff the two share a bit.  A covering entry that wants all
attributes ends the scan, as projection can no longer narrow.  A
profile never changes, so nothing here is versioned:
a mutation reports the streams it touched through ``on_change``, which
is what the owning network versions its per-stream facts and routes by,
and a mutation that changes nothing (re-installing the stored profile,
discarding an absent entry) reports nothing.  The scan-everything
reference the property tests and the chaos runs compare against lives
in :mod:`repro.sim.reference`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from repro.cbn.datagram import Datagram
from repro.cbn.filters import Matcher, Profile
from repro.cql.predicates import Conjunction
from repro.overlay.topology import NodeId


class ForwardDecision(NamedTuple):
    """Outcome of evaluating a datagram against one interface.

    ``forward`` says whether any downstream profile covers the datagram;
    ``attributes`` is the union of attribute names the downstream
    coverers need (``None`` means "all attributes", i.e. no projection).
    Both routers build one per decision, so it is a tuple: no
    per-instance dict.
    """

    forward: bool
    attributes: Optional[FrozenSet[str]] = None


class ConditionBits(Dict[Matcher, int]):
    """The outcome bits each entry's conditions own, for one stream.

    Bit *i* stands for ``conjunctions[i]``, the order of the stream's
    :class:`~repro.cql.predicates.OutcomeIndex`; an unconditional entry
    owns :attr:`always`, the bit above them, which every copy keeps.
    As a mapping, a matcher -> the OR of its conditions' bits, filled on
    first use (a matcher is keyed by identity and never changes).

    A copy's *live* mask is the set of bits whose conditions hold on it.
    On the original datagram that is its outcome mask plus
    :attr:`always`.  ``Conjunction.evaluate`` fails a condition whose
    attribute is missing, so a projected copy keeps exactly the live
    bits whose conditions reference only attributes that survived
    (:meth:`surviving`).  An entry covers a copy iff its bits meet the
    copy's live mask.
    """

    __slots__ = ("always", "_bits", "_terms")

    def __init__(self, conjunctions: Iterable[Conjunction]) -> None:
        super().__init__()
        self._bits: Dict[Conjunction, int] = {}
        terms: Dict[str, int] = {}
        for index, conjunction in enumerate(conjunctions):
            bit = self._bits[conjunction] = 1 << index
            for term in conjunction.referenced_terms():
                terms[term] = terms.get(term, 0) | bit
        self.always = 1 << len(self._bits)
        #: (attribute, the bits of the conditions referencing it)
        self._terms = tuple(terms.items())

    def __missing__(self, matcher: Matcher) -> int:
        bits = 0
        for condition in matcher.conditions:
            bits |= self._bits[condition]
        bits = self[matcher] = bits or self.always
        return bits

    def surviving(self, live: int, payload: Dict[str, object]) -> int:
        """``live`` less the bits of every condition that references an
        attribute ``payload`` lacks."""
        for term, bits in self._terms:
            if term not in payload:
                live &= ~bits
        return live


class RoutingTable:
    """Routing state of one broker.

    Entries are keyed ``(interface, subscription_id)`` where interface
    is either a neighbour node id or :data:`LOCAL` for subscriptions
    attached directly to this broker.
    """

    #: Interface key for locally attached subscribers.
    LOCAL: object = "local"

    def __init__(
        self,
        node: NodeId,
        on_change: Optional[Callable[[FrozenSet[str]], None]] = None,
    ) -> None:
        self.node = node
        #: Invoked after every state mutation with the streams the
        #: mutation touched; the network layer versions its per-stream
        #: facts on these reports.
        self.on_change = on_change
        self._entries: Dict[object, Dict[str, Profile]] = {}
        #: interface -> stream -> entry id -> the entry profile's
        #: ``matcher(stream)``, resolved once at install (install order
        #: preserved per bucket, mirroring ``_entries``).
        self._by_stream: Dict[object, Dict[str, Dict[str, Matcher]]] = {}

    # -- maintenance -----------------------------------------------------------

    def _touch(self, streams: Iterable[str]) -> None:
        if self.on_change is not None:
            self.on_change(frozenset(streams))

    def _index_entry(self, interface: object, entry_id: str, profile: Profile) -> None:
        streams = self._by_stream.setdefault(interface, {})
        for stream in profile.streams:
            streams.setdefault(stream, {})[entry_id] = profile.matcher(stream)

    def _unindex_entry(self, interface: object, entry_id: str, profile: Profile) -> None:
        streams = self._by_stream.get(interface)
        if streams is None:
            return
        for stream in profile.streams:
            bucket = streams.get(stream)
            if bucket is None:
                continue
            bucket.pop(entry_id, None)
            if not bucket:
                del streams[stream]

    def install(self, interface: object, subscription_id: str, profile: Profile) -> None:
        """Install a profile behind an interface, replacing the entry's
        previous profile."""
        entries = self._entries.setdefault(interface, {})
        previous = entries.get(subscription_id)
        if previous is not None and previous == profile:
            # Idempotent re-propagation (advertise, retree on a shared
            # path prefix): nothing moved, so neither the bucket order
            # nor any stream is reported.
            return
        touched: FrozenSet[str] = profile.streams
        if previous is not None:
            # A replaced entry is installed anew, last in its table as in
            # its buckets, so every scan meets entries in one order.
            touched |= previous.streams
            self._unindex_entry(interface, subscription_id, previous)
            del entries[subscription_id]
        entries[subscription_id] = profile
        self._index_entry(interface, subscription_id, profile)
        self._touch(touched)

    def discard(self, interface: object, entry_id: str) -> bool:
        """Delete exactly the entry ``entry_id`` behind ``interface``.

        Returns ``False`` (and reports nothing) when it is not stored.
        """
        entries = self._entries.get(interface)
        profile = entries.pop(entry_id, None) if entries else None
        if profile is None:
            return False
        self._unindex_entry(interface, entry_id, profile)
        self._touch(profile.streams)
        return True

    def remove_interface(self, interface: object) -> None:
        """Forget ``interface``: its entries and their index."""
        removed = self._entries.pop(interface, None)
        self._by_stream.pop(interface, None)
        if removed:
            touched: Set[str] = set()
            for profile in removed.values():
                touched.update(profile.streams)
            self._touch(touched)

    def entries(self, interface: object) -> Dict[str, Profile]:
        """Entry-id -> profile behind one interface, in install order."""
        return dict(self._entries.get(interface, {}))

    def local_profiles(self) -> Dict[str, Profile]:
        return dict(self._entries.get(self.LOCAL, {}))

    @property
    def interfaces(self) -> List[object]:
        return list(self._entries)

    @property
    def entry_count(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    # -- the index -------------------------------------------------------------

    def stream_interfaces(self, stream: str) -> List[object]:
        """Interfaces with at least one entry requesting ``stream``."""
        return [
            interface
            for interface, streams in self._by_stream.items()
            if streams.get(stream)
        ]

    # -- forwarding ------------------------------------------------------------

    def decide(
        self, interface: object, stream: str, live: int, bits: ConditionBits
    ) -> ForwardDecision:
        """Should a copy of ``stream`` be forwarded on ``interface``, and
        with which attributes retained?  ``live`` holds the bits of the
        conditions true on the copy (:class:`ConditionBits`)."""
        bucket = self._by_stream.get(interface, {}).get(stream)
        if not bucket:
            return ForwardDecision(False)
        needed: Set[str] = set()
        forward = False
        for matcher in bucket.values():
            if not bits[matcher] & live:
                continue
            if matcher.wants_all:
                # Projection can no longer narrow: no later entry can
                # shrink the attribute set back below "everything".
                return ForwardDecision(True, None)
            forward = True
            needed |= matcher.carried
        if not forward:
            return ForwardDecision(False)
        return ForwardDecision(True, frozenset(needed))

    def local_deliveries(
        self, datagram: Datagram, live: int, bits: ConditionBits
    ) -> List[Tuple[str, Datagram]]:
        """(subscription_id, projected datagram) for the local entries
        covering ``datagram``; ``live`` holds the bits of the conditions
        true on it."""
        stream = datagram.stream
        bucket = self._by_stream.get(self.LOCAL, {}).get(stream)
        if not bucket:
            return []
        out: List[Tuple[str, Datagram]] = []
        for entry_id, matcher in bucket.items():
            if not bits[matcher] & live:
                continue
            if matcher.wants_all:
                out.append((entry_id, datagram))
            else:
                out.append((entry_id, datagram.project(matcher.projection)))
        return out
