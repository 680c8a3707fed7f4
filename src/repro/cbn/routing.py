"""Per-node CBN routing state.

Every broker keeps, per overlay interface (tree neighbour), the set of
data-interest profiles reachable through that interface.  A datagram
arriving at the broker is forwarded on an interface when any profile
behind it covers the datagram, after **early projection**: the
forwarded copy keeps only the union of the attributes requested by the
covering downstream profiles (section 3.1).  Every subscription keeps
its own entry behind every interface its propagation crossed.

Index and compiled matchers
---------------------------
Matching is the hot operation of the whole system: every datagram hop
evaluates the profiles behind every interface.  The table therefore
maintains a **per-(interface, stream) index**: each entry is indexed
under every stream its profile requests, so :meth:`RoutingTable.decide`
and :meth:`RoutingTable.local_deliveries` only touch entries whose
stream set includes the datagram's stream.  On top of the index sit
lazily **compiled matchers** — per entry the per-stream filter
conditions, projection set and carried-attribute set are precomputed —
with two short-circuits: a covering entry that wants all attributes
ends evaluation immediately (projection can no longer narrow), and once
the accumulated attribute union reaches the per-(interface, stream)
upper bound the remaining entries cannot change the decision either.

Every mutation bumps :attr:`RoutingTable.epoch`; compiled state is
rebuilt lazily when versions move, and the owning network layer uses
the same signal (via ``on_change``, which reports the *streams* a
mutation touched) to invalidate its own per-stream caches.  The
scan-everything reference the property tests and the chaos twin compare
against lives in :mod:`repro.sim.reference`.

Per-stream invalidation
-----------------------
Compiled plans are validated against a *per-stream version*: every
mutation bumps the counter of exactly the streams it touched, so a
subscription churn event invalidates the plans of the streams it
concerns and publishing other streams keeps hitting warm caches —
per-publish recompilation work is O(touched streams), not O(all
streams).  A mutation that changes nothing bumps nothing: re-installing
the stored ``(interface, id, profile)`` or discarding an absent entry
leaves epoch, versions and warm plans as they were.  A plan goes with
its bucket: when the last entry of an ``(interface, stream)`` is
removed the compiled plan is dropped too, so a table's plans are bounded
by its live entries, not by the stream names it has ever seen
(:meth:`RoutingTable.decide` for an interface with no entry of the
stream answers without compiling anything).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.cbn.datagram import Datagram
from repro.cbn.filters import ALL_ATTRIBUTES, Profile
from repro.overlay.topology import NodeId


@dataclass
class ForwardDecision:
    """Outcome of evaluating a datagram against one interface.

    ``forward`` says whether any downstream profile covers the datagram;
    ``attributes`` is the union of attribute names the downstream
    coverers need (``None`` means "all attributes", i.e. no projection).
    """

    forward: bool
    attributes: Optional[FrozenSet[str]] = None


class _CompiledEntry:
    """One routing entry pre-resolved for a single stream.

    Everything :meth:`RoutingTable.decide` needs per evaluation is
    precomputed here so the hot loop performs no profile introspection:
    the filter conditions for the stream (empty means unconditional),
    the projection set (for local delivery), the carried-attribute set
    (projection plus filter-referenced attributes, for forwarding) and
    the wants-all flag.
    """

    __slots__ = (
        "entry_id",
        "profile",
        "conditions",
        "projection",
        "carried",
        "wants_all",
    )

    def __init__(self, entry_id: str, profile: Profile, stream: str) -> None:
        self.entry_id = entry_id
        self.profile = profile
        self.conditions = tuple(
            flt.condition for flt in profile.filters_for(stream)
        )
        self.projection = profile.projection_for(stream)
        self.carried = profile.carried_attributes(stream)
        self.wants_all = self.projection == ALL_ATTRIBUTES

    def covers(self, payload) -> bool:
        conditions = self.conditions
        if not conditions:
            return True
        for condition in conditions:
            if condition.evaluate(payload):
                return True
        return False


#: Compiled matching state for one (interface, stream):
#: (entries, any_wants_all, attribute-union upper bound over non-wants-all
#: entries).
_Plan = Tuple[List[_CompiledEntry], bool, FrozenSet[str]]

_EMPTY_PLAN: _Plan = ([], False, frozenset())


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
        #: mutation touched; the network layer hooks its per-stream
        #: cache invalidation here.
        self.on_change = on_change
        #: Bumped on every mutation; monotone mutation counter.
        self.epoch = 0
        self._entries: Dict[object, Dict[str, Profile]] = {}
        #: interface -> stream -> entry id -> profile (install order
        #: preserved per bucket, mirroring ``_entries``).
        self._by_stream: Dict[object, Dict[str, Dict[str, Profile]]] = {}
        #: (interface, stream) -> (compiled plan, stream version it was
        #: built at).  Entries revalidate lazily against their stream's
        #: version, so a mutation touching stream S leaves the cached
        #: plans of every other stream warm.
        self._plans: Dict[Tuple[object, str], Tuple[_Plan, int]] = {}
        #: stream -> count of mutations that touched it.
        self._stream_versions: Dict[str, int] = {}

    # -- maintenance -----------------------------------------------------------

    def _touch(self, streams: Iterable[str]) -> None:
        self.epoch += 1
        touched = frozenset(streams)
        versions = self._stream_versions
        for stream in touched:
            versions[stream] = versions.get(stream, 0) + 1
        if self.on_change is not None:
            self.on_change(touched)

    def _index_entry(self, interface: object, entry_id: str, profile: Profile) -> None:
        streams = self._by_stream.setdefault(interface, {})
        for stream in profile.streams:
            streams.setdefault(stream, {})[entry_id] = profile

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
                self._plans.pop((interface, stream), None)

    def install(self, interface: object, subscription_id: str, profile: Profile) -> None:
        """Install a profile behind an interface, replacing the entry's
        previous profile."""
        entries = self._entries.setdefault(interface, {})
        previous = entries.get(subscription_id)
        if previous is not None and previous == profile:
            # Idempotent re-propagation (advertise, retree on a shared
            # path prefix): nothing moved, so neither the bucket order
            # nor any version does.
            return
        touched: Set[str] = set(profile.streams)
        if previous is not None:
            touched.update(previous.streams)
            self._unindex_entry(interface, subscription_id, previous)
        entries[subscription_id] = profile
        self._index_entry(interface, subscription_id, profile)
        self._touch(touched)

    def discard(self, interface: object, entry_id: str) -> bool:
        """Delete exactly the entry ``entry_id`` behind ``interface``.

        Returns ``False`` (and bumps nothing) when it is not stored.
        """
        entries = self._entries.get(interface)
        profile = entries.pop(entry_id, None) if entries else None
        if profile is None:
            return False
        self._unindex_entry(interface, entry_id, profile)
        self._touch(profile.streams)
        return True

    def remove_interface(self, interface: object) -> None:
        """Forget ``interface``: its entries, index and compiled plans."""
        removed = self._entries.pop(interface, None)
        self._by_stream.pop(interface, None)
        for key in [key for key in self._plans if key[0] == interface]:
            del self._plans[key]
        if removed:
            touched: Set[str] = set()
            for profile in removed.values():
                touched.update(profile.streams)
            self._touch(touched)

    def profiles(self, interface: object) -> List[Profile]:
        return list(self._entries.get(interface, {}).values())

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

    def _plan(self, interface: object, stream: str) -> _Plan:
        """The compiled matchers for one (interface, stream), cached
        until the next mutation touching the stream."""
        key = (interface, stream)
        version = self._stream_versions.get(stream, 0)
        cached = self._plans.get(key)
        if cached is not None and cached[1] == version:
            return cached[0]
        bucket = self._by_stream.get(interface, {}).get(stream)
        if not bucket:
            # Not cached: a plan lives and dies with its bucket.
            return _EMPTY_PLAN
        compiled = [
            _CompiledEntry(entry_id, profile, stream)
            for entry_id, profile in bucket.items()
        ]
        any_wants_all = any(e.wants_all for e in compiled)
        bound = frozenset().union(
            *(e.carried for e in compiled if not e.wants_all)
        )
        plan = (compiled, any_wants_all, bound)
        self._plans[key] = (plan, version)
        return plan

    # -- forwarding ------------------------------------------------------------

    def decide(self, interface: object, datagram: Datagram) -> ForwardDecision:
        """Should ``datagram`` be forwarded on ``interface``, and with
        which attributes retained?"""
        compiled, any_wants_all, bound = self._plan(interface, datagram.stream)
        if not compiled:
            return ForwardDecision(False)
        payload = datagram.payload
        needed: Set[str] = set()
        forward = False
        bound_size = len(bound)
        for entry in compiled:
            if not entry.covers(payload):
                continue
            forward = True
            if entry.wants_all:
                # Projection can no longer narrow: no later entry can
                # shrink the attribute set back below "everything".
                return ForwardDecision(True, None)
            needed |= entry.carried
            if not any_wants_all and len(needed) == bound_size:
                # The union upper bound is reached; the remaining
                # entries can only contribute attributes already kept.
                break
        if not forward:
            return ForwardDecision(False)
        return ForwardDecision(True, frozenset(needed))

    def local_deliveries(
        self, datagram: Datagram
    ) -> List[Tuple[str, Datagram]]:
        """(subscription_id, projected datagram) for local matches."""
        compiled, __, __ = self._plan(self.LOCAL, datagram.stream)
        if not compiled:
            return []
        payload = datagram.payload
        out: List[Tuple[str, Datagram]] = []
        for entry in compiled:
            if not entry.covers(payload):
                continue
            if entry.wants_all:
                out.append((entry.entry_id, datagram))
            else:
                out.append((entry.entry_id, datagram.project(entry.projection)))
        return out
