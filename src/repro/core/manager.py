"""The per-processor query management module (sections 2 and 4).

The :class:`QueryManager` is the glue of the query layer on one
processor: it accepts user queries, runs the grouping optimizer and
keeps the local SPE in sync ("a new query or a modification of an
existing query is sent to the SPE").  It is the first of the three
owners of the group reconciliation (DESIGN.md section 6): whenever a
group's representative changes it re-issues it to the SPE, and on
request it hands back every member's *result profile* (how a user pulls
their query's results out of the representative's result stream),
composing only the ones the change touched.

The manager is deliberately network-agnostic: it hands back the changed
group and lets its callers install what follows from it into the CBN
(:mod:`repro.system.node` the source subscription and the result
advertisement, :mod:`repro.system.cosmos` the result subscriptions), so
it can be unit-tested without any network.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.cbn.filters import Profile
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog, StreamSchema
from repro.core.grouping import GroupingDecision, GroupingOptimizer, QueryGroup
from repro.core.profiles import PreparedRepresentative, result_profile
from repro.core.cost import CostModel
from repro.spe.engine import StreamProcessingEngine


class QueryManager:
    """Query management for a single processor.

    Parameters
    ----------
    catalog:
        Source stream schemas known to this processor.
    spe:
        The local stream processing engine (behind its wrappers).
    grouping:
        Optional pre-configured grouping optimizer; a default one is
        created otherwise.  Pass an optimizer with
        ``merge_threshold=float('inf')`` to disable merging entirely
        (the "non-share" baseline of Figure 3); it then plans no
        candidate merge.
    """

    def __init__(
        self,
        catalog: Catalog,
        spe: Optional[StreamProcessingEngine] = None,
        grouping: Optional[GroupingOptimizer] = None,
        cost_model: Optional[CostModel] = None,
        namespace: str = "",
    ) -> None:
        #: Prefix for result-stream names.  Every COSMOS stream name must
        #: be globally unique, and group ids are only unique *per
        #: manager* — networked processors pass their node id here.
        self.namespace = namespace
        self.catalog = catalog
        self.spe = spe if spe is not None else StreamProcessingEngine(catalog)
        self.grouping = grouping or GroupingOptimizer(
            catalog, cost_model or CostModel()
        )
        self._counter = itertools.count()
        #: group id -> name under which its representative runs on the SPE
        self._registered: Dict[str, str] = {}
        #: group id -> the representative and its streams' schemas the
        #: group's result profiles were last composed against, and member
        #: name -> (member, profile) as composed then
        self._composed: Dict[
            str,
            Tuple[
                ContinuousQuery,
                Tuple[StreamSchema, ...],
                Dict[str, Tuple[ContinuousQuery, Profile]],
            ],
        ] = {}

    # -- submission -----------------------------------------------------------

    def submit(
        self, query: ContinuousQuery, name: Optional[str] = None
    ) -> GroupingDecision:
        """Accept a user query: group it and re-issue the (new or
        widened) representative of its group to the SPE.

        Returns the grouping optimizer's decision.  Nothing derived from
        its group rides along: whoever reconciles the network with the
        group reads the result stream, the source profile and the
        members' result profiles off the group as it stands then.
        """
        if query.name is None:
            query = ContinuousQuery(
                query.select_items,
                query.streams,
                query.predicate,
                query.group_by,
                name or f"q{next(self._counter)}",
            )
        query.validate(self.catalog)
        decision = self.grouping.add(query)
        self._sync_spe(decision.group)
        return decision

    def result_stream_of(self, group: QueryGroup) -> str:
        """The stream the group's representative publishes its results on."""
        if self.namespace:
            return f"{self.namespace}:{group.group_id}:results"
        return f"{group.group_id}:results"

    def result_profiles_of(self, group: QueryGroup) -> Dict[str, Profile]:
        """Current re-tightening profiles of every member of ``group``.

        The one place member profiles are composed, and only what
        changed is: a member's profile depends on the member, the
        representative and the schemas of its streams alone, so the
        profiles last composed for the group are handed back again
        while the representative equals the one they were composed
        against and the schemas of its streams are unchanged.  When
        either moved, every member is recomposed against one
        :class:`PreparedRepresentative`; otherwise only a member new to
        the group is.  (Not keyed on ``Catalog.version``: every
        result-stream advertisement bumps it.)
        """
        rep = group.representative
        catalog = self.catalog
        schemas = tuple(catalog.get(stream) for stream in rep.stream_names)
        previous = self._composed.get(group.group_id)
        known: Dict[str, Tuple[ContinuousQuery, Profile]] = {}
        if previous is not None and previous[0] == rep and previous[1] == schemas:
            known = previous[2]
        result_stream = self.result_stream_of(group)
        prepared: Optional[PreparedRepresentative] = None
        composed: Dict[str, Tuple[ContinuousQuery, Profile]] = {}
        for member in group.members:
            entry = known.get(member.name)
            if entry is None or entry[0] is not member:
                if prepared is None:
                    prepared = PreparedRepresentative(rep, catalog)
                profile = result_profile(
                    member, prepared, catalog, result_stream, subscriber=member.name
                )
                entry = (member, profile)
            composed[member.name] = entry
        self._composed[group.group_id] = (rep, schemas, composed)
        return {name: profile for name, (__, profile) in composed.items()}

    def withdraw(self, query_name: str) -> Optional[QueryGroup]:
        """Remove a query; returns the group with its narrowed
        representative re-issued to the SPE, or ``None`` when the group
        vanished with its last member."""
        group = self.grouping.group_of(query_name)
        if group is None:
            raise KeyError(f"unknown query {query_name!r}")
        self.grouping.remove(query_name)  # recomposes ``group`` in place
        if not group.members:
            self._deregister(group.group_id)
            self._composed.pop(group.group_id, None)
            return None
        self._sync_spe(group)
        return group

    def release_group(self, group_id: str) -> List[ContinuousQuery]:
        """Tear a whole group off this manager for live migration.

        The representative is deregistered from the SPE and the group
        leaves the grouping optimizer intact; the member queries are
        returned in group order so the receiving manager can re-accept
        them and reproduce the merge.
        """
        members = self.grouping.extract_group(group_id)
        self._deregister(group_id)
        self._composed.pop(group_id, None)
        return members

    # -- introspection -------------------------------------------------------------

    @property
    def groups(self) -> List[QueryGroup]:
        return self.grouping.groups

    def benefit_ratio(self) -> float:
        return self.grouping.benefit_ratio()

    def engine_name_of(self, group_id: str) -> Optional[str]:
        """The SPE-local name the group's representative runs under."""
        return self._registered.get(group_id)

    def _deregister(self, group_id: str) -> None:
        registered = self._registered.pop(group_id, None)
        if registered is not None:
            self.spe.deregister(registered)

    def _sync_spe(self, group: QueryGroup) -> None:
        """(Re-)register the group's representative on the SPE.

        The SPE sees a *modification*: the old representative is
        deregistered and the new one registered under a versioned name,
        keeping the stable result stream name.
        """
        self._deregister(group.group_id)
        engine_name = f"{group.group_id}:v{len(group.members)}"
        self.spe.register(
            group.representative.canonical(self.catalog),
            name=engine_name,
            result_stream=self.result_stream_of(group),
        )
        self._registered[group.group_id] = engine_name
