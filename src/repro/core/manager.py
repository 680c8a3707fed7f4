"""The per-processor query management module (sections 2 and 4).

The :class:`QueryManager` is the query layer's bookkeeping on one
processor: it accepts user queries into the grouping optimizer, names
each group's result stream, and on request hands back every member's
*result profile* (how a user pulls their query's results out of the
representative's result stream), composing only the ones the change
touched.

Submission, withdrawal and :meth:`QueryManager.release_group` change
the grouping and nothing else.  What follows from a changed group is
installed by its two owners (DESIGN.md section 6):
:meth:`repro.system.node.Processor.commit` the SPE registration, the
source subscription and the result advertisement, and
:meth:`repro.system.cosmos.CosmosSystem.reconcile_group` the handles
and result subscriptions.  The manager touches no engine and no
network, so it can be unit-tested alone.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.cbn.filters import Profile
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog, StreamSchema
from repro.core.grouping import GroupingDecision, GroupingOptimizer, QueryGroup
from repro.core.profiles import PreparedRepresentative, result_profile
from repro.core.cost import CostModel


class QueryManager:
    """Query management for a single processor.

    Parameters
    ----------
    catalog:
        Source stream schemas known to this processor.
    grouping:
        Optional pre-configured grouping optimizer; a default one is
        created otherwise.  Pass an optimizer with ``merging=False``
        to disable merging entirely (the "non-share" baseline of
        Figure 3); it then plans no candidate merge.
    """

    def __init__(
        self,
        catalog: Catalog,
        grouping: Optional[GroupingOptimizer] = None,
        cost_model: Optional[CostModel] = None,
        namespace: str = "",
    ) -> None:
        #: Prefix for result-stream names.  Every COSMOS stream name must
        #: be globally unique, and group ids are only unique *per
        #: manager* — networked processors pass their node id here.
        self.namespace = namespace
        self.catalog = catalog
        self.grouping = grouping or GroupingOptimizer(
            catalog, cost_model or CostModel()
        )
        self._counter = itertools.count()
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
        """Accept a user query into a (new or widened) group.

        Returns the grouping optimizer's decision.  Nothing derived from
        its group rides along: whoever installs the group reads the
        representative, the result stream and the members' result
        profiles off the group as it stands then.  The query arrives
        admitted: :meth:`~repro.system.cosmos.CosmosSystem.submit`
        validates it once, before placement.
        """
        if query.name is None:
            name = name or f"q{next(self._counter)}"
            query = replace(query, name=name, source=None)
        return self.grouping.add(query)

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
        """Remove a query; returns its group with the narrowed
        representative, or ``None`` when the group vanished with its
        last member."""
        group = self.grouping.group_of(query_name)
        if group is None:
            raise KeyError(f"unknown query {query_name!r}")
        self.grouping.remove(query_name)  # recomposes ``group`` in place
        if not group.members:
            self._composed.pop(group.group_id, None)
            return None
        return group

    def release_group(self, group_id: str) -> List[ContinuousQuery]:
        """Tear a whole group off this manager (live migration, a
        failed processor).

        The group leaves the grouping optimizer intact; the member
        queries are returned in group order so the receiving manager
        can re-accept them and reproduce the merge.
        """
        members = self.grouping.extract_group(group_id)
        self._composed.pop(group_id, None)
        return members

    # -- introspection -------------------------------------------------------------

    @property
    def groups(self) -> List[QueryGroup]:
        return self.grouping.groups
