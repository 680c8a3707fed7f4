"""Delivery oracles: ground truth computed outside the CBN.

The chaos harness restricts its workload to single-stream
select-project queries, which makes expected deliveries *exactly*
computable from the query text and the effective input feed alone —
no window state, no join ordering, no reliance on any code path the
chaos run is trying to falsify.  :func:`expected_results` canonicalises
the query (the system under test does the same at submission), binds
each surviving input tuple's payload under qualified names, evaluates
the WHERE conjunction, and projects — one expected result per matching
tuple, in injection order, carrying the tuple's timestamp.

The invariant checkers each return a list of violation strings (empty
means the invariant holds):

* :func:`check_ground_truth` — every query's delivered result sequence
  equals the oracle's expectation, exactly and in order;
* :func:`check_no_orphans` — after all crash/repair cycles, the
  system's query handles, user subscriptions and source subscriptions
  are mutually consistent and live on surviving nodes;
* :func:`check_chronology` — each query's result timestamps are
  non-decreasing (re-homing must preserve result chronology);
* :func:`compare_systems` — every publication the fast path routed
  made exactly the deliveries the naive scan made over the same tables,
  and the per-link traffic accounting agrees.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cbn.datagram import Datagram
from repro.cql.ast import ContinuousQuery
from repro.cql.schema import Catalog
from repro.sim.schedule import ChaosEvent, DropEvent, InjectEvent
from repro.system.cosmos import CosmosSystem, QueryStatus

#: One expected delivery: (payload under qualified names, timestamp).
ExpectedResult = Tuple[Dict[str, object], float]


def pristine_feed_from_events(
    events: Sequence[ChaosEvent],
) -> List[Datagram]:
    """The pristine (pre-perturbation) feed a recovery run must deliver.

    Reconstructed from the schedule itself so it stays exact for any
    sub-schedule the shrinker produces: every sequenced send — a
    non-duplicate injection or a drop (the wire ate it, but the
    reliable uplink must heal it) — contributes one datagram at its
    original send time.  Per stream the order is sequence order, which
    is send order; globally the feed sorts by send time (ties broken
    by stream/seq), matching the per-query delivery order of the
    sequenced uplink.
    """
    sends: Dict[Tuple[str, int], Datagram] = {}
    for event in events:
        if isinstance(event, InjectEvent) and not event.duplicate:
            if event.seq is None:
                continue
            sent = event.sent if event.sent is not None else event.time
            sends[(event.stream, event.seq)] = Datagram(
                event.stream, dict(event.payload), sent, event.seq
            )
        elif isinstance(event, DropEvent) and event.seq is not None:
            sent = event.sent if event.sent is not None else event.time
            sends[(event.stream, event.seq)] = Datagram(
                event.stream, dict(event.payload or ()), sent, event.seq
            )
    return [
        sends[key]
        for key in sorted(
            sends, key=lambda k: (sends[k].timestamp, k[0], k[1])
        )
    ]


def expected_results(
    query: ContinuousQuery,
    catalog: Catalog,
    feed: Sequence[Datagram],
) -> List[ExpectedResult]:
    """Ground-truth deliveries of a single-stream select-project query.

    ``feed`` is the *effective* input feed — the tuples that actually
    entered the system, post link perturbation, in injection order
    (duplicates included: a stateless select-project query must deliver
    a duplicate input twice).
    """
    canonical = query.canonical(catalog)
    if len(canonical.streams) != 1:
        raise ValueError(
            f"the chaos oracle only supports single-stream queries, "
            f"got {len(canonical.streams)} streams"
        )
    stream = canonical.streams[0].stream
    projected = [attr.key for attr in canonical.projected_attributes(catalog)]
    expected: List[ExpectedResult] = []
    for datagram in feed:
        if datagram.stream != stream:
            continue
        binding = {
            f"{stream}.{key}": value for key, value in datagram.payload.items()
        }
        if not canonical.predicate.evaluate(binding):
            continue
        expected.append(
            ({key: binding[key] for key in projected}, datagram.timestamp)
        )
    return expected


def _delivered(system: CosmosSystem, query_id: str) -> List[ExpectedResult]:
    """What the system actually delivered to ``query_id``."""
    handle = system.query(query_id)
    return [(dict(r.payload), r.timestamp) for r in handle.results]


def check_ground_truth(
    system: CosmosSystem,
    feed: Sequence[Datagram],
    query_ids: Sequence[str],
) -> List[str]:
    """Every query delivered exactly the oracle's expectation, in order."""
    violations: List[str] = []
    for query_id in query_ids:
        handle = system.query(query_id)
        if handle.status is not QueryStatus.ACTIVE:
            continue  # quarantined: delivery is suspended by design
        want = expected_results(handle.query, system.catalog, feed)
        got = _delivered(system, query_id)
        if got != want:
            missing = len(want) - len(got)
            detail = (
                f"{missing} results missing" if missing > 0
                else f"{-missing} spurious results" if missing < 0
                else "same count, wrong content/order"
            )
            violations.append(
                f"ground-truth: query {query_id!r} delivered {len(got)} "
                f"results, oracle expects {len(want)} ({detail})"
            )
    return violations


def check_no_orphans(system: CosmosSystem) -> List[str]:
    """Queries, subscriptions and roles are consistent after repairs.

    Catches the classic repair bugs: a re-homed query whose user
    subscription was dropped (it silently stops receiving), a withdrawn
    query whose subscription leaked (phantom traffic), a quarantined
    query that was re-subscribed behind its owner's back, a live
    subscription that is not the one its query records (a second
    subscription: duplicate results), a source subscription pointing at
    a node that is no longer a processor, and any role pinned to a node
    the repaired tree no longer contains.
    """
    violations: List[str] = []
    live = system.network.subscriptions()
    for handle in sorted(system.queries, key=lambda h: h.query_id):
        query_id = handle.query_id
        sub_id = system.result_subscription_of(query_id)
        if handle.status is not QueryStatus.ACTIVE:
            # A quarantined (DEGRADED) query holds no subscriptions by
            # design; it is not an orphan — unless it holds one.
            if sub_id is not None:
                violations.append(
                    f"orphan: {handle.status.name} query {query_id!r} "
                    f"holds subscription {sub_id}"
                )
            continue
        if sub_id is None:
            violations.append(
                f"orphan: query {query_id!r} has no user subscription"
            )
        elif sub_id not in live:
            violations.append(
                f"orphan: query {query_id!r} subscription {sub_id} "
                f"not installed in the CBN"
            )
        else:
            node, __ = live[sub_id]
            if node != handle.user_node:
                violations.append(
                    f"orphan: query {query_id!r} subscription lives at "
                    f"node {node}, user is at {handle.user_node}"
                )
        if handle.user_node not in system.tree:
            violations.append(
                f"orphan: query {query_id!r} user node "
                f"{handle.user_node} left the tree"
            )
        if handle.processor_node not in system.processors:
            violations.append(
                f"orphan: query {query_id!r} homed on "
                f"{handle.processor_node}, which is not a processor"
            )
    for sub_id in sorted(live):
        node, __ = live[sub_id]
        if sub_id.startswith("user:"):
            # The system's own registry says whose subscription this is
            # (the id is never parsed back: a query name may hold ':').
            owner = system.subscriber_of(sub_id)
            if owner is None or system.find_query(owner.query_id) is not owner:
                violations.append(
                    f"orphan: subscription {sub_id} outlived its query"
                )
            elif system.result_subscription_of(owner.query_id) != sub_id:
                violations.append(
                    f"orphan: subscription {sub_id} is not the one recorded "
                    f"for query {owner.query_id!r}"
                )
        elif sub_id.startswith("src:"):
            if node not in system.processors:
                violations.append(
                    f"orphan: source subscription {sub_id} feeds node "
                    f"{node}, which is not a processor"
                )
        if node not in system.tree:
            violations.append(
                f"orphan: subscription {sub_id} at node {node}, "
                f"which left the tree"
            )
    return violations


def check_chronology(system: CosmosSystem) -> List[str]:
    """Result timestamps are non-decreasing per query (survives re-homing)."""
    violations: List[str] = []
    for handle in sorted(system.queries, key=lambda h: h.query_id):
        query_id, results = handle.query_id, handle.results
        for prev, cur in zip(results, results[1:]):
            if cur.timestamp < prev.timestamp:
                violations.append(
                    f"chronology: query {query_id!r} result at "
                    f"t={cur.timestamp:g} follows t={prev.timestamp:g}"
                )
                break
    return violations


def compare_systems(system: CosmosSystem) -> List[str]:
    """The indexed fast path delivered exactly what the naive scan did.

    ``system``'s network must be the checked one
    (:func:`~repro.sim.reference.check_publications`): its recorded
    per-publication mismatches, and one violation if its per-link
    accounting differs from the scan's, in first-use order included.
    """
    network = system.network
    violations = list(network.mismatches)
    fast = list(network.data_stats.as_dict().items())
    if fast != list(network.reference_stats.as_dict().items()):
        violations.append("fast-vs-naive: data-layer traffic accounting diverged")
    return violations
