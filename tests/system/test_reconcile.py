"""The one group reconciliation (DESIGN.md section 6).

Whatever changes a group — submission, withdrawal, migration cutover,
resume, partition heal — ends in ``CosmosSystem.reconcile_group``, which
re-subscribes ``ACTIVE`` members only, and of those only the ones whose
profile moved.  The regressions below are the cases the five
hand-written copies of the rule got wrong; the random histories check
the invariants after every step of any interleaving.
"""

import itertools
import random

import pytest

from repro.cbn.datagram import Datagram
from repro.core.profiles import result_profile, source_profile
from repro.cql.parser import parse_query
from repro.cql.schema import Attribute, StreamSchema
from repro.overlay.topology import Topology
from repro.overlay.tree import DisseminationTree
from repro.sim.oracle import check_no_orphans, expected_results
from repro.spe.engine import StreamProcessingEngine
from repro.system.cosmos import CosmosSystem, QueryStatus
from repro.system.fault import fail_processor
from repro.system.loadmgr import (
    GroupMigration,
    cutover_group,
    quarantine_for_migration,
    resume_after_migration,
)
from repro.system.reliability import heal_partition, quarantine_partitioned

TEMP = StreamSchema(
    "Temp",
    [Attribute("station", "int", 0, 9), Attribute("celsius", "float", -20.0, 40.0)],
    rate=1.0,
)
WIND = StreamSchema(
    "Wind",
    [Attribute("station", "int", 0, 9), Attribute("speed", "float", 0.0, 50.0)],
    rate=1.0,
)

#: Source 0, processors 1 and 2 and user 3 on the trunk; users 5, 7, 9
#: each behind one broker (4, 6, 8) whose loss strands them, and one
#: bypass link per arm that an operator adds to heal the partition.
TRUNK = [(0, 1), (1, 2), (2, 3)]
ARMS = {4: ((3, 4), (4, 5)), 6: ((3, 6), (6, 7)), 8: ((2, 8), (8, 9))}
BYPASS = {4: (3, 5), 6: (3, 7), 8: (2, 9)}
USERS = (3, 5, 7, 9)


def build_system():
    edges = TRUNK + [edge for arm in ARMS.values() for edge in arm]
    topology = Topology()
    for u, v in edges:
        topology.add_edge(u, v, 1.0)
    tree = DisseminationTree(edges, {edge: 1.0 for edge in edges})
    system = CosmosSystem(tree, processor_nodes=[1, 2], topology=topology)
    system.add_source(TEMP, 0)
    system.add_source(WIND, 0)
    return system


def warm(threshold):
    return f"SELECT T.station, T.celsius FROM Temp [Now] T WHERE T.celsius > {threshold}"


def user_subscriptions(system, query_id):
    """Live result subscriptions installed for the query, by the id
    scheme (``user:<query>:v<n>``) — whatever the system recorded."""
    return [
        sid
        for sid in system.network.subscriptions()
        if sid.startswith(f"user:{query_id}:v")
    ]


def start_migration(system, query_id):
    """Quarantine the query's group for a move to the other processor."""
    source = system.query(query_id).processor_node
    group = system.processors[source].manager.grouping.group_of(query_id)
    members = quarantine_for_migration(system, source, group.group_id)
    return GroupMigration(
        "m0", group.group_id, source, 3 - source, members=members
    )


class TestQuarantinedMemberIsSkipped:
    """A change to a group must not re-subscribe a member its owner has
    quarantined (each failed at the parent of the reconciliation PR)."""

    def test_submit_into_a_migrating_group(self):
        system = build_system()
        a = system.submit(warm(10), user_node=3, name="a")
        migration = start_migration(system, "a")
        b = system.submit(warm(20), user_node=5, name="b")
        assert a.status is QueryStatus.DEGRADED
        assert user_subscriptions(system, "a") == []
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 30.0}, 1.0)
        assert (a.result_count, b.result_count) == (0, 1)

        assert resume_after_migration(system, migration.source_node, ["a"]) == ["a"]
        assert len(user_subscriptions(system, "a")) == 1
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 31.0}, 2.0)
        assert (a.result_count, b.result_count) == (1, 2)  # no duplicates

    def test_member_that_joined_a_migrating_group_moves_with_it(self):
        system = build_system()
        a = system.submit(warm(10), user_node=3, name="a")
        migration = start_migration(system, "a")
        b = system.submit(warm(20), user_node=7, name="b")  # ACTIVE, same group
        assert cutover_group(system, migration) == ["a"]
        # ``b`` was neither a resident of the target nor quarantined: it
        # used to keep its subscription to the source's dead result stream.
        assert b.processor_node == migration.target_node
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 31.0}, 1.0)
        assert (a.result_count, b.result_count) == (1, 1)

    def test_withdraw_from_a_migrating_group(self):
        system = build_system()
        a = system.submit(warm(10), user_node=3, name="a")
        system.submit(warm(20), user_node=5, name="b")
        migration = start_migration(system, "a")
        system.withdraw("b")
        assert user_subscriptions(system, "a") == []
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 30.0}, 1.0)
        assert a.result_count == 0

        assert cutover_group(system, migration) == ["a"]
        assert a.processor_node == migration.target_node
        assert len(user_subscriptions(system, "a")) == 1
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 31.0}, 2.0)
        assert a.result_count == 1

    def test_submit_into_a_group_with_a_stranded_member(self):
        system = build_system()
        a = system.submit(warm(10), user_node=5, name="a")
        assert quarantine_partitioned(system, 4) == ["a"]
        # Used to die with ``NetworkError: unknown broker 5`` and leave
        # ``b`` half-installed.
        b = system.submit(warm(20), user_node=3, name="b")
        assert a.status is QueryStatus.DEGRADED
        assert user_subscriptions(system, "a") == []
        assert len(user_subscriptions(system, "b")) == 1
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 30.0}, 1.0)
        assert (a.result_count, b.result_count) == (0, 1)

        system.topology.add_edge(*BYPASS[4], 1.0)
        assert heal_partition(system) == ["a"]
        assert a.status is QueryStatus.ACTIVE
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 31.0}, 2.0)
        assert (a.result_count, b.result_count) == (1, 2)

    def test_a_stranded_orphan_of_a_failed_processor_waits_for_heal(self):
        system = build_system()
        a = system.submit(warm(10), user_node=5, name="a")
        victim = a.processor_node
        assert quarantine_partitioned(system, 4) == ["a"]
        # Used to re-submit ``a`` from a user outside the tree, lose it
        # and raise; the handle now moves, still quarantined.
        assert fail_processor(system, victim) == ["a"]
        assert system.query("a") is a and a.status is QueryStatus.DEGRADED
        assert a.processor_node != victim
        assert user_subscriptions(system, "a") == []
        assert check_no_orphans(system) == []

        system.topology.add_edge(*BYPASS[4], 1.0)
        assert heal_partition(system) == ["a"]
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 31.0}, 1.0)
        assert a.result_count == 1

    def test_resume_and_heal_leave_current_subscriptions_alone(self):
        system = build_system()
        system.submit(warm(10), user_node=3, name="a")
        system.submit(warm(20), user_node=5, name="b")
        quarantine_partitioned(system, 4)
        (before,) = user_subscriptions(system, "a")
        system.topology.add_edge(*BYPASS[4], 1.0)
        heal_partition(system)
        # The representative did not change: only ``b`` is re-subscribed.
        assert user_subscriptions(system, "a") == [before]


class TestRefreshSkip:
    """A member keeps its result subscription while its recomposed
    profile equals the installed one; a moved profile is replaced."""

    #: Only a user at 7 subscribes across this link (its arm's last hop).
    ARM = (6, 7)

    def submit_pair(self, first, second):
        system = build_system()
        a = system.submit(warm(first), user_node=7, name="a")
        (installed,) = user_subscriptions(system, "a")
        arm = system.network.control_stats.usage(*self.ARM).messages
        b = system.submit(warm(second), user_node=3, name="b")
        group = system.processors[a.processor_node].manager.grouping.group_of("a")
        assert group.member_names() == ["a", "b"]
        laid = system.network.control_stats.usage(*self.ARM).messages - arm
        return system, a, b, installed, laid

    def test_unchanged_profile_keeps_its_subscription(self):
        # ``b`` is contained by ``a``: the representative still admits
        # exactly what ``a`` asks for, so ``a`` has nothing to re-tighten.
        system, a, b, installed, laid = self.submit_pair(10, 20)
        assert user_subscriptions(system, "a") == [installed]
        assert laid == 0
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 15.0}, 1.0)
        system.publish("Temp", {"station": 1, "celsius": 25.0}, 2.0)
        assert (a.result_count, b.result_count) == (2, 1)

    def test_changed_profile_is_replaced(self):
        # ``b`` widens the representative: ``a`` must re-tighten it.
        system, a, b, installed, laid = self.submit_pair(20, 10)
        (current,) = user_subscriptions(system, "a")
        assert current != installed
        assert laid == 1
        assert check_no_orphans(system) == []
        system.publish("Temp", {"station": 1, "celsius": 15.0}, 1.0)
        system.publish("Temp", {"station": 1, "celsius": 25.0}, 2.0)
        assert (a.result_count, b.result_count) == (1, 2)


class TestComposeWhatChanged:
    """A member's profile is composed again only when its group's
    representative moved or the member is new to the group; a group that
    leaves its manager leaves nothing composed behind."""

    @pytest.fixture
    def composed(self, monkeypatch):
        """The member names, in call order, whose profiles were composed."""
        calls = []

        def counting(member, *args, **kwargs):
            calls.append(member.name)
            return result_profile(member, *args, **kwargs)

        monkeypatch.setattr("repro.core.manager.result_profile", counting)
        return calls

    @staticmethod
    def manager_of(system, query_id):
        return system.processors[system.query(query_id).processor_node].manager

    def test_contained_submit_composes_the_newcomer_only(self, composed):
        # ``c`` is contained by the merged representative of ``a`` and
        # ``b``, which it leaves as it was.
        system = build_system()
        system.submit(warm(10), user_node=3, name="a")
        system.submit(warm(20), user_node=5, name="b")
        composed.clear()
        system.submit(warm(30), user_node=7, name="c")
        assert composed == ["c"]

    def test_widening_submit_composes_each_member_once(self, composed):
        system = build_system()
        system.submit(warm(20), user_node=3, name="a")
        composed.clear()
        system.submit(warm(10), user_node=5, name="b")
        assert composed == ["a", "b"]

    def test_withdraw_that_keeps_the_representative_composes_none(self, composed):
        system = build_system()
        system.submit(warm(10), user_node=3, name="a")
        system.submit(warm(20), user_node=5, name="b")
        system.submit(warm(30), user_node=7, name="c")
        composed.clear()
        system.withdraw("c")
        assert composed == []

    def test_cutover_and_resume_compose_each_mover_once(self, composed):
        system = build_system()
        system.submit(warm(20), user_node=3, name="a")
        system.submit(warm(10), user_node=5, name="b")
        migration = start_migration(system, "a")
        composed.clear()
        assert cutover_group(system, migration) == ["a", "b"]
        assert sorted(composed) == ["a", "b"]
        assert check_no_orphans(system) == []

    def test_last_withdraw_evicts_the_group(self):
        system = build_system()
        system.submit(warm(10), user_node=3, name="a")
        system.submit(warm(20), user_node=5, name="b")
        manager = self.manager_of(system, "a")
        group_id = manager.grouping.group_of("a").group_id
        system.withdraw("a")
        assert group_id in manager._composed
        system.withdraw("b")
        assert manager._composed == {}

    def test_release_evicts_the_group(self):
        system = build_system()
        system.submit(warm(10), user_node=3, name="a")
        source = self.manager_of(system, "a")
        group_id = source.grouping.group_of("a").group_id
        migration = start_migration(system, "a")
        cutover_group(system, migration)
        assert group_id not in source._composed
        target = self.manager_of(system, "a")
        assert target is not source
        assert set(target._composed) == {target.grouping.group_of("a").group_id}


class TestStateSurvivesAnUnchangedRepresentative:
    """A group change that leaves the canonical representative as it
    was keeps the SPE registration, so its windows keep their state."""

    QUERY = (
        "SELECT COUNT(*) AS n FROM Temp [Range 100 Second] T "
        "WHERE T.celsius > 10 GROUP BY T.station"
    )
    FEED = [
        Datagram("Temp", {"station": 1, "celsius": 20.0}, 1.0),
        Datagram("Temp", {"station": 1, "celsius": 25.0}, 2.0),
        Datagram("Temp", {"station": 1, "celsius": 30.0}, 3.0),
    ]

    def bare(self, feed):
        """What an engine registered just before ``feed`` emits."""
        engine = StreamProcessingEngine(build_system().catalog)
        engine.register(parse_query(self.QUERY).canonical(engine.catalog), name="q")
        return [(r.payload["n"], r.timestamp) for r in engine.run(feed)["q"]]

    def test_an_identical_newcomer_does_not_restart_the_count(self):
        system = build_system()
        first = system.submit(self.QUERY, user_node=3, name="a")
        for datagram in self.FEED[:2]:
            system.publish("Temp", dict(datagram.payload), datagram.timestamp)
        newcomer = system.submit(self.QUERY, user_node=5, name="b")
        datagram = self.FEED[2]
        system.publish("Temp", dict(datagram.payload), datagram.timestamp)
        assert newcomer.processor_node == first.processor_node
        # The earlier member is undisturbed: exactly a bare engine's run.
        assert [(r.payload["n"], r.timestamp) for r in first.results] == (
            self.bare(self.FEED)
        ) == [(1, 1.0), (2, 2.0), (3, 3.0)]
        # The newcomer falls inside the sandwich: at least what an engine
        # registered at its submit emits, at most one from the start.
        (got,) = [(r.payload["n"], r.timestamp) for r in newcomer.results]
        (least,) = self.bare(self.FEED[2:])
        most = self.bare(self.FEED)[-1]
        assert least[1] == got[1] == most[1]
        assert least[0] <= got[0] <= most[0]


class TestRandomHistories:
    """Seeded interleavings of everything that changes a group; the
    invariants of the reconciliation hold after every step."""

    QUERIES = [
        "SELECT T.station, T.celsius FROM Temp [Now] T WHERE T.celsius > {n}",
        "SELECT T.celsius FROM Temp [Now] T WHERE T.celsius > {n} AND T.station < 7",
        "SELECT T.station FROM Temp [Now] T WHERE T.station > 2",
        "SELECT W.station, W.speed FROM Wind [Now] W WHERE W.speed > {n}",
        "SELECT W.speed FROM Wind [Now] W WHERE W.speed < {n}",
    ]

    @staticmethod
    def held(system):
        """query id -> (subscription id, profile) of every live result
        subscription."""
        live = system.network.subscriptions()
        return {
            handle.query_id: (sid, live[sid][1])
            for handle in system.queries
            for sid in user_subscriptions(system, handle.query_id)
        }

    @staticmethod
    def installed(system):
        """(node, group id) -> (canonical representative, SPE-local name,
        source subscription id) of every installed group, the id read off
        the group -> (profile, subscription id) registry ``commit``
        keeps, whose entry must be live at the processor's node."""
        live = system.network.subscriptions()
        out = {}
        for node, processor in system.processors.items():
            for group in processor.manager.groups:
                profile, sid = processor._source_subscriptions[group.group_id]
                assert live[sid] == (node, profile), sid
                out[(node, group.group_id)] = (
                    group.representative.canonical(system.catalog),
                    processor.engine_name_of(group.group_id),
                    sid,
                )
        return out

    @staticmethod
    def assert_reconciled(system, before, installed):
        """The invariants, and: a member whose recomposed profile equals
        the one it held ``before`` the step kept that subscription; a
        group whose canonical representative did not move kept its SPE
        registration and its source subscription."""
        live = system.network.subscriptions()
        assert check_no_orphans(system) == []
        for key, (rep, engine_name, sid) in TestRandomHistories.installed(
            system
        ).items():
            if key in installed and installed[key][0] == rep:
                assert (engine_name, sid) == installed[key][1:], key
        grouped = set()
        for node, processor in system.processors.items():
            manager = processor.manager
            groups = manager.groups
            assert processor.spe.query_names == sorted(
                processor.engine_name_of(group.group_id) for group in groups
            )
            owner = {
                sid: group_id
                for group_id, (__, sid) in processor._source_subscriptions.items()
            }
            sources = [
                (owner.get(sid), profile)
                for sid, (at, profile) in live.items()
                if sid.startswith("src:") and at == node
            ]
            assert len(sources) == len(groups)
            assert dict(sources) == {
                g.group_id: source_profile(
                    g.representative, system.catalog, subscriber=g.group_id
                )
                for g in groups
            }
            for group in groups:
                stream = manager.result_stream_of(group)
                for member in group.members:
                    grouped.add(member.name)
                    handle = system.query(member.name)
                    assert (handle.processor_node, handle.result_stream) == (node, stream)
                    held = user_subscriptions(system, member.name)
                    if handle.status is not QueryStatus.ACTIVE:
                        assert held == []
                        continue
                    (sid,) = held
                    assert system.subscriber_of(sid) is handle
                    profile = result_profile(
                        member,
                        group.representative,
                        system.catalog,
                        stream,
                        subscriber=member.name,
                    )
                    assert live[sid] == (handle.user_node, profile)
                    if member.name in before and before[member.name][1] == profile:
                        assert sid == before[member.name][0], member.name
        assert grouped == {handle.query_id for handle in system.queries}

    @pytest.mark.parametrize("seed", range(12))
    def test_invariants_hold_after_every_step(self, seed):
        rng = random.Random(seed)
        system = build_system()
        migrations, failed = [], []
        names, clock = itertools.count(), itertools.count(1)

        def submit():
            text = rng.choice(self.QUERIES).format(n=rng.randint(0, 30))
            user = rng.choice([u for u in USERS if u in system.tree])
            # Subscription ids are never parsed back: ':' is a legal name.
            system.submit(text, user_node=user, name=f"u{user}:q{next(names)}")

        def withdraw():
            if system.queries:
                system.withdraw(rng.choice(system.queries).query_id)

        def quarantine():
            groups = [
                (node, group.group_id)
                for node, processor in system.processors.items()
                for group in processor.manager.groups
                if not any(m.group_id == group.group_id and m.source_node == node for m in migrations)
            ]
            if groups:
                node, group_id = rng.choice(groups)
                members = quarantine_for_migration(system, node, group_id)
                if members:
                    migrations.append(
                        GroupMigration(f"m{next(names)}", group_id, node, 3 - node, members)
                    )

        def finish(cut):
            if not migrations:
                return
            migration = migrations.pop(rng.randrange(len(migrations)))
            source = system.processors[migration.source_node].manager
            if all(g.group_id != migration.group_id for g in source.groups):
                return  # every member was withdrawn: superseded
            if cut:
                cutover_group(system, migration)
            else:
                resume_after_migration(system, migration.source_node, migration.members)

        def partition():
            standing = [broker for broker in ARMS if broker not in failed]
            if standing:
                failed.append(rng.choice(standing))
                quarantine_partitioned(system, failed[-1])

        def heal():
            for broker in failed:
                system.topology.add_edge(*BYPASS[broker], 1.0)
            heal_partition(system)

        def publish():
            before = {h.query_id: h.result_count for h in system.queries}
            stream = rng.choice(["Temp", "Wind"])
            attr = "celsius" if stream == "Temp" else "speed"
            payload = {"station": rng.randint(0, 9), attr: float(rng.randint(0, 40))}
            tuple_ = Datagram(stream, payload, float(next(clock)))
            system.publish(stream, payload, tuple_.timestamp)
            for handle in system.queries:
                want = (
                    expected_results(handle.query, system.catalog, [tuple_])
                    if handle.status is QueryStatus.ACTIVE
                    else []
                )
                got = handle.results[before[handle.query_id]:]
                assert [(dict(r.payload), r.timestamp) for r in got] == want

        steps = [submit] * 4 + [withdraw] * 2 + [publish] * 3 + [
            quarantine, quarantine, lambda: finish(True), lambda: finish(False),
            partition, heal,
        ]
        for __ in range(6):
            submit()
        for __ in range(60):
            before, installed = self.held(system), self.installed(system)
            rng.choice(steps)()
            self.assert_reconciled(system, before, installed)
