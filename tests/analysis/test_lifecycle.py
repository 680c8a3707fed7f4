"""COS81x lifecycle extraction: machines, guard narrowing, canaries."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.diagnostics import Report
from repro.analysis.lifecycle import (
    ENUM_TERMINAL_POLICY,
    MachineSpec,
    StateMachine,
    Transition,
    TransitionSpec,
    _enum_tests,
    _extract_spec_machine,
    check_lifecycle,
    check_machines,
    collect_enums,
    extract_lifecycle,
)
from repro.analysis.selfcheck import check_modules, default_package_dir
from repro.analysis.source import load_package, module_from_text


@pytest.fixture(scope="module")
def modules():
    return load_package(default_package_dir())


@pytest.fixture(scope="module")
def machines(modules):
    return {m.name: m for m in extract_lifecycle(modules)}


def mutate(modules, rel_suffix, old, new, count=1):
    out = []
    hit = False
    for module in modules:
        if module.rel.endswith(rel_suffix):
            assert module.text.count(old) == count, rel_suffix
            out.append(module_from_text(module.text.replace(old, new), module.rel))
            hit = True
        else:
            out.append(module)
    assert hit, f"no module matches {rel_suffix}"
    return out


class TestExtraction:
    def test_at_least_three_machines(self, machines):
        assert {
            "QueryStatus",
            "uplink-receiver",
            "failure-detector",
            "node-supervision",
        } <= set(machines)

    def test_query_status_machine(self, machines):
        m = machines["QueryStatus"]
        assert m.initial == ["ACTIVE"]
        assert Transition("quarantine_partitioned", "ACTIVE", "DEGRADED") in m.transitions
        assert Transition("heal_partition", "DEGRADED", "ACTIVE") in m.transitions
        # The quarantine guard skips non-ACTIVE handles, so there is no
        # DEGRADED->DEGRADED quarantine edge.
        assert (
            Transition("quarantine_partitioned", "DEGRADED", "DEGRADED")
            not in m.transitions
        )

    def test_uplink_receiver_machine(self, machines):
        m = machines["uplink-receiver"]
        assert m.initial == ["UNSEEN"]
        assert set(m.terminal) == {"RELEASED", "ABANDONED"}
        assert m.targets("arrive", "UNSEEN") == ["BUFFERED"]
        assert m.targets("release", "BUFFERED") == ["RELEASED"]
        assert m.targets("abandon", "GAP") == ["ABANDONED"]

    def test_failure_detector_machine(self, machines):
        m = machines["failure-detector"]
        assert m.targets("suspect", "MONITORED") == ["SUSPECTED"]
        assert set(m.targets("deregister", "SUSPECTED")) == {"UNKNOWN"}

    def test_every_machine_reaches_every_state(self, machines):
        for m in machines.values():
            assert m.reachable() == set(m.states), m.name


class TestGuardNarrowing:
    def test_early_return_guard_narrows_from_set(self):
        module = module_from_text(
            "from __future__ import annotations\n"
            "import enum\n"
            "class Phase(enum.Enum):\n"
            "    A = 'a'\n"
            "    B = 'b'\n"
            "class Holder:\n"
            "    phase: Phase = Phase.A\n"
            "def promote(h):\n"
            "    if h.phase is not Phase.A:\n"
            "        return\n"
            "    h.phase = Phase.B\n",
            "pkg/phases.py",
        )
        (machine,) = extract_lifecycle([module], specs=())
        assert machine.name == "Phase"
        assert machine.transitions == [Transition("promote", "A", "B")]

    def test_if_branch_narrows_from_set(self):
        module = module_from_text(
            "from __future__ import annotations\n"
            "import enum\n"
            "class Phase(enum.Enum):\n"
            "    A = 'a'\n"
            "    B = 'b'\n"
            "class Holder:\n"
            "    phase: Phase = Phase.A\n"
            "def flip(h):\n"
            "    if h.phase is Phase.B:\n"
            "        h.phase = Phase.A\n"
            "    else:\n"
            "        h.phase = Phase.B\n",
            "pkg/phases.py",
        )
        (machine,) = extract_lifecycle([module], specs=())
        assert set(machine.transitions) == {
            Transition("flip", "B", "A"),
            Transition("flip", "A", "B"),
        }

    def test_membership_guard_narrows(self):
        module = module_from_text(
            "from __future__ import annotations\n"
            "import enum\n"
            "class Phase(enum.Enum):\n"
            "    A = 'a'\n"
            "    B = 'b'\n"
            "    C = 'c'\n"
            "class Holder:\n"
            "    phase: Phase = Phase.A\n"
            "def promote(h):\n"
            "    if h.phase not in (Phase.A, Phase.B):\n"
            "        return\n"
            "    h.phase = Phase.C\n",
            "pkg/phases.py",
        )
        (machine,) = extract_lifecycle([module], specs=())
        assert set(machine.transitions) == {
            Transition("promote", "A", "C"),
            Transition("promote", "B", "C"),
        }

    def test_frozenset_membership_guard_narrows(self):
        # `in frozenset((...))` reads identically to the bare-tuple
        # form at runtime; the extractor must narrow it the same way
        # instead of over-approximating to every state.
        module = module_from_text(
            "from __future__ import annotations\n"
            "import enum\n"
            "class Phase(enum.Enum):\n"
            "    A = 'a'\n"
            "    B = 'b'\n"
            "    C = 'c'\n"
            "class Holder:\n"
            "    phase: Phase = Phase.A\n"
            "def demote(h):\n"
            "    if h.phase in frozenset((Phase.B, Phase.C)):\n"
            "        h.phase = Phase.A\n",
            "pkg/phases.py",
        )
        (machine,) = extract_lifecycle([module], specs=())
        assert set(machine.transitions) == {
            Transition("demote", "B", "A"),
            Transition("demote", "C", "A"),
        }


class TestPristine:
    def test_package_lifecycle_is_clean(self, modules):
        assert check_lifecycle(modules).is_clean


class TestCanaries:
    def test_unproduced_enum_member_fires_cos812(self, modules):
        """A QueryStatus member no code path ever assigns is dead
        protocol surface."""
        mutated = mutate(
            modules,
            "system/cosmos.py",
            '    DEGRADED = "degraded"\n',
            '    DEGRADED = "degraded"\n    REBUILDING = "rebuilding"\n',
        )
        report = check_lifecycle(mutated)
        assert report.codes() == ["COS812"]
        assert "REBUILDING" in report.render()
        assert check_modules(mutated).has("COS812")

    def test_removing_every_heal_path_fires_cos813(self, modules):
        """With both DEGRADED->ACTIVE assignments gone (partition heal
        and migration resume), DEGRADED becomes a trap state the model
        forbids."""
        mutated = mutate(
            modules,
            "system/reliability.py",
            "        handle.status = QueryStatus.ACTIVE\n",
            "",
        )
        mutated = mutate(
            mutated,
            "system/loadmgr.py",
            "        handle.status = QueryStatus.ACTIVE\n",
            "",
        )
        report = check_lifecycle(mutated)
        assert report.codes() == ["COS813"]
        assert "DEGRADED" in report.render()

    def test_one_surviving_heal_path_keeps_degraded_exitable(self, modules):
        """The migration resume path alone still exits DEGRADED, so
        deleting only heal_partition's assignment stays clean — the two
        layers genuinely back each other up."""
        mutated = mutate(
            modules,
            "system/reliability.py",
            "        handle.status = QueryStatus.ACTIVE\n",
            "",
        )
        assert check_lifecycle(mutated).is_clean

    def test_missing_spec_anchor_fires_cos812(self, modules):
        """Renaming the suspicion mutation breaks the anchored
        MONITORED->SUSPECTED transition (and SUSPECTED turns
        unreachable)."""
        mutated = mutate(
            modules,
            "system/reliability.py",
            "self._suspected.add",
            "self._suspected_nodes_add",
        )
        report = check_lifecycle(mutated)
        assert report.has("COS812")
        assert "suspect" in report.render()


class TestExtractOnce:
    def test_check_machines_over_one_extraction_matches_check_lifecycle(
        self, modules
    ):
        """The self-check extracts the machines once and checks that
        list; the findings are the ones a fresh check_lifecycle reports,
        on the clean package and on a canary alike."""
        canary = mutate(
            modules,
            "system/reliability.py",
            "self._suspected.add",
            "self._suspected_nodes_add",
        )
        for module_set in (modules, canary):
            report = Report()
            machines = extract_lifecycle(module_set, report=report)
            once = check_machines(machines, report)
            assert once.render() == check_lifecycle(module_set).render()
        assert once.has("COS812")


_STATUS_ENUM = (
    "import enum\n"
    "class QueryStatus(enum.Enum):\n"
    "    ACTIVE = 'active'\n"
    "    DEGRADED = 'degraded'\n"
    "    QUARANTINED = 'quarantined'\n"
)

_ENUMS = {"QueryStatus": ["ACTIVE", "DEGRADED", "QUARANTINED"]}


def _decode(test_source, enums=_ENUMS):
    """_enum_tests over one branch test written as source text."""
    return _enum_tests(ast.parse(test_source, mode="eval").body, enums)


class TestCollectEnums:
    def test_members_in_declaration_order(self):
        module = module_from_text(_STATUS_ENUM, "repro/system/queries.py")
        enums = collect_enums([module])
        assert enums == {
            "QueryStatus": ["ACTIVE", "DEGRADED", "QUARANTINED"]
        }

    def test_non_enum_classes_ignored(self):
        module = module_from_text(
            "class C:\n    ACTIVE = 1\n", "repro/a.py"
        )
        assert collect_enums([module]) == {}

    def test_package_wide_enum_table(self):
        """An enum declared in one module decodes a guard written in
        another: the table is collected over the whole module set."""
        enum_module = module_from_text(_STATUS_ENUM, "repro/system/queries.py")
        guard_module = module_from_text(
            "def handle(self, status):\n"
            "    if status is QueryStatus.ACTIVE:\n"
            "        return 1\n",
            "repro/system/handler.py",
        )
        assert collect_enums([guard_module]) == {}
        enums = collect_enums([enum_module, guard_module])
        assert enums == _ENUMS
        (guard,) = [
            node for node in ast.walk(guard_module.tree)
            if isinstance(node, ast.If)
        ]
        assert _enum_tests(guard.test, enums) == (
            "status", "QueryStatus", {"ACTIVE"}, False
        )
        assert _enum_tests(guard.test, {}) is None

    def test_attribute_and_bare_enum_bases_both_count(self):
        module = module_from_text(
            "import enum\n"
            "from enum import Flag, StrEnum\n"
            "class Level(enum.IntEnum):\n"
            "    LOW = 1\n"
            "class Mode(Flag):\n"
            "    READ = 1\n"
            "class Name(StrEnum):\n"
            "    ALPHA = 'alpha'\n",
            "repro/a.py",
        )
        assert collect_enums([module]) == {
            "Level": ["LOW"],
            "Mode": ["READ"],
            "Name": ["ALPHA"],
        }

    def test_only_uppercase_plain_assignments_are_members(self):
        """Helpers, annotated attributes and multi-target assignments are
        not members; an enum left with none is not in the table."""
        module = module_from_text(
            "import enum\n"
            "class Phase(enum.Enum):\n"
            "    A = 'a'\n"
            "    label = 'x'\n"
            "    B: str = 'b'\n"
            "    C = D = 'c'\n"
            "    def describe(self):\n"
            "        return self.value\n"
            "class Empty(enum.Enum):\n"
            "    helper = 1\n",
            "repro/a.py",
        )
        assert collect_enums([module]) == {"Phase": ["A"]}


class TestEnumTests:
    def test_identity_test_decodes_either_side(self):
        assert _decode("h.status is QueryStatus.ACTIVE") == (
            "h.status", "QueryStatus", {"ACTIVE"}, False
        )
        assert _decode("QueryStatus.DEGRADED == h.status") == (
            "h.status", "QueryStatus", {"DEGRADED"}, False
        )

    def test_negative_test_is_flagged_negative(self):
        assert _decode("status is not QueryStatus.ACTIVE") == (
            "status", "QueryStatus", {"ACTIVE"}, True
        )
        assert _decode("status != QueryStatus.ACTIVE")[3] is True
        assert _decode("status not in (QueryStatus.ACTIVE,)")[3] is True

    def test_membership_tuple_decodes_every_member(self):
        assert _decode(
            "status in (QueryStatus.ACTIVE, QueryStatus.DEGRADED)"
        ) == ("status", "QueryStatus", {"ACTIVE", "DEGRADED"}, False)

    def test_membership_frozenset_decodes_like_the_tuple(self):
        tuple_form = _decode(
            "status in (QueryStatus.ACTIVE, QueryStatus.DEGRADED)"
        )
        assert _decode(
            "status in frozenset((QueryStatus.ACTIVE, QueryStatus.DEGRADED))"
        ) == tuple_form
        assert _decode(
            "status in set([QueryStatus.ACTIVE, QueryStatus.DEGRADED])"
        ) == tuple_form

    def test_or_branches_union_their_members(self):
        assert _decode(
            "status is QueryStatus.ACTIVE or status is QueryStatus.DEGRADED"
        ) == ("status", "QueryStatus", {"ACTIVE", "DEGRADED"}, False)
        # An `or` over two subjects, or with a negative arm, is no dispatch.
        assert _decode(
            "status is QueryStatus.ACTIVE or other is QueryStatus.DEGRADED"
        ) is None
        assert _decode(
            "status is QueryStatus.ACTIVE or status is not QueryStatus.DEGRADED"
        ) is None

    def test_anything_else_is_undecodable(self):
        for source in (
            "status",
            "status is QueryStatus.REBUILDING",
            "status is Other.ACTIVE",
            "f() is QueryStatus.ACTIVE",
            "status in (QueryStatus.ACTIVE, 1)",
            "status in frozenset(items)",
            "a < status < b",
        ):
            assert _decode(source) is None, source


def _machine(states, initial, terminal, *edges):
    return StateMachine(
        name="toy",
        states=list(states),
        initial=list(initial),
        terminal=list(terminal),
        transitions=[Transition(*edge) for edge in edges],
        origin=("repro/toy.py", 7),
    )


class TestStateMachine:
    def test_targets_filter_by_label_and_source(self):
        machine = _machine(
            "ABC", "A", "C",
            ("go", "A", "B"), ("go", "A", "C"), ("go", "B", "C"),
            ("skip", "A", "C"),
        )
        assert machine.targets("go", "A") == ["B", "C"]
        assert machine.targets("skip", "A") == ["C"]
        assert machine.targets("skip", "B") == []

    def test_reachable_follows_edges_from_the_initial_states(self):
        machine = _machine(
            "ABCD", "A", "CD",
            ("go", "A", "B"), ("go", "B", "A"), ("go", "C", "D"),
        )
        assert machine.reachable() == {"A", "B"}
        assert _machine("AB", "", "AB", ("go", "A", "B")).reachable() == set()

    def test_to_dict_lists_every_field_but_the_origin(self):
        machine = _machine("AB", "A", "B", ("go", "A", "B"))
        assert machine.to_dict() == {
            "name": "toy",
            "states": ["A", "B"],
            "initial": ["A"],
            "terminal": ["B"],
            "transitions": [{"label": "go", "source": "A", "target": "B"}],
        }


class TestCheckMachines:
    def test_a_consistent_machine_is_clean(self):
        machine = _machine(
            "ABC", "A", "C", ("go", "A", "B"), ("go", "B", "C")
        )
        assert check_machines([machine], Report()).is_clean

    def test_a_state_nothing_produces_is_cos812(self):
        machine = _machine("ABC", "A", "BC", ("go", "A", "B"))
        report = check_machines([machine], Report())
        assert report.codes() == ["COS812"]
        assert "state C has no producing code path" in report.render()

    def test_a_produced_but_unreachable_state_is_cos811(self):
        machine = _machine(
            "ABCD", "A", "ABCD",
            ("go", "A", "B"), ("go", "C", "D"), ("go", "D", "C"),
        )
        report = check_machines([machine], Report())
        assert report.codes() == ["COS811", "COS811"]
        assert "state C is unreachable" in report.render()
        assert "state D is unreachable" in report.render()

    def test_a_trap_state_not_allowed_terminal_is_cos813(self):
        machine = _machine("AB", "A", "A", ("go", "A", "B"))
        report = check_machines([machine], Report())
        assert report.codes() == ["COS813"]
        assert "state B has no exit" in report.render()

    def test_a_declared_terminal_state_may_have_no_exit(self):
        machine = _machine("AB", "A", "B", ("go", "A", "B"))
        assert check_machines([machine], Report()).is_clean

    def test_findings_join_the_given_report_at_the_machine_origin(self):
        report = Report()
        report.add("COS812", "a broken anchor", "repro/other.py", 1)
        machine = _machine("AB", "A", "A", ("go", "A", "B"))
        assert check_machines([machine], report) is report
        assert report.codes() == ["COS812", "COS813"]
        finding = report.diagnostics[-1]
        assert (finding.source, finding.pos) == ("repro/toy.py", 7)


_HOME = module_from_text(
    "class Box:\n"
    "    def open(self):\n"
    "        self._open = True\n"
    "    def close(self):\n"
    "        self._open = False\n",
    "repro/box.py",
)


def _box_spec(*templates):
    return MachineSpec(
        name="box",
        module="repro/box.py",
        states=("SHUT", "OPEN"),
        initial=("SHUT",),
        terminal=("SHUT",),
        transitions=tuple(
            TransitionSpec(label, source, target, "repro/box.py", func, needle)
            for label, source, target, func, needle in templates
        ),
    )


class TestSpecMachines:
    def test_anchored_transitions_are_admitted(self):
        report = Report()
        machine = _extract_spec_machine(
            _box_spec(
                ("open", "SHUT", "OPEN", "open", "self._open = True"),
                ("close", "OPEN", "SHUT", "close", "self._open = False"),
            ),
            [_HOME],
            report,
        )
        assert report.is_clean
        assert machine.origin == ("repro/box.py", 1)
        assert machine.transitions == [
            Transition("open", "SHUT", "OPEN"),
            Transition("close", "OPEN", "SHUT"),
        ]

    def test_a_missing_needle_or_method_drops_the_edge_as_cos812(self):
        report = Report()
        machine = _extract_spec_machine(
            _box_spec(
                ("open", "SHUT", "OPEN", "open", "self._opened = True"),
                ("close", "OPEN", "SHUT", "shut", "self._open = False"),
            ),
            [_HOME],
            report,
        )
        assert machine.transitions == []
        assert report.codes() == ["COS812", "COS812"]
        assert "open() no longer contains" in report.render()
        assert "shut() no longer contains" in report.render()

    def test_two_anchors_for_one_edge_admit_it_once(self):
        machine = _extract_spec_machine(
            _box_spec(
                ("open", "SHUT", "OPEN", "open", "self._open = True"),
                ("open", "SHUT", "OPEN", "open", "def open"),
            ),
            [_HOME],
            Report(),
        )
        assert machine.transitions == [Transition("open", "SHUT", "OPEN")]

    def test_a_spec_whose_module_is_absent_yields_no_machine(self):
        other = module_from_text("x = 1\n", "repro/other.py")
        report = Report()
        assert _extract_spec_machine(_box_spec(), [other], report) is None
        assert report.is_clean


_PHASE = (
    "import enum\n"
    "class Phase(enum.Enum):\n"
    "    A = 'a'\n"
    "    B = 'b'\n"
)


class TestEnumMachines:
    def test_class_defaults_are_the_initial_states(self):
        module = module_from_text(
            _PHASE
            + "class Holder:\n"
            "    phase: Phase = Phase.B\n"
            "class Other:\n"
            "    phase: Phase = Phase.A\n",
            "pkg/phases.py",
        )
        (machine,) = extract_lifecycle([module], specs=())
        assert machine.initial == ["B", "A"]
        assert machine.transitions == []
        assert machine.origin == ("pkg/phases.py", 2)

    def test_the_label_is_the_enclosing_function(self):
        module = module_from_text(
            _PHASE
            + "def reset(h):\n"
            "    h.phase = Phase.A\n"
            "holder.phase = Phase.B\n",
            "pkg/phases.py",
        )
        (machine,) = extract_lifecycle([module], specs=())
        assert machine.initial == []
        assert {t.label for t in machine.transitions} == {"reset", "<module>"}
        assert machine.targets("<module>", "A") == ["B"]

    def test_an_enum_without_policy_may_stop_anywhere(self):
        module = module_from_text(
            _PHASE + "def reset(h):\n    h.phase = Phase.A\n",
            "pkg/phases.py",
        )
        (machine,) = extract_lifecycle([module], specs=())
        assert "Phase" not in ENUM_TERMINAL_POLICY
        assert machine.terminal == ["A", "B"]

    def test_an_enum_never_assigned_or_defaulted_has_no_machine(self):
        module = module_from_text(
            _PHASE + "def is_a(h):\n    return h.phase is Phase.A\n",
            "pkg/phases.py",
        )
        assert extract_lifecycle([module], specs=()) == []
