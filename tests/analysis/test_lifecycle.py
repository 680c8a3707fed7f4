"""COS81x lifecycle extraction: table and spec machines, canaries."""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Report
from repro.analysis.lifecycle import (
    MachineSpec,
    StateMachine,
    TableSpec,
    Transition,
    TransitionSpec,
    _extract_spec_machine,
    _extract_table_machine,
    check_lifecycle,
    check_machines,
    extract_lifecycle,
)
from repro.analysis.selfcheck import check_modules, default_package_dir
from repro.analysis.source import load_package, module_from_text
from repro.system import cosmos, loadmgr


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
        assert m.terminal == []
        assert m.origin[0].endswith("system/cosmos.py")

    def test_table_machines_are_the_tables_the_runtime_runs(self, machines):
        """Each table-backed machine is its runtime table, row for row,
        over the members of its enum."""
        for enum, table in (
            (loadmgr.MigrationState, loadmgr.MIGRATION_LIFECYCLE),
            (cosmos.QueryStatus, cosmos.QUERY_LIFECYCLE),
        ):
            m = machines[enum.__name__]
            assert m.states == [member.name for member in enum]
            assert m.initial == [table["initial"]]
            assert m.terminal == list(table["terminal"])
            assert m.transitions == [Transition(*row) for row in table["rows"]]

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


class TestPristine:
    def test_package_lifecycle_is_clean(self, modules):
        assert check_lifecycle(modules).is_clean


_HEAL_ROW = '        ("heal_partition", "DEGRADED", "ACTIVE"),\n'
_RESUME_ROW = '        ("resume_after_migration", "DEGRADED", "ACTIVE"),\n'


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
        """With both DEGRADED->ACTIVE rows gone (partition heal and
        migration resume), DEGRADED becomes a trap state the model
        forbids."""
        mutated = mutate(modules, "system/cosmos.py", _HEAL_ROW, "")
        mutated = mutate(mutated, "system/cosmos.py", _RESUME_ROW, "")
        report = check_lifecycle(mutated)
        assert report.codes() == ["COS813"]
        assert "DEGRADED" in report.render()

    def test_one_surviving_heal_path_keeps_degraded_exitable(self, modules):
        """The migration resume row alone still exits DEGRADED, so
        deleting only heal_partition's row stays clean — the two
        layers genuinely back each other up."""
        mutated = mutate(modules, "system/cosmos.py", _HEAL_ROW, "")
        assert check_lifecycle(mutated).is_clean

    def test_a_row_naming_a_state_the_enum_lacks_fires_cos812(self, modules):
        """A misspelt row never joins the machine (the runtime could
        not take it either)."""
        mutated = mutate(
            modules, "system/cosmos.py", _HEAL_ROW,
            _HEAL_ROW.replace('"ACTIVE"', '"ACTIV"'),
        )
        report = check_lifecycle(mutated)
        assert report.codes() == ["COS812"]
        assert "heal_partition" in report.render()
        assert "ACTIV'" in report.render()

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


_PHASES = module_from_text(
    "import enum\n"
    "class Phase(enum.Enum):\n"
    "    A = 'a'\n"
    "    B = 'b'\n"
    "    C = 'c'\n"
    "    label = 'x'\n"
    "PHASES = {\n"
    "    'initial': 'A',\n"
    "    'terminal': ('C',),\n"
    "    'rows': (('go', 'A', 'B'), ('go', 'B', 'C'), ('go', 'A', 'B')),\n"
    "}\n",
    "pkg/phases.py",
)
_PHASE_TABLE = TableSpec("Phase", "pkg/phases.py", "PHASES")


class TestTableMachines:
    def test_the_enum_gives_the_states_and_the_table_the_rest(self):
        report = Report()
        machine = _extract_table_machine(_PHASE_TABLE, [_PHASES], report)
        assert report.is_clean
        assert machine.to_dict() == {
            "name": "Phase",
            "states": ["A", "B", "C"],
            "initial": ["A"],
            "terminal": ["C"],
            "transitions": [
                {"label": "go", "source": "A", "target": "B"},
                {"label": "go", "source": "B", "target": "C"},
            ],
        }
        assert machine.origin == ("pkg/phases.py", 2)
        assert check_machines([machine], report).is_clean

    def test_a_module_or_table_that_is_absent_yields_no_machine(self):
        report = Report()
        other = module_from_text("x = 1\n", "pkg/other.py")
        assert _extract_table_machine(_PHASE_TABLE, [other], report) is None
        renamed = TableSpec("Phase", "pkg/phases.py", "STEPS")
        assert _extract_table_machine(renamed, [_PHASES], report) is None
        assert report.is_clean

    def test_a_row_outside_the_enum_is_cos812_and_left_out(self):
        module = module_from_text(
            _PHASES.text.replace("('go', 'B', 'C')", "('go', 'B', 'D')"),
            "pkg/phases.py",
        )
        report = Report()
        machine = _extract_table_machine(_PHASE_TABLE, [module], report)
        assert machine.transitions == [Transition("go", "A", "B")]
        assert report.codes() == ["COS812"]
        assert "('go', 'B', 'D')" in report.render()
