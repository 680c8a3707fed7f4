"""COS90x: bounded model checking of the composed protocol machines.

The canary tests doctor *source text* (not the model): deleting the
heal path, the cutover certification or the abort path from the real
modules must surface as COS902/COS901/COS903 through re-extraction —
that is the property that makes the checker a regression tripwire
rather than a self-consistent artifact.
"""

from __future__ import annotations

import pytest

from repro.analysis.diagnostics import Severity
from repro.analysis.lifecycle import extract_lifecycle
from repro.analysis.model import (
    DEFAULT_MAX_STATES,
    ProductModel,
    Rule,
    build_product,
    check_model,
    explore,
    model_summary,
    product_dot,
)
from repro.analysis.selfcheck import check_modules, default_package_dir
from repro.analysis.source import load_package
from tests.analysis.canary import module_from_text


@pytest.fixture(scope="module")
def modules():
    return load_package(default_package_dir())


@pytest.fixture(scope="module")
def machines(modules):
    return extract_lifecycle(modules)


@pytest.fixture(scope="module")
def checked(machines, modules):
    model = build_product(machines, modules)
    report, exploration = check_model(model)
    return model, report, exploration


def _codes(report):
    return sorted({diag.code for diag in report})


def _doctor(modules, rel_suffix, old, new):
    """Re-parse one module with ``old`` textually replaced by ``new``."""
    doctored = []
    hit = False
    for module in modules:
        if module.rel.endswith(rel_suffix) and old in module.text:
            assert module.text.count(old) == 1, (
                f"canary needle {old!r} is not unique in {module.rel}"
            )
            doctored.append(
                module_from_text(module.text.replace(old, new), module.rel)
            )
            hit = True
        else:
            doctored.append(module)
    assert hit, f"canary needle {old!r} not found under {rel_suffix}"
    return doctored


def _check_doctored(modules, rel_suffix, old, new):
    doctored = _doctor(modules, rel_suffix, old, new)
    machines = extract_lifecycle(doctored)
    report, _exploration = check_model(build_product(machines, doctored))
    return report


class TestRealPackage:
    def test_clean_and_exhausted(self, checked):
        model, report, exploration = checked
        assert _codes(report) == []
        assert exploration.exhausted
        assert exploration.max_depth >= 10
        assert 100 < len(exploration.states) < DEFAULT_MAX_STATES

    def test_all_six_components_composed(self, checked):
        model, _report, _exploration = checked
        assert [c.name for c in model.components] == [
            "slot",
            "channel",
            "detector",
            "node",
            "query",
            "migration",
        ]
        assert model.dropped == []
        assert model.uncertified == []

    def test_cutover_guard_is_certified(self, checked):
        model, _report, _exploration = checked
        (cutover,) = [r for r in model.rules if r.action == "cutover"]
        assert cutover.certified_guards == (("channel", ("RELEASED",)),)
        assert cutover.anchors

    def test_every_rule_fires_somewhere(self, checked):
        model, _report, exploration = checked
        fired = {rule_idx for _s, rule_idx, _d in exploration.edges}
        idle = [
            model.rules[i].action
            for i in range(len(model.rules))
            if i not in fired
        ]
        assert idle == [], f"rules never enabled: {idle}"

    def test_reachable_transitions_cover_all_machines(self, checked):
        model, _report, exploration = checked
        reachable = model.reachable_machine_transitions(exploration)
        for machine_name, driven in reachable.items():
            assert driven, f"{machine_name}: no transitions driven"

    def test_selfcheck_runs_the_model_pass(self, modules):
        timings = {}
        report = check_modules(modules, timings=timings)
        assert "model" in timings
        assert not [d for d in report if d.code.startswith("COS90")]


class TestCanaries:
    def test_deleted_heal_path_is_a_deadlock(self, modules):
        # heal_partition no longer resumes the quarantined query: the
        # QueryStatus table loses its DEGRADED -> ACTIVE heal row, so the
        # product strands owner=partition states with no enabled rule.
        report = _check_doctored(
            modules,
            "system/cosmos.py",
            '        ("heal_partition", "DEGRADED", "ACTIVE"),\n',
            "",
        )
        assert _codes(report) == ["COS902"]

    def test_deleted_degraded_exits_are_a_trap_and_a_deadlock(self, modules):
        # Both DEGRADED -> ACTIVE rows go (heal and migration resume):
        # the lifecycle pass sees a trap state and the model a deadlock.
        # The same edit makes heal_partition raise at run time
        # (tests/system/test_lifecycle_tables.py).
        doctored = _doctor(
            modules,
            "system/cosmos.py",
            '        ("resume_after_migration", "DEGRADED", "ACTIVE"),\n',
            "",
        )
        doctored = _doctor(
            doctored,
            "system/cosmos.py",
            '        ("heal_partition", "DEGRADED", "ACTIVE"),\n',
            "",
        )
        report = check_modules(doctored)
        assert any(d.code == "COS813" for d in report) and any(d.code == "COS902" for d in report)

    def test_stripped_cutover_certification_loses_tuples(self, modules):
        # _cutover_migration no longer aborts on handoff gaps: the
        # anchor fails, the RELEASED guard is dropped, and cutover
        # becomes reachable past a lossy channel.
        report = _check_doctored(
            modules,
            "sim/network.py",
            '"handoff-gaps"',
            '"handoff-skipped"',
        )
        assert "COS901" in _codes(report)
        (loss,) = [d for d in report if d.code == "COS901"]
        assert loss.severity is Severity.ERROR
        assert "certification anchor missing" in loss.message

    def test_orphaned_abort_exit_is_a_livelock(self, modules):
        # The migration can no longer abort: a draining migration whose
        # channel cannot be released spins on migrate_retry forever.
        report = _check_doctored(
            modules,
            "system/loadmgr.py",
            '        ("abort", "PREPARING", "ABORTED"),\n'
            '        ("abort", "DRAINING", "ABORTED"),\n'
            '        ("abort", "CUTOVER", "ABORTED"),\n',
            "",
        )
        assert _codes(report) == ["COS903"]
        spins = [d for d in report if d.code == "COS903"]
        assert any("migrate_retry" in d.message for d in spins)


class TestInvariants:
    def test_unresumed_query_violates_cos904(self, machines):
        # Synthetic defect: ``complete`` forgets to resume the group it
        # quarantined.  The query stays DEGRADED with owner=none — the
        # degraded-unowned invariant must catch it.
        model = build_product(machines)
        rules = []
        for rule in model.rules:
            if rule.action == "complete":
                rule = Rule(
                    rule.action,
                    rule.progress,
                    moves=tuple(
                        m for m in rule.moves if m.component != "query"
                    ),
                    guards=rule.guards,
                    sets=rule.sets,
                )
            rules.append(rule)
        doctored = ProductModel(
            components=model.components,
            env=model.env,
            rules=rules,
            invariants=model.invariants,
        )
        report, _exploration = check_model(doctored)
        assert "COS904" in _codes(report)
        assert any("degraded-unowned" in d.message for d in report)


class TestBoundsAndPartialModels:
    def test_depth_bound_truncates_and_mutes_liveness(self, machines, modules):
        model = build_product(machines, modules)
        report, exploration = check_model(model, depth=2)
        assert not exploration.exhausted
        assert exploration.max_depth == 2
        # Liveness verdicts are unsound on a truncated frontier: the
        # checker must stay silent rather than guess.
        assert not [d for d in report if d.code in ("COS902", "COS903")]

    def test_state_cap_truncates(self, machines, modules):
        model = build_product(machines, modules)
        exploration = explore(model, max_states=50)
        assert not exploration.exhausted
        assert len(exploration.states) == 50

    def test_partial_machine_set_drops_rules(self, machines):
        uplink_only = [m for m in machines if m.name == "uplink-receiver"]
        model = build_product(uplink_only)
        assert [c.name for c in model.components] == ["slot", "channel"]
        assert model.dropped
        dropped_actions = {action for action, _reason in model.dropped}
        assert "cutover" in dropped_actions
        report, exploration = check_model(model)
        assert exploration.exhausted
        # The channel's conditional release names the absent migration
        # component, so it is stripped; without drain rules the channel
        # never starts, and the slot protocol alone is clean.
        assert _codes(report) == []

    def test_anchors_assumed_intact_without_modules(self, machines):
        model = build_product(machines)
        assert model.uncertified == []
        (cutover,) = [r for r in model.rules if r.action == "cutover"]
        assert cutover.certified_guards


class TestRendering:
    def test_dot_output(self, checked):
        model, _report, exploration = checked
        dot = product_dot(model, exploration, max_states=40)
        assert dot.startswith("digraph product {")
        assert 's0 [label="initial", penwidth=2];' in dot
        assert "more states" in dot
        full = product_dot(model, exploration)
        assert "more states" not in full

    def test_summary_payload(self, checked):
        model, _report, exploration = checked
        summary = model_summary(model, exploration)
        assert summary["states"] == len(exploration.states)
        assert summary["exhausted"] is True
        assert summary["dropped_rules"] == []
        actions = [r["action"] for r in summary["rules"]]
        assert "cutover" in actions and "heal" in actions
        (cutover,) = [r for r in summary["rules"] if r["action"] == "cutover"]
        assert cutover["certified"] is True
