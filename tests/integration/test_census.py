"""The reachability census (tools/census.py) on a small fixture package,
and the checked-in ledger it gates ``src/repro`` with."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_census():
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("census", module)
    spec.loader.exec_module(module)
    return module


census = _load_census()

MODULE = '''\
class Thing:
    @property
    def size(self):
        return 1

    @staticmethod
    def make():
        return Thing()

    def __repr__(self):
        return "Thing()"


def used():
    return Thing.make().size


def planted():
    return 0


def ledgered():
    return 1
'''

MAIN = '''\
import pkg.mod

pkg.mod.used()
'''

#: re-execs itself the way bench/run.py does unless the hash seed is pinned
REEXEC = '''\
import os
import sys

if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)
import pkg.mod

pkg.mod.used()
'''


@pytest.fixture(scope="module")
def fixture(tmp_path_factory):
    """The fixture package, and what running ``main.py`` reached."""
    root = tmp_path_factory.mktemp("census")
    (root / "pkg").mkdir()
    (root / "pkg" / "__init__.py").write_text("")
    (root / "pkg" / "mod.py").write_text(MODULE)
    (root / "main.py").write_text(MAIN)
    (root / "reexec.py").write_text(REEXEC)
    out = root / "records"
    failed = census.run_missing(out, [
        ("main", [str(root / "main.py")]),
        ("reexec", [str(root / "reexec.py")]),
    ])
    assert failed == []
    return root, out


def reached(out, label):
    return set((out / f"{label}.txt").read_text().split())


def gate(fixture, ledger_text, label="main", cold=frozenset()):
    root, out = fixture
    defs = census.definitions(root / "pkg")
    return census.census(defs, reached(out, label), census.read_ledger(ledger_text), set(cold))


class TestFixturePackage:
    def test_a_planted_unreached_function_fails_the_gate(self, fixture):
        failures, counts = gate(fixture, "pkg/mod.py::ledgered failure-only\n")
        assert len(failures) == 1
        assert "pkg/mod.py" in failures[0] and ": planted is reached by no entry point" in failures[0]
        assert counts["ledgered"] == 1

    def test_ledgering_the_planted_function_passes(self, fixture):
        failures, counts = gate(
            fixture, "pkg/mod.py::ledgered failure-only\npkg/mod.py::planted operator-api\n"
        )
        assert failures == []
        assert counts == {"defs": 6, "reached": 3, "dunder": 1, "ledgered": 2}

    def test_a_ledger_entry_that_is_now_reached_is_stale(self, fixture):
        failures, __ = gate(
            fixture,
            "pkg/mod.py::ledgered failure-only\npkg/mod.py::planted ablation\n"
            "pkg/mod.py::used failure-only\n",
        )
        assert failures == ["census-baseline.txt:3: pkg/mod.py::used: stale, reached now: used"]

    def test_a_class_or_module_entry_is_stale_once_any_def_runs(self, fixture):
        for entry in ("pkg/mod.py", "pkg/mod.py::Thing"):
            failures, __ = gate(fixture, f"{entry} ablation\n")
            assert any("stale" in failure for failure in failures), entry

    def test_property_and_staticmethod_match_their_first_decorator_line(self, fixture):
        root, out = fixture
        defs = {d.qualname: d for d in census.definitions(root / "pkg")}
        assert (defs["Thing.size"].line, defs["Thing.make"].line) == (2, 6)
        assert {defs["Thing.size"].key, defs["Thing.make"].key} <= reached(out, "main")

    def test_dunders_are_exempt_and_counted(self, fixture):
        root, out = fixture
        defs = {d.qualname: d for d in census.definitions(root / "pkg")}
        assert defs["Thing.__repr__"].dunder and defs["Thing.__repr__"].key not in reached(out, "main")
        __, counts = gate(fixture, "pkg/mod.py::ledgered failure-only\n")
        assert counts["dunder"] == 1

    def test_a_run_that_re_execs_itself_is_still_counted(self, fixture):
        __, out = fixture
        assert reached(out, "reexec") & reached(out, "main") >= {
            d.key for d in census.definitions(fixture[0] / "pkg")
            if d.qualname in ("used", "Thing.size", "Thing.make")
        }

    def test_an_entry_naming_no_def_fails(self, fixture):
        failures, __ = gate(
            fixture, "pkg/mod.py::ledgered failure-only\npkg/mod.py::planted query-class\n"
            "pkg/mod.py::gone query-class\n",
        )
        assert failures == ["census-baseline.txt:3: pkg/mod.py::gone: names no def under src/repro"]

    @pytest.mark.parametrize("line, message", [
        ("pkg/mod.py::planted unused", "is not one of"),
        ("pkg/mod.py::planted cold-path", "a cold-path entry, and only one, names a transition"),
        ("pkg/mod.py::planted failure-only abort A->B", "a cold-path entry, and only one"),
        ("pkg/mod.py::planted cold-path abort A->B", "is not in modelcov-baseline.txt"),
    ])
    def test_a_reason_outside_the_closed_list_fails(self, fixture, line, message):
        failures, __ = gate(fixture, f"pkg/mod.py::ledgered failure-only\n{line}\n",
                            cold={"abort X->Y"})
        assert len(failures) == 1 and message in failures[0]

    def test_a_module_or_class_entry_states_how_many_defs_it_covers(self, fixture):
        root, __ = fixture
        defs = census.definitions(root / "pkg")
        for ledger, failure in [
            ("pkg/mod.py ablation defs=5\n", None),
            ("pkg/mod.py ablation\n", "covers 5 defs: state how many, defs=5"),
            # written before ``ledgered`` arrived: the newcomer shows
            ("pkg/mod.py ablation defs=4\n", "covers 5 defs, not defs=4"),
            ("pkg/mod.py::Thing ablation defs=2\npkg/mod.py::used ablation\n"
             "pkg/mod.py::planted ablation\npkg/mod.py::ledgered ablation\n", None),
            ("pkg/mod.py::Thing ablation\npkg/mod.py::used ablation\n"
             "pkg/mod.py::planted ablation\npkg/mod.py::ledgered ablation\n",
             "covers 2 defs: state how many"),
        ]:
            failures, __ = census.census(defs, set(), census.read_ledger(ledger), set())
            if failure is None:
                assert failures == [], ledger
            else:
                assert len(failures) == 1 and failure in failures[0], ledger

    def test_a_count_reads_apart_from_a_transition(self):
        entry, = census.read_ledger("a.py::f  cold-path  abort A->B  defs=3  # why\n")
        assert (entry.reason, entry.detail, entry.size) == ("cold-path", "abort A->B", 3)

    def test_a_ledger_over_its_cap_fails(self, fixture):
        ledger = "pkg/mod.py::ledgered failure-only\npkg/mod.py::planted failure-only\n"
        ledger += "pkg/mod.py::planted failure-only\n" * (census.LEDGER_CAP - 1)
        failures, __ = gate(fixture, ledger)
        assert failures == [f"census-baseline.txt: {census.LEDGER_CAP + 1} entries, "
                            f"over the cap of {census.LEDGER_CAP}"]

    def test_a_cold_path_entry_names_a_baselined_transition(self, fixture):
        failures, __ = gate(
            fixture, "pkg/mod.py::ledgered failure-only\npkg/mod.py::planted cold-path abort A->B\n",
            cold={"abort A->B"},
        )
        assert failures == []


class TestDefinitions:
    def test_nested_defs_are_named_by_their_outer_def(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "nest.py").write_text(textwrap.dedent('''\
            def outer():
                def inner():
                    return 1
                return inner()


            class Box:
                async def fill(self):
                    return None
        '''))
        found = [(d.path, d.line, d.qualname) for d in census.definitions(tmp_path / "pkg")]
        assert found == [("pkg/nest.py", 1, "outer"), ("pkg/nest.py", 2, "outer.inner"),
                         ("pkg/nest.py", 8, "Box.fill")]
        # an entry for ``outer`` covers ``inner`` too, so it states the count
        ledger = census.read_ledger("pkg/nest.py::outer ablation\npkg/nest.py::Box ablation defs=1\n")
        failures, __ = census.census(census.definitions(tmp_path / "pkg"), set(), ledger, set())
        assert len(failures) == 1 and "pkg/nest.py::outer: covers 2 defs" in failures[0]

    def test_transitions_are_read_from_the_modelcov_baseline_comments(self):
        text = textwrap.dedent("""\
            # uplink-receiver (3 cold transitions):
            #   abandon GAP->ABANDONED        needs the NACK budget
            #   retransmit ABANDONED->BUFFERED  late retransmit
            repro/system/reliability.py COS905 3
        """)
        assert census.transitions(text) == {"abandon GAP->ABANDONED",
                                            "retransmit ABANDONED->BUFFERED"}


class TestRecord:
    def test_a_failing_entry_point_is_reported_and_a_recorded_one_skipped(self, tmp_path):
        fails = tmp_path / "fails.py"
        fails.write_text("import sys\nsys.exit('no such workload')\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "done.txt").write_text("")
        failed = census.run_missing(out, [("fails", [str(fails)]), ("done", [str(fails)])])
        assert len(failed) == 1 and failed[0].startswith("fails exited with 1: ")
        assert "no such workload" in failed[0]
        assert (out / "done.txt").read_text() == ""

    def test_a_module_entry_point_is_recorded(self, tmp_path):
        (tmp_path / "tool").mkdir()
        (tmp_path / "tool" / "__init__.py").write_text("")
        (tmp_path / "tool" / "__main__.py").write_text(
            "def run():\n    print('ran')\n\n\nrun()\n")
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "census.py"), "record",
             str(tmp_path / "out"), "module", "--", "-m", "tool"],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path)),
            capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (0, "ran\n"), done.stderr
        run, = [d for d in census.definitions(tmp_path / "tool") if d.qualname == "run"]
        assert run.key in reached(tmp_path / "out", "module")

    def test_the_interpreters_own_library_is_left_out(self, tmp_path):
        script = tmp_path / "uses_json.py"
        script.write_text("import json\n\n\ndef dump():\n    return json.dumps([1])\n\n\n"
                          "dump()\n")
        assert census.run_missing(tmp_path / "out", [("json", [str(script)])]) == []
        lines = reached(tmp_path / "out", "json")
        # the script's own code is recorded, json's (under sys.prefix) is not
        assert f"{os.path.realpath(script)}:4" in lines
        assert all(line.startswith(os.path.realpath(tmp_path)) for line in lines)

    def test_a_malformed_command_line_is_refused(self):
        for argv in (["record", "out", "label", "script.py"], ["--records"], ["bogus"]):
            with pytest.raises(SystemExit) as refused:
                census.main(argv)
            assert str(refused.value).startswith("usage: census.py"), argv

    def test_stdout_and_exit_status_are_the_commands_own(self, tmp_path):
        script = tmp_path / "say.py"
        script.write_text("print('hello')\nraise SystemExit(3)\n")
        done = subprocess.run(
            [sys.executable, str(ROOT / "tools" / "census.py"), "record",
             str(tmp_path / "out"), "say", "--", str(script)],
            capture_output=True, text=True,
        )
        assert (done.returncode, done.stdout) == (3, "hello\n")
        assert (tmp_path / "out" / "say.txt").is_file()


LEDGER = census.read_ledger(census.LEDGER.read_text())
DEFS = census.definitions(census.SRC / "repro")
COLD = census.transitions(census.MODELCOV.read_text())


def test_the_ledger_stays_under_its_cap():
    assert 0 < len(LEDGER) <= census.LEDGER_CAP


def test_every_ledger_entry_passes_the_census_rules():
    """Reason, transition, the defs it names and their count; whether
    the entry points reach them is the gate's own run in tools/ci.sh."""
    failures, __ = census.census(DEFS, set(), LEDGER, COLD)
    assert [f for f in failures if "reached by no entry point" not in f] == []
