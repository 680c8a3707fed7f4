"""The ``repro flow`` CLI: the extracted lifecycle machines as JSON or DOT."""

import json

import pytest

from repro.analysis.lifecycle import StateMachine, Transition, extract_lifecycle
from repro.analysis.selfcheck import default_package_dir
from repro.analysis.source import load_package
from repro.cli import _machine_dot, main


@pytest.fixture(scope="module")
def machines():
    return extract_lifecycle(load_package(default_package_dir()))


def _flow(capsys, *argv):
    assert main(["flow", *argv]) == 0
    return capsys.readouterr().out


def _toy_machine():
    return StateMachine(
        name="toy",
        states=["IDLE", "BUSY", "DONE"],
        initial=["IDLE"],
        terminal=["DONE"],
        transitions=[
            Transition("start", "IDLE", "BUSY"),
            Transition("finish", "BUSY", "DONE"),
        ],
    )


class TestJson:
    def test_default_output_holds_only_the_machines(self, capsys):
        payload = json.loads(_flow(capsys))
        assert list(payload) == ["machines"]

    def test_json_flag_prints_the_default_output(self, capsys):
        assert _flow(capsys, "--json") == _flow(capsys)

    def test_payload_is_the_extracted_machines(self, capsys, machines):
        payload = json.loads(_flow(capsys))
        assert payload["machines"] == [m.to_dict() for m in machines]

    def test_machines_are_listed_by_name(self, capsys):
        names = [m["name"] for m in json.loads(_flow(capsys))["machines"]]
        assert names == sorted(names)
        assert {
            "QueryStatus",
            "uplink-receiver",
            "failure-detector",
            "node-supervision",
        } <= set(names)

    def test_every_transition_names_declared_states(self, capsys):
        for machine in json.loads(_flow(capsys))["machines"]:
            assert set(machine) == {
                "name", "states", "initial", "terminal", "transitions"
            }
            states = set(machine["states"])
            assert set(machine["initial"]) <= states, machine["name"]
            assert set(machine["terminal"]) <= states, machine["name"]
            for t in machine["transitions"]:
                assert set(t) == {"label", "source", "target"}
                assert {t["source"], t["target"]} <= states, machine["name"]


class TestDot:
    def test_one_digraph_per_machine(self, capsys, machines):
        out = _flow(capsys, "--dot")
        blocks = out.rstrip("\n").split("\n\n")
        assert len(blocks) == len(machines)
        for block, machine in zip(blocks, machines):
            assert block.startswith(f'digraph "{machine.name}" {{')
            assert block.endswith("}")

    def test_dot_is_the_rendering_of_each_machine(self, capsys, machines):
        out = _flow(capsys, "--dot")
        assert out == "\n\n".join(_machine_dot(m) for m in machines) + "\n"

    def test_initial_states_bold_and_terminal_states_doubled(self):
        dot = _machine_dot(_toy_machine())
        assert '  "IDLE" [style=bold];' in dot
        assert '  "BUSY";' in dot
        assert '  "DONE" [peripheries=2];' in dot

    def test_a_state_both_initial_and_terminal_gets_both_marks(self):
        machine = _toy_machine()
        machine.terminal.append("IDLE")
        assert '  "IDLE" [style=bold, peripheries=2];' in _machine_dot(machine)

    def test_every_transition_is_a_labelled_edge(self):
        lines = _machine_dot(_toy_machine()).splitlines()
        edges = [line for line in lines if "->" in line]
        assert edges == [
            '  "IDLE" -> "BUSY" [label="start"];',
            '  "BUSY" -> "DONE" [label="finish"];',
        ]


class TestUsage:
    def test_json_and_dot_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--json", "--dot"])
        assert exc.value.code == 2
        assert "not allowed" in capsys.readouterr().err
