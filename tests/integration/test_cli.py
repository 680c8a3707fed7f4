"""The command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_table1(self, capsys):
        assert main(["table1", "--items", "60"]) == 0
        out = capsys.readouterr().out
        assert "split reproduces direct execution: True" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--items", "60"]) == 0
        out = capsys.readouterr().out
        assert "results identical: True" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Query layer" in out
        assert "delivered" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestChaosCli:
    def test_smoke_sweep_passes(self, capsys):
        assert main(["chaos", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos totals:" in out

    def test_recovery_sweep_reports_convergence(self, capsys, tmp_path):
        artifact = tmp_path / "rec.json"
        assert main(
            ["chaos", "--seeds", "2", "--recovery", "--json", str(artifact)]
        ) == 0
        out = capsys.readouterr().out
        assert "recovery (converged t=" in out
        assert "retransmits=" in out
        import json

        payload = json.loads(artifact.read_text())
        assert payload["ok"] is True
        assert payload["seeds"][0]["reliability"]["retransmits"] >= 0
        assert "convergence_time" in payload["seeds"][0]

    def test_sweep_records_the_executors_transition_counts(self, capsys, tmp_path):
        artifact = tmp_path / "sweep.json"
        assert main(
            ["chaos", "--seeds", "2", "--recovery", "--json", str(artifact)]
        ) == 0
        import json

        payload = json.loads(artifact.read_text())
        for record in payload["seeds"]:
            transitions = record["transitions"]
            assert "uplink-receiver" in transitions
            # the internal steps are counted too, exactly
            assert transitions["failure-detector"]["heartbeat MONITORED->MONITORED"] > 0
            assert transitions["uplink-receiver"]["release BUFFERED->RELEASED"] == (
                sum(count for key, count in transitions["uplink-receiver"].items()
                    if key.startswith(("arrive ", "retransmit ")))
            )
            for bucket in transitions.values():
                for key, count in bucket.items():
                    label, _, arrow = key.partition(" ")
                    assert label and "->" in arrow
                    assert count >= 1

    def test_sweep_exits_nonzero_when_any_seed_fails(
        self, capsys, monkeypatch
    ):
        # Regression gate: one bad seed in a sweep must fail the whole
        # invocation (CI keys off the exit code).
        import repro.sim as sim

        real = sim.run_schedule

        def rigged(config, events):
            report = real(config, events)
            if config.seed == 1:
                report.violations.append("rigged: injected failure")
            return report

        monkeypatch.setattr(sim, "run_schedule", rigged)
        assert main(["chaos", "--seeds", "2", "--no-shrink"]) == 1
        out = capsys.readouterr().out
        assert "violations=1" in out

    def test_a_seed_that_raises_fails_alone(self, capsys, monkeypatch, tmp_path):
        # A defect that raises inside one seed's run is that seed's
        # failure: the sweep reports it, runs the other seeds, writes
        # the artefact and exits 1 without shrinking the raising seed.
        import json

        import repro.sim as sim

        real = sim.run_schedule

        def rigged(config, events):
            if config.seed == 1:
                raise RuntimeError("rigged: seed 1 blew up")
            return real(config, events)

        def no_shrink(config, events):
            raise AssertionError("a raising seed must not be shrunk")

        monkeypatch.setattr(sim, "run_schedule", rigged)
        monkeypatch.setattr(sim, "shrink_failing_schedule", no_shrink)
        artifact = tmp_path / "sweep.json"
        assert main(["chaos", "--seeds", "3", "--json", str(artifact)]) == 1
        out = capsys.readouterr().out
        seed_lines = [line for line in out.splitlines() if line.startswith("chaos seed=")]
        assert [line.split()[1] for line in seed_lines] == ["seed=0", "seed=1", "seed=2"]
        assert seed_lines[1] == "chaos seed=1 ERROR RuntimeError: rigged: seed 1 blew up"
        payload = json.loads(artifact.read_text())
        assert payload["ok"] is False
        assert [r["ok"] for r in payload["seeds"]] == [True, False, True]
        assert payload["seeds"][1] == {
            "seed": 1,
            "ok": False,
            "error": "RuntimeError: rigged: seed 1 blew up",
        }
        assert payload["totals"]["violations"] == 0


class TestModelCli:
    def test_text_mode_clean(self, capsys):
        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "exhausted" in out
        assert "0 error(s), 0 warning(s)" in out

    def test_json_payload_shape(self, capsys):
        assert main(["model", "--json"]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        model = payload["model"]
        assert model["exhausted"] is True
        assert model["dropped_rules"] == []
        assert "uncertified" not in model
        assert {c["name"] for c in model["components"]} == {
            "slot", "detector", "node", "query", "migration"
        }

    def test_an_unreadable_coverage_artifact_exits_2(self, capsys, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["model", "--coverage", str(broken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro model: ") and "broken.json" in err

    def test_dot_mode(self, capsys):
        assert main(["model", "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph product {")

    def test_depth_bound(self, capsys):
        assert main(["model", "--depth", "2"]) == 0
        assert "TRUNCATED" in capsys.readouterr().out

    def test_coverage_over_fresh_artifact(self, capsys, tmp_path):
        artifact = tmp_path / "sweep.json"
        assert main(
            [
                "chaos",
                "--seeds",
                "2",
                "--recovery",
                "--migrate",
                "--json",
                str(artifact),
            ]
        ) == 0
        capsys.readouterr()
        # Two seeds cannot exercise everything: without the baseline
        # the cold remainder must surface as COS905 warnings (exit 0,
        # exit 1 under --strict).
        assert main(
            ["model", "--coverage", str(artifact), "--no-baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "COS905" in out
        assert main(
            [
                "model",
                "--coverage",
                str(artifact),
                "--no-baseline",
                "--strict",
            ]
        ) == 1
        capsys.readouterr()

    def test_coverage_with_baseline_ledger(self, capsys, tmp_path):
        artifact = tmp_path / "sweep.json"
        assert main(
            [
                "chaos",
                "--seeds",
                "2",
                "--recovery",
                "--json",
                str(artifact),
            ]
        ) == 0
        capsys.readouterr()
        assert main(
            ["model", "--coverage", str(artifact), "--no-baseline", "--json"]
        ) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        cold = [
            d for d in payload["diagnostics"] if d["code"] == "COS905"
        ]
        assert cold
        # Ledger every cold transition: the strict run must go green
        # and the payload must account for the forgiven findings.
        ledger = tmp_path / "baseline.txt"
        lines = {}
        for diag in cold:
            lines[diag["file"]] = lines.get(diag["file"], 0) + 1
        ledger.write_text(
            "\n".join(
                f"{rel} COS905 {count}" for rel, count in sorted(lines.items())
            )
            + "\n"
        )
        assert main(
            [
                "model",
                "--coverage",
                str(artifact),
                "--baseline",
                str(ledger),
                "--strict",
                "--json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["warnings"] == 0
        assert payload["forgiven"] == len(cold)
        assert payload["coverage"]["coverage_gated"] == 1.0
