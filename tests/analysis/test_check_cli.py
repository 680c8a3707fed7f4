"""The ``repro check`` CLI: --self, --json, --code, pragma/baseline paths."""

import json

import pytest

import repro.analysis
from repro.analysis.selfcheck import check_package, default_package_dir
from repro.analysis.source import Baseline
from repro.cli import run_check


class TestWorkloadMode:
    def test_default_clean_exit(self, capsys):
        assert run_check([]) == 0
        assert "workload" in capsys.readouterr().out

    def test_json_output(self, capsys):
        assert run_check(["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        for diag in payload["diagnostics"]:
            assert set(diag) == {"file", "line", "code", "severity", "message"}

    def test_bad_code_spec_exits_2(self, capsys):
        assert run_check(["--code", "COS999"]) == 2
        assert "COS999" in capsys.readouterr().err


class TestSelfModeOnPackage:
    def test_self_clean_exit(self, capsys):
        assert run_check(["--self"]) == 0
        assert "0 error(s), 0 warning(s)" in capsys.readouterr().out

    def test_self_strict_still_clean(self):
        assert run_check(["--self", "--strict", "--no-baseline"]) == 0

    def test_self_json_payload_shape(self, capsys):
        assert run_check(["--self", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "diagnostics", "errors", "warnings", "forgiven", "analyzer"
        }
        analyzer = payload["analyzer"]
        names = [entry["name"] for entry in analyzer["passes"]]
        assert names == ["load", "purity", "style", "lifecycle", "model"]
        assert all(entry["seconds"] >= 0 for entry in analyzer["passes"])
        assert analyzer["wall_seconds"] == pytest.approx(
            sum(entry["seconds"] for entry in analyzer["passes"])
        )

    def test_code_filter_validated(self, capsys):
        assert run_check(["--self", "--code", "bogus"]) == 2
        assert "bad code spec" in capsys.readouterr().err

    def test_write_and_use_baseline(self, tmp_path, capsys):
        path = tmp_path / "baseline.txt"
        args = ["--self", "--write-baseline", "--baseline", str(path)]
        assert run_check(args) == 0
        assert path.is_file()
        Baseline.load(path)  # parses
        assert run_check(["--self", "--baseline", str(path)]) == 0


@pytest.fixture
def scratch_package(tmp_path, monkeypatch):
    """Point ``repro check --self`` at a throwaway package tree."""
    pkg = tmp_path / "scratchpkg"
    pkg.mkdir()
    monkeypatch.setattr(repro.analysis, "default_package_dir", lambda: pkg)
    monkeypatch.setattr(
        repro.analysis,
        "default_baseline_path",
        lambda package=None: tmp_path / "cos-baseline.txt",
    )
    return pkg


class TestSelfModeExitCodes:
    def test_warning_is_0_plain_1_strict(self, scratch_package, capsys):
        # COS703 (missing future annotations) is warning-severity.
        (scratch_package / "m.py").write_text("x = 1\n")
        assert run_check(["--self"]) == 0
        assert run_check(["--self", "--strict"]) == 1
        assert "COS703" in capsys.readouterr().out

    def test_error_is_2(self, scratch_package, capsys):
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(["--self"]) == 2
        out = capsys.readouterr().out
        assert "COS502" in out and "scratchpkg/m.py:3" in out

    def test_pragma_suppresses_via_cli(self, scratch_package):
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
            "import time\n"
            "t = time.time()  # cos: disable=COS502 (scratch)\n"
        )
        assert run_check(["--self", "--strict"]) == 0

    def test_baseline_path_via_cli(self, scratch_package, tmp_path, capsys):
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(["--self", "--write-baseline"]) == 0
        assert (tmp_path / "cos-baseline.txt").is_file()
        capsys.readouterr()
        assert run_check(["--self", "--strict"]) == 0
        assert "1 baselined finding(s) suppressed" in capsys.readouterr().out
        # A *new* finding is not forgiven by the old baseline.
        (scratch_package / "n.py").write_text(
            "from __future__ import annotations\n"
            "import os\n"
            "x = os.urandom(4)\n"
        )
        assert run_check(["--self", "--strict"]) == 2

    def test_no_baseline_flag_ignores_ledger(self, scratch_package):
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(["--self", "--write-baseline"]) == 0
        assert run_check(["--self"]) == 0
        assert run_check(["--self", "--no-baseline"]) == 2

    def test_code_filter_restricts_output(self, scratch_package, capsys):
        (scratch_package / "m.py").write_text(
            "import time\n"
            "t = time.time()\n"
        )
        # Both COS502 and COS703 present; filter to the style family.
        assert run_check(["--self", "--code", "COS7xx", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "COS703" in out and "COS502" not in out

    def test_code_accepts_comma_list(self, scratch_package, capsys):
        (scratch_package / "m.py").write_text(
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(["--self", "--code", "COS5xx,COS7xx"]) == 2
        out = capsys.readouterr().out
        assert "COS502" in out and "COS703" in out

    def test_code_flag_is_repeatable(self, scratch_package, capsys):
        (scratch_package / "m.py").write_text(
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(
            ["--self", "--code", "COS5xx", "--code", "COS7xx"]
        ) == 2
        out = capsys.readouterr().out
        assert "COS502" in out and "COS703" in out
        # A single spec still behaves as before.
        capsys.readouterr()
        assert run_check(["--self", "--code", "COS5xx"]) == 2
        out = capsys.readouterr().out
        assert "COS502" in out and "COS703" not in out

    def test_json_carries_findings(self, scratch_package, capsys):
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(["--self", "--json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 1
        (diag,) = payload["diagnostics"]
        assert diag["file"] == "scratchpkg/m.py"
        assert diag["line"] == 3
        assert diag["code"] == "COS502"
        assert diag["severity"] == "error"
        assert "clock" in diag["message"]


class TestBaselineSemantics:
    def test_baseline_forgives_exact_count(self):
        report, _ = check_package(
            default_package_dir(), respect_pragmas=False
        )
        assert not report.is_clean
        diag = report.diagnostics[0]
        baseline = Baseline({(diag.source, diag.code): 1})
        kept, forgiven = baseline.filter(report)
        assert forgiven == 1 and len(kept) == len(report) - 1

    def test_audit_reports_stale_remainder(self):
        report, _ = check_package(
            default_package_dir(), respect_pragmas=False
        )
        diag = report.diagnostics[0]
        baseline = Baseline({(diag.source, diag.code): 3, ("gone.py", "COS701"): 1})
        kept, forgiven, stale = baseline.audit(report)
        count = sum(
            1 for d in report
            if (d.source, d.code) == (diag.source, diag.code)
        )
        leftover = 3 - min(3, count)
        expected = [("gone.py", "COS701", 1)]
        if leftover:
            expected.insert(0, (diag.source, diag.code, leftover))
        assert sorted(stale) == sorted(expected)
        assert forgiven == min(3, count)
        assert len(kept) == len(report) - forgiven


class TestStaleBaseline:
    def test_stale_entry_warns_plain_fails_strict(self, scratch_package, capsys):
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(["--self", "--write-baseline"]) == 0
        capsys.readouterr()
        # Fix the finding; its ledger entry is now stale.
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
        )
        assert run_check(["--self"]) == 0
        out = capsys.readouterr().out
        assert "COS704" in out and "scratchpkg/m.py" in out
        assert run_check(["--self", "--strict"]) == 1

    def test_matching_entry_is_not_stale(self, scratch_package, capsys):
        (scratch_package / "m.py").write_text(
            "from __future__ import annotations\n"
            "import time\n"
            "t = time.time()\n"
        )
        assert run_check(["--self", "--write-baseline"]) == 0
        capsys.readouterr()
        assert run_check(["--self", "--strict"]) == 0
        assert "COS704" not in capsys.readouterr().out
