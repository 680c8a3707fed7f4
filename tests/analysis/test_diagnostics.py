"""The diagnostic registry, rendering and exit-code policy."""

import pytest

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticError,
    Report,
    Severity,
)


class TestDiagnostic:
    def test_unknown_code_rejected(self):
        with pytest.raises(DiagnosticError):
            Diagnostic("COS999", "nope")

    def test_severity_comes_from_registry(self):
        assert Diagnostic("COS101", "x").severity is Severity.ERROR
        assert Diagnostic("COS104", "x").severity is Severity.WARNING

    def test_render_with_pos(self):
        diag = Diagnostic("COS102", "no such attribute", "q1", 17)
        assert diag.render() == "q1:17: COS102 no such attribute"

    def test_render_without_pos(self):
        diag = Diagnostic("COS201", "unsat", "<profile>")
        assert diag.render() == "<profile>: COS201 unsat"

    def test_every_code_family_is_registered(self):
        families = {code[:4] for code in CODES}
        assert families == {
            "COS1", "COS2", "COS5", "COS7", "COS8", "COS9",
        }


class TestReport:
    def test_exit_code_clean(self):
        assert Report().exit_code() == 0
        assert Report().exit_code(strict=True) == 0

    def test_exit_code_warnings(self):
        report = Report()
        report.add("COS104", "unused")
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_exit_code_errors_dominate(self):
        report = Report()
        report.add("COS104", "unused")
        report.add("COS101", "unknown stream")
        assert report.exit_code() == 2
        assert report.exit_code(strict=True) == 2

    def test_extend_and_introspection(self):
        a = Report()
        a.add("COS201", "unsat", "q1")
        b = Report()
        b.add("COS202", "vacuous", "q2")
        a.extend(b)
        assert [d.code for d in a] == ["COS201", "COS202"]
        assert any(d.code == "COS202" for d in a) and not any(d.code == "COS101" for d in a)
        assert len(a) == 2 and not a.is_clean
        assert "1 error(s), 1 warning(s)" in a.render()
