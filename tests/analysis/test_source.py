"""Source-lint infrastructure: modules, code specs, pragmas, baseline."""

import pytest

from repro.analysis.diagnostics import Report
from repro.analysis.source import (
    Baseline,
    PragmaIndex,
    SourceError,
    apply_pragmas,
    load_package,
    module_from_text,
    parse_code_spec,
    spec_matches,
)


class TestModules:
    def test_module_from_text(self):
        module = module_from_text("x = 1\ny = 2\n", "pkg/m.py")
        assert module.rel == "pkg/m.py"
        assert module.line(2) == "y = 2"
        assert module.line(99) == ""

    def test_module_from_text_rejects_syntax_errors(self):
        with pytest.raises(SourceError):
            module_from_text("def broken(:\n")

    def test_load_package_sorted_and_relative(self, tmp_path):
        pkg = tmp_path / "pkg"
        (pkg / "sub").mkdir(parents=True)
        (pkg / "b.py").write_text("b = 1\n")
        (pkg / "a.py").write_text("a = 1\n")
        (pkg / "sub" / "c.py").write_text("c = 1\n")
        modules = load_package(pkg)
        assert [m.rel for m in modules] == ["pkg/a.py", "pkg/b.py", "pkg/sub/c.py"]

    def test_load_package_missing_dir(self, tmp_path):
        with pytest.raises(SourceError):
            load_package(tmp_path / "nope")


class TestCodeSpecs:
    def test_exact_family_and_all(self):
        assert parse_code_spec("COS503") == ["COS503"]
        assert parse_code_spec("COS5xx,COS701") == ["COS5xx", "COS701"]
        assert parse_code_spec("all") == ["all"]

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(SourceError):
            parse_code_spec("COS999")
        with pytest.raises(SourceError):
            parse_code_spec("L001")
        with pytest.raises(SourceError):
            parse_code_spec("")

    def test_spec_matches(self):
        assert spec_matches(["COS5xx"], "COS503")
        assert not spec_matches(["COS5xx"], "COS811")
        assert spec_matches(["all"], "COS811")
        assert spec_matches(["COS701"], "COS701")
        assert not spec_matches([], "COS701")


def _report(rel, *entries):
    report = Report()
    for code, line in entries:
        report.add(code, "m", rel, line)
    return report


class TestPragmas:
    def test_line_pragma_on_flagged_line(self):
        module = module_from_text(
            "import time\n"
            "t = time.time()  # cos: disable=COS502 (bench only)\n",
            "pkg/m.py",
        )
        report = _report("pkg/m.py", ("COS502", 2))
        assert apply_pragmas(report, module).is_clean

    def test_pragma_line_above(self):
        module = module_from_text(
            "import time\n"
            "# cos: disable=COS502\n"
            "t = time.time()\n",
            "pkg/m.py",
        )
        report = _report("pkg/m.py", ("COS502", 3))
        assert apply_pragmas(report, module).is_clean

    def test_pragma_two_lines_above_does_not_reach(self):
        module = module_from_text(
            "# cos: disable=COS502\n"
            "import time\n"
            "t = time.time()\n",
            "pkg/m.py",
        )
        report = _report("pkg/m.py", ("COS502", 3))
        assert len(apply_pragmas(report, module)) == 1

    def test_family_wildcard_and_file_scope(self):
        module = module_from_text(
            "# cos: disable-file=COS5xx\n"
            "import time\n"
            "t = time.time()\n",
            "pkg/m.py",
        )
        report = _report("pkg/m.py", ("COS502", 3), ("COS701", 3))
        kept = apply_pragmas(report, module)
        assert kept.codes() == ["COS701"]

    def test_pragma_only_suppresses_named_codes(self):
        module = module_from_text(
            "x = 1  # cos: disable=COS503\n", "pkg/m.py"
        )
        report = _report("pkg/m.py", ("COS502", 1))
        assert len(apply_pragmas(report, module)) == 1

    def test_index_handles_missing_position(self):
        module = module_from_text("x = 1\n", "pkg/m.py")
        index = PragmaIndex(module)
        assert not index.suppresses(None, "COS502")


class TestBaseline:
    def test_roundtrip_and_budget(self, tmp_path):
        report = _report(
            "repro/a.py", ("COS503", 10), ("COS503", 20), ("COS701", 5)
        )
        baseline = Baseline.from_report(report)
        path = tmp_path / "baseline.txt"
        path.write_text(baseline.dump())
        loaded = Baseline.load(path)
        assert len(loaded) == 3
        kept, forgiven = loaded.filter(report)
        assert kept.is_clean and forgiven == 3

    def test_new_findings_exceed_budget(self):
        baseline = Baseline({("repro/a.py", "COS503"): 1})
        report = _report("repro/a.py", ("COS503", 10), ("COS503", 20))
        kept, forgiven = baseline.filter(report)
        assert forgiven == 1
        assert len(kept) == 1 and kept.codes() == ["COS503"]

    def test_line_numbers_do_not_matter(self):
        baseline = Baseline({("repro/a.py", "COS503"): 1})
        kept, _ = baseline.filter(_report("repro/a.py", ("COS503", 999)))
        assert kept.is_clean

    def test_other_files_not_forgiven(self):
        baseline = Baseline({("repro/a.py", "COS503"): 5})
        kept, forgiven = baseline.filter(_report("repro/b.py", ("COS503", 1)))
        assert forgiven == 0 and len(kept) == 1

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("repro/a.py NOTACODE 1\n")
        with pytest.raises(SourceError):
            Baseline.load(path)
        path.write_text("repro/a.py COS503 0\n")
        with pytest.raises(SourceError):
            Baseline.load(path)

    def test_load_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "baseline.txt"
        path.write_text("# header\n\nrepro/a.py COS503 2\n")
        assert len(Baseline.load(path)) == 2
