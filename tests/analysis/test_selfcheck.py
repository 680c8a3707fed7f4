"""The unified source-lint driver, plus the mutation canaries.

The canaries inject a known hazard into a *copy* of a real package
module and demand the analyzer flags it with the right code, while the
pristine copy stays clean — an analyzer that cannot fail is not
checking anything.
"""

from repro.analysis.selfcheck import (
    check_package,
    default_baseline_path,
    default_package_dir,
)
from repro.analysis.source import Baseline, load_source
from tests.analysis.canary import check_source_module, module_from_text


def _load(rel):
    path = default_package_dir() / rel
    return load_source(path, f"repro/{rel}")


class TestPackageSelfCheck:
    def test_package_is_clean_after_pragmas(self):
        report, _ = check_package(default_package_dir())
        assert report.is_clean, report.render()

    def test_checked_in_baseline_parses(self):
        path = default_baseline_path()
        assert path.is_file()
        Baseline.load(path)  # must not raise

    def test_code_filter_restricts_families(self):
        report, _ = check_package(
            default_package_dir(), codes=["COS7xx"], respect_pragmas=False
        )
        assert all(code.startswith("COS7") for code in [d.code for d in report])

    def test_pragmas_are_load_bearing(self):
        # At least one finding in the package is pragma-suppressed; with
        # pragmas off it must reappear (proves suppression is real, not
        # that the checks never fire on this codebase).
        with_pragmas, _ = check_package(default_package_dir())
        without, _ = check_package(
            default_package_dir(), respect_pragmas=False
        )
        assert len(without) > len(with_pragmas)

    def test_baseline_absorbs_findings(self):
        without, _ = check_package(
            default_package_dir(), respect_pragmas=False
        )
        assert not without.is_clean
        baseline = Baseline.from_report(without)
        report, forgiven = check_package(
            default_package_dir(), baseline=baseline, respect_pragmas=False
        )
        assert report.is_clean and forgiven == len(without)


class TestMutationCanaries:
    def test_pristine_trace_module_is_clean(self):
        module = _load("sim/trace.py")
        assert check_source_module(module).is_clean

    def test_unsorted_set_iteration_in_trace_path(self):
        # Canary (a): emit trace lines in set order.
        pristine = _load("sim/trace.py")
        mutated = pristine.text.replace(
            "    def render(self) -> str:\n"
            '        return "\\n".join(self._lines)\n',
            "    def render(self) -> str:\n"
            "        for line in set(self._lines):\n"
            "            self.emit(line)\n"
            '        return "\\n".join(self._lines)\n',
        )
        assert mutated != pristine.text, "canary patch did not apply"
        module = module_from_text(mutated, pristine.rel)
        report = check_source_module(module)
        assert [d.code for d in report] == ["COS503"]

    def test_wall_clock_in_sim_module(self):
        # Canary (b): timestamp trace records with the host clock.
        pristine = _load("sim/trace.py")
        mutated = pristine.text.replace(
            "import hashlib\n",
            "import hashlib\nimport time\n",
        ).replace(
            "    def record(self, line: str) -> None:\n",
            "    def record(self, line: str) -> None:\n"
            "        self._stamp = time.time()\n",
        )
        assert "time.time()" in mutated, "canary patch did not apply"
        module = module_from_text(mutated, pristine.rel)
        report = check_source_module(module)
        assert [d.code for d in report] == ["COS502"]
