"""The end-to-end analyzer, the CLI contract and the analyzer's place
beside the runtime."""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    BUILTIN_WORKLOADS,
    Workload,
    analyze_builtin,
    analyze_query,
    analyze_workload,
    builtin_workload,
)
from repro.cli import run_check
from repro.cql.ast import QueryError
from repro.cql.parser import parse_query
from repro.system import CosmosSystem


class TestBuiltinWorkloads:
    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            builtin_workload("nope")

    @pytest.mark.parametrize("name", BUILTIN_WORKLOADS)
    def test_builtin_workloads_have_no_errors(self, name):
        # The acceptance bar: `repro check` exits 0 on both examples.
        report = analyze_builtin(name)
        assert report.errors == []
        assert report.exit_code(strict=False) == 0

    def test_auction_is_fully_clean(self):
        assert analyze_builtin("auction").is_clean

    def test_deterministic(self):
        first = [d.render() for d in analyze_builtin("sensorscope")]
        second = [d.render() for d in analyze_builtin("sensorscope")]
        assert first == second


class TestAnalyzeQuery:
    def test_schema_errors_suppress_satisfiability(self, sensor_catalog):
        # The predicate references an unknown attribute; running the
        # solver on it would only produce cascading noise.
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.pressure > 5 AND T.pressure < 2",
            name="q",
        )
        report = analyze_query(query, sensor_catalog)
        assert report.has("COS102")
        assert not report.has("COS201")

    def test_both_families_on_clean_schema(self, sensor_catalog):
        query = parse_query(
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.temperature > 30 AND T.temperature < 10",
            name="q",
        )
        report = analyze_query(query, sensor_catalog)
        assert report.has("COS201")


class TestAnalyzeWorkload:
    def test_defective_query_reported_and_quarantined(self, sensor_catalog):
        bad = parse_query("SELECT T.bogus FROM Temp [Now] T", name="bad")
        good = parse_query("SELECT T.station FROM Temp [Now] T", name="good")
        report = analyze_workload(
            Workload("w", sensor_catalog, [bad, good])
        )
        # The bad query is kept out of the source-profile checks, so its
        # unknown attribute is reported once, on the query.
        assert [(d.code, d.source) for d in report] == [("COS102", "bad")]


class TestRunCheck:
    def test_exit_zero_on_builtins(self, capsys):
        assert run_check([]) == 0
        out = capsys.readouterr().out
        assert "workload auction" in out and "workload sensorscope" in out

    def test_single_workload(self, capsys):
        assert run_check(["--workload", "auction"]) == 0
        assert "auction: clean" in capsys.readouterr().out


class TestCheckBeforeSubmit:
    """``analyze_query`` and ``CosmosSystem.submit`` read one admission
    check (``repro.cql.ast.query_problems``): an error the analyzer
    reports is one ``submit`` refuses, a warning is not."""

    @pytest.fixture
    def system(self, line_tree, sensor_catalog):
        system = CosmosSystem(line_tree, processor_nodes=[2])
        for index, schema in enumerate(sorted(sensor_catalog, key=lambda s: s.name)):
            system.add_source(schema, index % 2)
        return system

    def test_defective_query_flagged_and_refused(self, system, sensor_catalog):
        text = "SELECT T.bogus FROM Temp [Now] T"
        assert analyze_query(parse_query(text, name="q"), sensor_catalog).has("COS102")
        with pytest.raises(QueryError):
            system.submit(text, user_node=4)
        assert system.queries == []  # nothing was installed

    def test_unsatisfiable_query_flagged_and_refused(self, system, sensor_catalog):
        text = (
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.temperature > 30 AND T.temperature < 10"
        )
        [diag] = analyze_query(parse_query(text, name="q"), sensor_catalog).errors
        assert diag.code == "COS201"
        with pytest.raises(QueryError, match=diag.message):
            system.submit(text, user_node=4)
        assert system.queries == []

    def test_a_warning_does_not_refuse(self, system, sensor_catalog):
        text = (
            "SELECT T.station FROM Temp [Now] T "
            "WHERE T.temperature > 30 AND T.temperature > 10"
        )
        assert analyze_query(parse_query(text, name="q"), sensor_catalog).codes() == ["COS202"]
        system.submit(text, user_node=4)
        assert len(system.queries) == 1

    def test_clean_query_passes_both(self, system, sensor_catalog):
        text = "SELECT T.station FROM Temp [Now] T WHERE T.temperature > 30"
        assert analyze_query(parse_query(text, name="q"), sensor_catalog).is_clean
        handle = system.submit(text, user_node=4)
        assert handle.query_id in [q.query_id for q in system.queries]


RUNTIME = Path(repro.__file__).parent
RUNTIME_PACKAGES = sorted(
    path.name for path in RUNTIME.iterdir()
    if (path / "__init__.py").exists() and path.name != "analysis"
)


def _imports(text, package):
    """Absolute names of every module ``text``, a module of ``package``,
    imports (``from a import b`` yields both ``a`` and ``a.b``)."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _is_analyzer(name):
    return name == "repro.analysis" or name.startswith("repro.analysis.")


class TestRuntimeLayering:
    """Only ``repro.analysis`` and the CLI depend on the analyzer."""

    def test_every_runtime_package_is_scanned(self):
        assert {"cbn", "core", "cql", "spe", "system"} <= set(RUNTIME_PACKAGES)

    @pytest.mark.parametrize("package", RUNTIME_PACKAGES)
    def test_package_does_not_import_the_analyzer(self, package):
        offenders = [
            f"{path.relative_to(RUNTIME)}: {name}"
            for path in sorted((RUNTIME / package).rglob("*.py"))
            for name in _imports(
                path.read_text(), ".".join(path.parent.relative_to(RUNTIME.parent).parts)
            )
            if _is_analyzer(name)
        ]
        assert offenders == []

    @pytest.mark.parametrize(
        "text",
        [
            "import repro.analysis.schema as schema",
            "from repro.analysis.checker import analyze_query",
            "from repro import analysis",
            "from ..analysis import checker",
            "def f():\n    from repro.analysis import Report\n",
        ],
        ids=["import", "from-module", "from-package", "relative", "function-local"],
    )
    def test_scan_sees_every_import_form(self, text):
        assert any(_is_analyzer(name) for name in _imports(text, "repro.system"))
