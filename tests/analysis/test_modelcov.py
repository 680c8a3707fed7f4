"""COS905: chaos-corpus transition coverage of the protocol model."""

from __future__ import annotations

import json

import pytest

from repro.analysis.lifecycle import extract_lifecycle
from repro.analysis.model import build_product, explore
from repro.analysis.modelcov import (
    check_coverage,
    coverage,
    default_coverage_baseline,
    load_corpus,
    summarize,
)
from repro.analysis.selfcheck import default_package_dir
from repro.analysis.source import Baseline, SourceError, load_package


@pytest.fixture(scope="module")
def explored():
    modules = load_package(default_package_dir())
    machines = extract_lifecycle(modules)
    model = build_product(machines)
    return model, explore(model)


def _artifact(tmp_path, name, seeds):
    path = tmp_path / name
    path.write_text(json.dumps({"seeds": seeds, "totals": {}, "ok": True}))
    return path


class TestCorpusLoading:
    def test_aggregates_across_artifacts(self, tmp_path):
        first = _artifact(
            tmp_path,
            "a.json",
            [
                {
                    "seed": 0,
                    "transitions": {
                        "uplink-receiver": {"arrive UNSEEN->BUFFERED": 2}
                    },
                }
            ],
        )
        second = _artifact(
            tmp_path,
            "b.json",
            [
                {
                    "seed": 1,
                    "transitions": {
                        "uplink-receiver": {"arrive UNSEEN->BUFFERED": 3},
                        "node-supervision": {"crash LIVE->CRASHED": 1},
                    },
                }
            ],
        )
        corpus = load_corpus([first, second])
        assert corpus.artifacts == 2
        assert corpus.seeds == 2
        assert corpus.counts["uplink-receiver"] == {
            "arrive UNSEEN->BUFFERED": 5
        }
        assert corpus.counts["node-supervision"] == {
            "crash LIVE->CRASHED": 1
        }

    @pytest.mark.parametrize(
        "text, needle",
        [
            ("{not json", "not a readable chaos artifact"),
            ("[]", "no 'seeds' list"),
            ('{"ok": true}', "no 'seeds' list"),
            ('{"seeds": [4]}', "seed record 4 is not an object"),
            ('{"seeds": [{"seed": 4, "ok": false, "error": "boom"}]}',
             "seed 4 has no 'transitions'"),
        ],
        ids=[
            "not-json",
            "not-an-object",
            "no-seeds",
            "seed-not-an-object",
            "seed-without-transitions",
        ],
    )
    def test_an_artifact_without_transitions_is_fatal(self, tmp_path, text, needle):
        good = _artifact(tmp_path, "good.json", [{"seed": 0, "transitions": {}}])
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(SourceError) as raised:
            load_corpus([good, bad])
        assert str(bad) in str(raised.value) and needle in str(raised.value)


class TestCoverage:
    def test_empty_corpus_everything_cold(self, explored, tmp_path):
        model, exploration = explored
        corpus = load_corpus([])
        results = coverage(model, exploration, corpus)
        assert {r.machine for r in results} == {
            c.machine.name for c in model.components
        }
        for result in results:
            assert result.exercised == {}
            assert result.cold == result.total
        report = check_coverage(results, corpus)
        assert all(d.code == "COS905" for d in report)
        assert len(report) == sum(len(r.total) for r in results)

    def test_exercised_keys_leave_the_cold_set(self, explored, tmp_path):
        model, exploration = explored
        path = _artifact(
            tmp_path,
            "one.json",
            [
                {
                    "seed": 0,
                    "transitions": {
                        "uplink-receiver": {"arrive UNSEEN->BUFFERED": 7}
                    },
                }
            ],
        )
        corpus = load_corpus([path])
        results = coverage(model, exploration, corpus)
        (uplink,) = [r for r in results if r.machine == "uplink-receiver"]
        assert uplink.exercised == {"arrive UNSEEN->BUFFERED": 7}
        assert "arrive UNSEEN->BUFFERED" not in uplink.cold

    def test_internal_steps_are_demanded_and_undriven_ones_are_not(self, explored):
        """The executors count every row they take, so the steps no
        trace line names (heartbeats, registrations, gap detection,
        release) are demanded like any other; what the product never
        drives is reported, not demanded."""
        model, exploration = explored
        results = {r.machine: r for r in coverage(model, exploration, load_corpus([]))}
        detector, uplink = results["failure-detector"], results["uplink-receiver"]
        assert {"heartbeat MONITORED->MONITORED", "register UNKNOWN->MONITORED"} <= set(detector.total)
        assert {"gap_detect LOST->GAP", "release BUFFERED->RELEASED"} <= set(uplink.total)
        assert "deregister MONITORED->UNKNOWN" in detector.unmodeled
        assert not set(detector.unmodeled) & set(detector.total)

    def test_summary_gating(self, explored):
        model, exploration = explored
        corpus = load_corpus([])
        results = coverage(model, exploration, corpus)
        total = sum(len(r.total) for r in results)
        ungated = summarize(results, corpus)
        assert ungated["transitions_total"] == total
        assert ungated["coverage_raw"] == 0.0
        assert ungated["coverage_gated"] == 0.0
        forgiven_all = summarize(results, corpus, forgiven=total)
        assert forgiven_all["coverage_gated"] == 0.0  # nothing exercised
        assert forgiven_all["transitions_baselined"] == total
        # The summary names a machine's module, never a line: moving code
        # inside a module must not rewrite ``BENCH_modelcov.json``.
        for machine in ungated["per_machine"]:
            assert set(machine["origin"]) == {"module"}


class TestCheckedInBaseline:
    def test_ci_corpus_is_fully_gated(self, explored):
        """The committed ledger must absorb exactly the cold remainder
        of the committed sweep artifacts — no more (stale entries), no
        less (un-baselined COS905)."""
        model, exploration = explored
        artifacts = [
            default_coverage_baseline().parent.parent / name
            for name in (
                "BENCH_chaos.json",
                "BENCH_chaos_recovery.json",
                "BENCH_chaos_migration.json",
                "BENCH_chaos_scale.json",
            )
        ]
        present = [path for path in artifacts if path.is_file()]
        if len(present) < len(artifacts):
            pytest.skip("chaos sweep artifacts not generated")
        corpus = load_corpus(present)
        if corpus.seeds == 0:
            pytest.skip("artifacts carry no transition counts")
        results = coverage(model, exploration, corpus)
        report = check_coverage(results, corpus)
        baseline = Baseline.load(default_coverage_baseline())
        leftover, forgiven, stale = baseline.audit(report)
        assert len(leftover) == 0, [d.message for d in leftover]
        assert stale == [], stale
        summary = summarize(results, corpus, forgiven)
        assert summary["coverage_gated"] >= 0.90
