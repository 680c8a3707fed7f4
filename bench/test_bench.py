"""Tests of the benchmark harness itself.

Run with ``python -m pytest bench -q``.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spec
import stats
import tracing
import workloads

HERE = Path(__file__).resolve().parent


# -- generators --------------------------------------------------------------


@pytest.mark.parametrize("name", [n for n in spec.WORKLOAD_NAMES if n != "chaos-migrate"])
def test_generators_are_pure_in_the_seed(name):
    sc = workloads.scenario(name, 1, smoke=True)
    assert workloads.query_texts(sc) == workloads.query_texts(sc)
    once = workloads.feed_digest(workloads.tuple_feed(sc, 3))
    assert once == workloads.feed_digest(workloads.tuple_feed(sc, 3))
    assert once != workloads.feed_digest(workloads.tuple_feed(sc, 4))


def test_chaos_configs_are_pure_in_the_seed():
    sc = workloads.scenario("chaos-migrate", 8)
    assert workloads.chaos_configs(sc, 3) == workloads.chaos_configs(sc, 3)
    assert workloads.chaos_configs(sc, 3) != workloads.chaos_configs(sc, 4)


def test_burst_feed_is_globally_time_ordered():
    sc = workloads.scenario("burst-scale", 1, smoke=True)
    feed = workloads.tuple_feed(sc, 7)
    bursts = workloads.burst_feed(feed, sc.burst, random.Random(7))
    assert bursts
    for burst in bursts:
        assert len(burst) == sc.burst
        assert len({d.stream for d in burst}) == 1
    stamps = [d.timestamp for d in workloads.flat(bursts)]
    assert stamps == sorted(stamps)
    assert all(d.payload["timestamp"] == d.timestamp for d in workloads.flat(bursts))


# -- tracing -----------------------------------------------------------------


def test_span_self_time_on_a_synthetic_nest():
    ticks = iter([0, 10, 30, 40, 45, 100, 200, 260])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    tracer.enter("system.submit")      # 0
    tracer.enter("cbn.subscribe")      # 10
    tracer.exit()                      # 30
    tracer.enter("cbn.subscribe")      # 40
    tracer.exit()                      # 45
    tracer.exit()                      # 100
    tracer.enter("system.submit")      # 200
    tracer.exit()                      # 260
    assert tracer.calls == {"cbn.subscribe": 2, "system.submit": 2}
    assert tracer.self_ns["cbn.subscribe"] == 25
    assert tracer.self_ns["system.submit"] == (100 - 25) + 60
    # self times sum exactly to the root spans' durations
    assert tracer.total_self_ns() == tracer.root_ns == 160
    slowest = tracer.slowest("system.submit")
    assert [tree[2] for tree in slowest] == [100, 60]
    assert [child[0] for child in slowest[0][3]] == ["cbn.subscribe"] * 2
    assert "cbn.subscribe" in "\n".join(tracing.render_tree(slowest[0]))


def test_tracer_keeps_only_the_slowest_trees():
    now = [0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def work(ns):
        now[0] += ns

    publish = tracer.wrap("system.publish", work)
    for ns in range(1, tracing.KEPT_TREES + 51):
        publish(ns)
    kept = [tree[2] for tree in tracer.slowest("system.publish")]
    assert kept == list(range(tracing.KEPT_TREES + 50, 50, -1))


def test_install_patches_and_uninstall_restores():
    from repro.overlay.tree import DisseminationTree
    from repro.system import fault, tuning
    from repro.system import rebuild as rebuild_module
    from repro.system.cosmos import CosmosSystem

    before = (CosmosSystem.__dict__["submit"],
              DisseminationTree.__dict__["minimum_spanning"],
              fault.repair_tree, tuning.rebuild_network)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert CosmosSystem.__dict__["submit"] is not before[0]
        assert isinstance(DisseminationTree.__dict__["minimum_spanning"], classmethod)
        # a from-import in another module is patched too
        assert tuning.rebuild_network is rebuild_module.rebuild_network
        assert tuning.rebuild_network is not before[3]
    finally:
        tracer.uninstall()
    after = (CosmosSystem.__dict__["submit"],
             DisseminationTree.__dict__["minimum_spanning"],
             fault.repair_tree, tuning.rebuild_network)
    assert after == before


def test_every_span_has_patch_targets():
    assert set(tracing.SPAN_TARGETS) == set(spec.SPANS)


# -- statistics --------------------------------------------------------------


def test_percentile_rule():
    assert stats.supported_percentile(19) is None
    assert stats.supported_percentile(20) == 50
    assert stats.supported_percentile(199) == 90
    assert stats.supported_percentile(200) == 95
    assert stats.supported_percentile(999) == 95
    assert stats.supported_percentile(1100) == 99
    assert stats.percentile(list(range(1, 101)), 95) == 95
    assert stats.percentile([5.0], 99) == 5.0


def test_chunked_rate_ignores_a_burst():
    seconds = [0.001] * 400
    seconds[100:110] = [0.1] * 10          # one contention burst
    rate = stats.chunked_rate([1] * 400, seconds)
    assert rate == pytest.approx(1000.0)


def test_chunked_percentile_ignores_a_noisy_stretch():
    calm = [0.001] * 990 + [0.005] * 10            # p99 = 1 ms per 1 000 calls
    noisy = [0.001] * 900 + [0.050] * 100          # a stretch with a fat tail
    samples = calm * 4 + noisy + calm * 4
    assert stats.percentile(samples, 99) == 0.050
    assert stats.chunked_percentile(samples, 99) == 0.001
    # too few samples for more than one chunk: the plain percentile
    assert stats.chunked_percentile(noisy, 99) == stats.percentile(noisy, 99)


def test_timed_samples_the_machine_speed_inside_a_long_call():
    rec = workloads.Recorder(reps=1)
    taken, samples = len(rec.slices), []

    def busy():
        until = time.perf_counter() + 4 * workloads.SLICE_EVERY_S
        while time.perf_counter() < until:
            pass

    started = time.perf_counter()
    assert rec.timed(samples, "busy", busy, sample_inside=True)
    wall = time.perf_counter() - started
    inside = rec.slices[taken:]
    assert len(inside) >= 2
    # the timer is off again, and the sample leaves the slices out
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    slowdown = len(inside) / sum(workloads.SLICE_REF_S / s for s in inside)
    assert samples[0] * slowdown == pytest.approx(wall - sum(inside), rel=0.05)


def test_chaos_rounds_keep_each_deployment_s_fastest(monkeypatch):
    clock = iter([3.0, 2.0, 1.5, 2.5, 1.0, 4.0])   # A B, A B, A B

    def timed(self, samples, what, op, *args, sample_inside=False):
        assert sample_inside
        samples.append(next(clock))
        return False                                # no report to read

    monkeypatch.setattr(workloads.Recorder, "timed", timed)
    deployments = [
        workloads.ChaosDeployment(
            workloads.SplitSeedChaosConfig(seed=n), events=[None] * (n + 1),
            system=None, catalog=None, queries=[],
            feed=[None] * (workloads.CHAOS_REPLAYS * 7),
        )
        for n in range(2)
    ]
    rec = workloads.Recorder()
    workloads._chaos_rounds(deployments, rec)
    assert rec.chaos_s == [1.0, 2.0]
    assert rec.chaos_events == [1, 2] and rec.chaos_tuples == [7, 7]


def _summary(values):
    return stats.summarise(values)


def test_compare_verdicts():
    steady = _summary([100, 101, 99, 100, 102])
    assert stats.verdict(steady, _summary([100, 101, 99, 100, 102]), "lower", 0.1) == "within"
    assert stats.verdict(steady, _summary([104, 105, 103, 104, 106]), "lower", 0.1) == "within"
    assert stats.verdict(steady, _summary([120, 121, 119, 120, 122]), "lower", 0.1) == "worse"
    assert stats.verdict(steady, _summary([120, 121, 119, 120, 122]), "higher", 0.1) == "better"
    assert stats.verdict(steady, _summary([80, 81, 79, 80, 82]), "lower", 0.1) == "better"
    # spread between quartiles wider than the bound: cannot be told from noise
    noisy = _summary([100, 140, 70, 120, 95])
    assert stats.verdict(steady, noisy, "lower", 0.1) == "unresolved"


def _report(tuples_per_s, failed=0, route_ms=10.0):
    block = {
        "attempted": 1000, "failed": failed, "result_digest": "x",
        "end_to_end": {
            metric: _summary([100.0, 101.0, 99.0]) for metric, *__ in spec.END_TO_END
        },
        "fault_timings": {},
        "per_layer": {f"{span}.self_ms": 1.0 for span in spec.SPANS},
    }
    block["end_to_end"]["tuples_per_s"] = _summary(tuples_per_s)
    block["per_layer"]["cbn.route.self_ms"] = route_ms
    return {"workloads": {name: json.loads(json.dumps(block))
                          for name in spec.WORKLOAD_NAMES}}


def test_compare_exit_status(capsys):
    base = _report([100.0, 101.0, 99.0])
    assert run.compare(base, _report([100.0, 102.0, 99.0])) == 0
    assert run.compare(base, _report([60.0, 61.0, 59.0], route_ms=55.0)) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "cbn.route (+45.0 ms self)" in out
    assert run.compare(base, _report([100.0, 101.0, 99.0], failed=3)) == 1
    assert "failed share rose" in capsys.readouterr().out
    assert run.compare(base, _report([100.0, 160.0, 40.0])) == 0
    assert "unresolved" in capsys.readouterr().out


# -- the manifest ------------------------------------------------------------


def test_manifest_matches_spec_and_contract():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert all(unit.match(m["unit"])
               for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in manifest["workloads"])
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in manifest["end_to_end"])}]
    assert len((HERE.parent / "BENCHMARK.json").read_bytes()) <= 64 * 1024


# -- every workload, end to end, at smoke size -------------------------------


def _smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_size_of_every_workload():
    started = time.perf_counter()
    for workload in spec.WORKLOAD_NAMES:
        result = _smoke(workload, 0)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m for m, *__ in spec.END_TO_END]
        for metric, value in result["metrics"].items():
            assert value["unit"] == spec.UNITS[metric]
            assert value["value"] > 0, (workload, metric)
    assert time.perf_counter() - started < 20.0


def test_traced_smoke_run_reports_every_layer_metric():
    result = _smoke("fault-repair", 1)
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec.per_layer()]
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["system.fail_broker.calls"] >= 1
    assert value["system.rebuild.calls"] >= value["system.fail_broker.calls"]
    assert value["overlay.optimize.calls"] == 1
    assert value["repair_p50_ms"] > 0 and value["reorganize_s"] > 0
    assert 0.9 < value["bench.span_coverage"] <= 1.0
    assert (HERE / "out" / "fault-repair.trace.txt").is_file()
