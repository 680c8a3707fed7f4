#!/usr/bin/env python3
"""The COSMOS benchmark: six workloads, end to end and layer by layer.

Two ways in:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload — the form ``BENCHMARK.json`` names.  The
    last line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
    with ``--trace 0`` (nothing instrumented), the per-layer metrics
    with ``--trace 1`` (layer boundaries patched from ``bench/``).

``python3 bench/run.py [--seed N] [--reps R] [--record]``
    The whole benchmark: every workload ``R`` times untraced plus once
    traced, each run in a fresh child process, interleaved across
    workloads; prints every metric with its unit, median and quartiles,
    and writes ``bench/out/report.json``.

``--compare OLD.json NEW.json`` reads two such reports.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"
PINS = HERE / "pins.json"

sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import stats  # noqa: E402


def _need_program() -> None:
    """Put ``src/`` on the path, or stop: the benchmark measures the
    program in this checkout and never a copy installed elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: {src}/repro not found — run from a checkout of the repo\n"
        )
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, seconds: float) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git("rev-parse", "HEAD") or "unknown",
        # uncommitted changes: the commit alone does not name the code
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "seed": seed,
        "seconds": seconds,
    }


# ---------------------------------------------------------------------------
# one run of one workload
# ---------------------------------------------------------------------------


def check_pin(workload: str, seed: int, seconds: float, smoke: bool,
              rec) -> List[str]:
    """Compare a default-seed, default-size run with ``pins.json``.

    A different ``result_digest`` means the generated inputs or the
    delivered results changed: that is a failed operation.  A different
    ``link_cost`` is reported but is not a failure — more merging may
    legitimately lower it.
    """
    if smoke or seed != spec.DEFAULT_SEED or seconds != spec.RUN_SECONDS:
        return []
    if not PINS.is_file():
        return []
    pin = json.loads(PINS.read_text()).get(workload)
    if pin is None:
        return []
    notes = []
    if pin["result_digest"] != rec.result_digest:
        rec.attempted += 1
        rec.fail(
            f"result_digest {rec.result_digest} differs from the pinned "
            f"{pin['result_digest']}"
        )
    if pin["link_cost"] != rec.link_cost:
        notes.append(
            f"link_cost {rec.link_cost!r} differs from the pinned "
            f"{pin['link_cost']!r}"
        )
    return notes


def dump_trace(workload: str, tracer) -> Path:
    """The span aggregate table and the slowest root calls' span trees."""
    import tracing

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}.trace.txt"
    lines = [f"# {workload}: span aggregates (self time, largest first)",
             f"{'span':<28}{'calls':>10}{'self_ms':>14}"]
    for name, calls, self_ms in tracer.aggregate():
        lines.append(f"{name:<28}{calls:>10}{self_ms:>14.3f}")
    for root in tracing.KEPT_ROOTS:
        trees = tracer.slowest(root)
        lines.append(f"\n# {len(trees)} slowest {root} calls")
        for tree in trees:
            lines.extend(tracing.render_tree(tree))
    path.write_text("\n".join(lines) + "\n")
    return path


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             smoke: bool = False, detail: Optional[Path] = None) -> Dict[str, object]:
    """One run; returns the result object the contract asks for."""
    _need_program()
    import tracing
    import workloads

    if trace:
        # the same run untraced first: the ratio of the two runs' timed
        # work is what tracing costs.  One setup/install rep each: the
        # per-layer numbers do not use the denoised install latencies.
        base = workloads.Recorder(reps=1)
        workloads.run_workload(workload, seed, seconds, base, smoke)
        tracer = tracing.Tracer()  # installed by the workload, after setup reps
        rec = workloads.Recorder(reps=1, tracer=tracer)
    else:
        tracer = None
        rec = workloads.Recorder()
    try:
        sc, setups, check = workloads.run_workload(
            workload, seed, seconds, rec, smoke
        )
    finally:
        if tracer is not None:
            tracer.uninstall()
    check()
    notes = check_pin(workload, seed, seconds, smoke, rec)

    slowdown = rec.median_slowdown()
    calibration_ms = statistics.median(rec.slices) * 1e3
    if trace:
        layer = {}
        for span in spec.SPANS:
            layer[f"{span}.calls"] = tracer.calls.get(span, 0)
            layer[f"{span}.self_ms"] = tracer.self_ns.get(span, 0) / 1e6 / slowdown
        layer.update(workloads.fault_timings(rec))
        layer.update(workloads.layer_counts(
            rec, tracer.calls.get("spe.push", 0), tracer.units.get("spe.push", 0)
        ))
        covered_ns = tracer.root_ns - rec.setup_root_ns
        layer["bench.trace_overhead"] = rec.work_s() / base.work_s()
        layer["bench.span_coverage"] = covered_ns / 1e9 / rec.phase_s
        layer["bench.calibration_ms"] = calibration_ms
        metrics = layer
        notes.append(f"trace written to {dump_trace(workload, tracer)}")
    else:
        metrics = workloads.end_to_end(sc, rec, setups)

    samples = {
        "install": len(rec.install_s), "publish": len(rec.publish_s),
        "repair": len(rec.repair_s), "chaos": len(rec.chaos_s),
    }
    for phase, named in (("install", 95.0), ("publish", 99.0)):
        if (stats.supported_percentile(samples[phase]) or 0.0) < named:
            notes.append(f"{samples[phase]} {phase} samples leave fewer than "
                         f"ten beyond p{named:g}")
    print(f"# {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}"
          f"  calibration={calibration_ms:.3f} ms (slowdown {slowdown:.2f})")
    print(f"# samples: {samples}")
    for name, value in metrics.items():
        print(f"{name:<34}{value:>18.6g} {spec.UNITS[name]}")
    print(f"result_digest  {rec.result_digest}")
    for failure in rec.failures:
        print(f"FAILED  {failure}")
    for note in notes:
        print(f"note    {note}")

    if detail is not None:
        detail.parent.mkdir(parents=True, exist_ok=True)
        detail.write_text(json.dumps({
            "workload": workload, "trace": trace,
            "attempted": rec.attempted, "failed": rec.failed,
            "failures": rec.failures, "metrics": metrics,
            "fault_timings": workloads.fault_timings(rec),
            "result_digest": rec.result_digest, "link_cost": rec.link_cost,
            "samples": samples, "calibration_ms": calibration_ms,
        }))
    return {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            name: {"value": value, "unit": spec.UNITS[name]}
            for name, value in metrics.items()
        },
    }


# ---------------------------------------------------------------------------
# the whole benchmark
# ---------------------------------------------------------------------------


def _child(workload: str, seed: int, seconds: float, trace: bool, smoke: bool,
           detail: Path) -> Dict[str, object]:
    """One run in a fresh process, so ``peak_rss_mb`` is per workload."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace)), "--detail", str(detail)]
    if smoke:
        cmd.append("--smoke")
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"bench: {workload} exited with {done.returncode}")
    return json.loads(detail.read_text())


def run_all(seed: int, seconds: float, reps: int, smoke: bool) -> Dict[str, object]:
    """Every workload ``reps`` times untraced and once traced.

    Runs are interleaved (A B C … A B C …) so a contention burst on the
    shared box cannot land on every rep of one workload.
    """
    OUT.mkdir(exist_ok=True)
    runs: Dict[str, List[dict]] = {name: [] for name in spec.WORKLOAD_NAMES}
    for rep in range(reps):
        for name in spec.WORKLOAD_NAMES:
            started = time.perf_counter()
            runs[name].append(_child(
                name, seed, seconds, False, smoke, OUT / f"{name}.rep{rep}.json"
            ))
            print(f"  rep {rep + 1}/{reps}  {name:<14}"
                  f"{time.perf_counter() - started:6.1f} s", flush=True)
    traced = {}
    for name in spec.WORKLOAD_NAMES:
        started = time.perf_counter()
        traced[name] = _child(name, seed, seconds, True, smoke,
                              OUT / f"{name}.traced.json")
        print(f"  traced    {name:<14}{time.perf_counter() - started:6.1f} s",
              flush=True)

    report: Dict[str, object] = {
        "env": dict(environment(seed, seconds), reps=reps, smoke=smoke,
                    calibration_ms=statistics.median(
                        r["calibration_ms"] for rs in runs.values() for r in rs)),
        "workloads": {},
    }
    for name in spec.WORKLOAD_NAMES:
        reps_of = runs[name] + [traced[name]]
        digests = {r["result_digest"] for r in reps_of}
        costs = {r["link_cost"] for r in reps_of}
        unstable = []
        if len(digests) > 1:
            unstable.append(f"result_digest differs between reps: {sorted(digests)}")
        if len(costs) > 1:
            unstable.append(f"link_cost differs between reps: {sorted(costs)}")
        report["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in reps_of),
            "failed": sum(r["failed"] for r in reps_of) + len(unstable),
            "failures": sorted({f for r in reps_of for f in r["failures"]}) + unstable,
            "result_digest": runs[name][0]["result_digest"],
            "end_to_end": {
                metric: stats.summarise([r["metrics"][metric] for r in runs[name]])
                for metric, __, __, __ in spec.END_TO_END
            },
            "fault_timings": {
                metric: stats.summarise([r["fault_timings"][metric]
                                         for r in runs[name]])
                for metric in runs[name][0]["fault_timings"]
            },
            "per_layer": traced[name]["metrics"],
        }
    return report


def print_report(report: Dict[str, object]) -> None:
    env = report["env"]
    print("\n# environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, block in report["workloads"].items():
        print(f"\n## {name}   attempted={block['attempted']} "
              f"failed={block['failed']}  result_digest={block['result_digest']}")
        print(f"{'metric':<24}{'median':>16}{'q1':>16}{'q3':>16}  n  unit")
        bounds = {m: (u, b) for m, u, __, b in spec.END_TO_END}
        for metric, s in block["end_to_end"].items():
            unit, bound = bounds[metric]
            flag = "  spread>bound" if stats.spread(s) > bound else ""
            print(f"{metric:<24}{s['median']:>16.6g}{s['q1']:>16.6g}"
                  f"{s['q3']:>16.6g}  {s['n']}  {unit}{flag}")
        for metric, s in block["fault_timings"].items():
            if s["median"]:
                print(f"{metric:<24}{s['median']:>16.6g}{s['q1']:>16.6g}"
                      f"{s['q3']:>16.6g}  {s['n']}  {spec.UNITS[metric]}")
        layer = block["per_layer"]
        spans = sorted(
            ((layer[f"{s}.self_ms"], s, layer[f"{s}.calls"]) for s in spec.SPANS),
            reverse=True,
        )
        print("traced rep, spans by self time:")
        for self_ms, span, calls in spans:
            if calls:
                print(f"  {span:<28}{calls:>10} calls{self_ms:>14.3f} ms")
        print("traced rep, counts:")
        for metric, unit, __ in spec.LAYER_VALUES:
            print(f"  {metric:<28}{layer[metric]:>18.6g} {unit}")
        for failure in block["failures"]:
            print(f"FAILED  {failure}")


def record(report: Dict[str, object]) -> None:
    """Append one line to the history; the file is never rewritten."""
    line = {
        "env": report["env"],
        "workloads": {
            name: {
                "failed": block["failed"], "attempted": block["attempted"],
                "result_digest": block["result_digest"],
                "end_to_end": block["end_to_end"],
                "fault_timings": block["fault_timings"],
                "per_layer": block["per_layer"],
            }
            for name, block in report["workloads"].items()
        },
    }
    with HISTORY.open("a") as out:
        out.write(json.dumps(line, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------


def grown_span(old_layer: Dict[str, float], new_layer: Dict[str, float]) -> str:
    """The span whose self time grew most between two traced reps."""
    growth = [
        (new_layer.get(f"{s}.self_ms", 0.0) - old_layer.get(f"{s}.self_ms", 0.0), s)
        for s in spec.SPANS
    ]
    delta, span = max(growth)
    return f"{span} (+{delta:.1f} ms self)"


def compare(old: Dict[str, object], new: Dict[str, object]) -> int:
    """One row per (workload, end-to-end metric); non-zero on any
    ``worse`` or any rise in the failed share."""
    status = 0
    print(f"{'workload':<15}{'metric':<18}{'old':>14}{'new':>14}  verdict")
    for name in spec.WORKLOAD_NAMES:
        a = old["workloads"].get(name)
        b = new["workloads"].get(name)
        if a is None or b is None:
            print(f"{name:<15}missing from one report")
            status = 1
            continue
        worse = False
        for metric, __, better, bound in spec.END_TO_END:
            v = stats.verdict(a["end_to_end"][metric], b["end_to_end"][metric],
                              better, bound)
            worse = worse or v == "worse"
            print(f"{name:<15}{metric:<18}{a['end_to_end'][metric]['median']:>14.6g}"
                  f"{b['end_to_end'][metric]['median']:>14.6g}  {v}")
        if worse:
            status = 1
            print(f"{name:<15}  span that grew most: "
                  f"{grown_span(a['per_layer'], b['per_layer'])}")
        share_a = a["failed"] / max(a["attempted"], 1)
        share_b = b["failed"] / max(b["attempted"], 1)
        if share_b > share_a:
            status = 1
            print(f"{name:<15}failed share rose {share_a:.4%} -> {share_b:.4%}")
    return status


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes (what bench/test_bench.py runs)")
    ap.add_argument("--detail", type=Path,
                    help="also write this run's detail JSON here")
    ap.add_argument("--reps", type=int, default=5,
                    help="untraced runs per workload of the whole benchmark")
    ap.add_argument("--record", action="store_true",
                    help="append the report to bench/history.jsonl")
    ap.add_argument("--compare", nargs=2, metavar=("OLD.json", "NEW.json"))
    ap.add_argument("--write-manifest", action="store_true",
                    help="regenerate BENCHMARK.json from bench/spec.py")
    args = ap.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.manifest(), indent=2) + "\n"
        )
        return 0
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        return compare(old, new)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.workload:
        if os.environ.get("PYTHONHASHSEED") != "0":
            # set iteration order must not depend on the interpreter's
            # per-process hash salt: same seed, same run
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable] + sys.argv)
        result = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke, args.detail)
        print(json.dumps(result))
        return 0

    _need_program()
    if args.reps < 3 or args.reps % 2 == 0:
        ap.error("--reps must be odd and at least 3")
    report = run_all(args.seed, args.seconds, args.reps, args.smoke)
    print_report(report)
    OUT.mkdir(exist_ok=True)
    path = OUT / "report.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nreport written to {path}")
    if args.record:
        record(report)
        print(f"appended to {HISTORY}")
    return 1 if any(b["failed"] for b in report["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
