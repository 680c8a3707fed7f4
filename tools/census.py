#!/usr/bin/env python3
"""What runs stays: a reachability census of ``src/repro``.

Runs the non-test entry points CI already runs, and its archived-table
step, under a "call" hook (``sys.setprofile``), and diffs the code
objects they reached (``co_filename``, ``co_firstlineno``) against every
``def`` under ``src/repro``.  A def is matched by its first line, which
for a decorated def is its first decorator's line: that is what
``co_firstlineno`` holds.  Dunder methods are exempt (the interpreter
calls them) and only counted.

Every def that nothing reached must be named, by itself, its class or
its module, in the ledger ``tools/census-baseline.txt`` with one reason
from a closed list (see ``REASONS``); anything else fails the gate, and
so does a ledger entry whose defs are now reached (stale).  An entry
naming a module or a class (or a def with nested defs) states how many
defs it covers (``defs=N``), and the gate fails when that changes, so a
def added there later is seen.  A ``cold-path`` entry names the
transition of ``tools/modelcov-baseline.txt`` it waits on, so driving
that transition shrinks both ledgers.

Usage::

    python tools/census.py [--records DIR]
        run every entry point not already recorded in DIR (a fresh
        temporary directory by default) and gate on the census

    python tools/census.py record DIR LABEL -- ARGV...
        run one Python command line (``-m module args`` or
        ``script args``) in this process under the hook, and write what
        it reached to DIR/LABEL.txt; stdout and the exit status are the
        command's own

``tools/ci.sh`` records its chaos, ``check``, ``model`` and archived-table
steps with ``record`` and then runs the census on that directory, so no
step runs twice.
"""

from __future__ import annotations

import ast
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / "tools" / "census-baseline.txt"
MODELCOV = ROOT / "tools" / "modelcov-baseline.txt"

#: why a def may stay although no entry point reaches it
REASONS = {
    "operator-api": "called by an operator, not by a workload",
    "failure-only": "runs only when a fault or a bug surfaces",
    "cold-path": "a protocol path the chaos corpus does not drive yet",
    "query-class": "a query-class feature no workload draws yet",
    "ablation": "reached only by fig4, which no CI step runs (minutes long)",
    "cli-format": "an output format no CI step asks for",
}
LEDGER_CAP = 60

_CHAOS = ("-m", "repro", "chaos")
_SWEEPS = (
    ("chaos", ("--seeds", "25"), "BENCH_chaos.json"),
    ("chaos-recovery", ("--seeds", "25", "--recovery"), "BENCH_chaos_recovery.json"),
    ("chaos-migration", ("--seeds", "25", "--recovery", "--migrate"),
     "BENCH_chaos_migration.json"),
    ("chaos-scale", ("--seeds", "3", "--nodes", "1000", "--recovery"),
     "BENCH_chaos_scale.json"),
)
_WORKLOADS = ("sensor-fanout", "burst-scale", "join-window", "query-churn",
              "fault-repair", "chaos-migrate")
_EXAMPLES = ("auction_monitoring", "baseline_comparison", "live_simulation",
             "overlay_adaptation", "quickstart", "sensor_network")
#: the archived tables: every ablation, the unicast baseline and Table 1.
#: pytest-benchmark switches ``sys.setprofile`` off while it times, so the
#: hook sees them only with timing disabled (the tables are the same).
_ARCHIVED_TABLES = ("-m", "pytest", "-q", "--benchmark-disable",
                   "benchmarks/test_ablations.py", "benchmarks/test_baseline_unicast.py",
                   "benchmarks/test_table1_queries.py::test_table1_end_to_end")


def entry_points(out: Path) -> List[Tuple[str, List[str]]]:
    """(label, Python command line) of every entry point the census runs;
    the chaos sweeps write their artefacts under ``out``, where ``model
    --coverage`` reads them."""
    points = [(label, [*_CHAOS, *flags, "--json", str(out / name)])
              for label, flags, name in _SWEEPS]
    points += [
        ("check", ["-m", "repro", "check"]),
        ("check-self", ["-m", "repro", "check", "--self", "--strict", "--json"]),
        ("flow", ["-m", "repro", "flow"]),
        ("model", ["-m", "repro", "model", "--strict", "--json", "--coverage",
                   *(str(out / name) for __, __, name in _SWEEPS)]),
        ("table1", ["-m", "repro", "table1"]),
        ("fig3", ["-m", "repro", "fig3"]),
        ("demo", ["-m", "repro", "demo"]),
        ("archived-tables", list(_ARCHIVED_TABLES)),
    ]
    points += [(f"bench-{w}", ["bench/run.py", "--workload", w, "--smoke"])
               for w in _WORKLOADS]
    points += [(f"example-{e}", [f"examples/{e}.py"]) for e in _EXAMPLES]
    return points


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def record(out: Path, label: str, argv: Sequence[str]) -> int:
    """Run ``argv`` under the hook; write the reached (file, first line)
    pairs outside the interpreter's own library to ``out/LABEL.txt``."""
    codes: Set[object] = set()
    add = codes.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    module = argv[:1] == ["-m"]
    target, args = (argv[1], argv[2:]) if module else (argv[0], argv[1:])
    sys.argv = [target, *args]
    if not module:
        sys.path.insert(0, str(Path(target).resolve().parent))
    status: object = 0
    sys.setprofile(hook)
    try:
        if module:
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        status = exc.code
    finally:
        sys.setprofile(None)
        sys.stdout.flush()
        library = tuple({sys.prefix, sys.base_prefix, sys.exec_prefix})
        reached = sorted({
            f"{os.path.realpath(code.co_filename)}:{code.co_firstlineno}"
            for code in codes
            if not code.co_filename.startswith(("<", *library))
        })
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{label}.txt").write_text("".join(f"{line}\n" for line in reached))
    if status is None:
        return 0
    if isinstance(status, int):
        return status
    print(status, file=sys.stderr)
    return 1


def run_missing(out: Path, points: Iterable[Tuple[str, List[str]]]) -> List[str]:
    """Record every entry point ``out`` has no record of, each in a fresh
    interpreter with ``PYTHONHASHSEED=0`` preset (``bench/run.py``
    re-execs itself without it, which would drop the hook)."""
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    failed = []
    for label, argv in points:
        if (out / f"{label}.txt").exists():
            continue
        done = subprocess.run(
            [sys.executable, __file__, "record", str(out), label, "--", *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        if done.returncode != 0:
            failed.append(f"{label} exited with {done.returncode}: "
                          f"{done.stderr.strip()[-400:]}")
    return failed


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------


class Def(NamedTuple):
    path: str        # relative to src/, e.g. repro/cbn/network.py
    line: int        # first decorator's line, else the def's
    qualname: str    # Class.method, outer.inner
    file: str        # the absolute path a code object names

    @property
    def key(self) -> str:
        return f"{self.file}:{self.line}"

    @property
    def dunder(self) -> bool:
        name = self.qualname.rsplit(".", 1)[-1]
        return name.startswith("__") and name.endswith("__")


def definitions(package: Path) -> List[Def]:
    """Every ``def`` (nested ones too) in the ``*.py`` files under ``package``."""
    found: List[Def] = []

    def walk(node: ast.AST, where: Tuple[str, str], prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, where, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found.append(Def(where[0], first, prefix + child.name, where[1]))
                walk(child, where, f"{prefix}{child.name}.")
            else:
                walk(child, where, prefix)

    for source in sorted(package.rglob("*.py")):
        where = (source.relative_to(package.parent).as_posix(), os.path.realpath(source))
        walk(ast.parse(source.read_text(), str(source)), where, "")
    return found


class Entry(NamedTuple):
    name: str        # path, path::Class or path::qualname
    reason: str
    detail: str      # a cold-path entry's transition, e.g. "abort PREPARING->ABORTED"
    line: int
    size: Optional[int] = None  # "defs=N": how many defs a module or class entry covers

    def covers(self, definition: Def) -> bool:
        path, __, qualname = self.name.partition("::")
        if path != definition.path:
            return False
        return not qualname or definition.qualname == qualname \
            or definition.qualname.startswith(qualname + ".")


def read_ledger(text: str) -> List[Entry]:
    entries = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            name, reason, *detail = line.split()
            size = re.fullmatch(r"defs=(\d+)", detail[-1]) if detail else None
            if size:
                detail.pop()
            entries.append(Entry(name, reason, " ".join(detail), number,
                                 int(size.group(1)) if size else None))
    return entries


def transitions(text: str) -> Set[str]:
    """The ``label FROM->TO`` transitions a modelcov baseline names."""
    return set(re.findall(r"\b\w+ [A-Z_]+->[A-Z_]+", text))


def census(defs: Sequence[Def], reached: Set[str], ledger: Sequence[Entry],
           cold: Set[str]) -> Tuple[List[str], Dict[str, int]]:
    """The gate's failures, and the counts it reports."""
    failures: List[str] = []
    for entry in ledger:
        where = f"{LEDGER.name}:{entry.line}: {entry.name}"
        if entry.reason not in REASONS:
            failures.append(f"{where}: reason {entry.reason!r} is not one of "
                            f"{', '.join(REASONS)}")
        if (entry.reason == "cold-path") != bool(entry.detail):
            failures.append(f"{where}: a cold-path entry, and only one, names a transition")
        elif entry.detail and entry.detail not in cold:
            failures.append(f"{where}: transition {entry.detail!r} is not in "
                            f"{MODELCOV.name}")
        covered = [d for d in defs if entry.covers(d) and not d.dunder]
        if not covered:
            failures.append(f"{where}: names no def under src/repro")
        # an entry covering more than the def it names pins how many, so a
        # def added to a ledgered module or class cannot hide behind it
        named = entry.name.partition("::")[2]
        if entry.size is not None or any(d.qualname != named for d in covered):
            if entry.size is None:
                failures.append(f"{where}: covers {len(covered)} defs: state how "
                                f"many, defs={len(covered)}")
            elif entry.size != len(covered):
                failures.append(f"{where}: covers {len(covered)} defs, not "
                                f"defs={entry.size}: delete a def added here that "
                                "nothing runs, or correct the count")
        live = [d.qualname for d in covered if d.key in reached]
        if live:
            failures.append(f"{where}: stale, reached now: {', '.join(live)}")
    if len(ledger) > LEDGER_CAP:
        failures.append(f"{LEDGER.name}: {len(ledger)} entries, over the cap of {LEDGER_CAP}")
    counts = {"defs": len(defs), "reached": 0, "dunder": 0, "ledgered": 0}
    for d in defs:
        if d.key in reached:
            counts["reached"] += 1
        elif d.dunder:
            counts["dunder"] += 1
        elif any(entry.covers(d) for entry in ledger):
            counts["ledgered"] += 1
        else:
            failures.append(f"src/{d.path}:{d.line}: {d.qualname} is reached by no "
                            f"entry point and not in {LEDGER.name}: delete it, or "
                            "ledger it with a reason")
    return failures, counts


def gate(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    failed = run_missing(out, entry_points(out))
    reached = {line for file in sorted(out.glob("*.txt"))
               for line in file.read_text().split()}
    defs = definitions(SRC / "repro")
    ledger = read_ledger(LEDGER.read_text())
    failures, counts = census(defs, reached, ledger, transitions(MODELCOV.read_text()))
    failures = [f"entry point {line}" for line in failed] + failures
    print(f"census: {counts['defs']} defs under src/repro, {counts['reached']} reached by "
          f"{len(list(out.glob('*.txt')))} entry points, {counts['dunder']} unreached "
          f"dunders exempt, {counts['ledgered']} ledgered by {len(ledger)} entries")
    for failure in failures:
        print(f"census: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if args[:1] == ["record"]:
        if len(args) < 5 or args[3] != "--":
            sys.exit("usage: census.py record DIR LABEL -- ARGV...")
        return record(Path(args[1]), args[2], args[4:])
    if args[:1] == ["--records"] and len(args) == 2:
        return gate(Path(args[1]).resolve())
    if args:
        sys.exit("usage: census.py [--records DIR] | census.py record DIR LABEL -- ARGV...")
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        return gate(Path(scratch))


if __name__ == "__main__":
    sys.exit(main())
