"""Command-line interface.

::

    python -m repro experiments [--full]   # regenerate Table 1, Fig 3, Fig 4
    python -m repro table1 [--items N]     # the Table 1 verification only
    python -m repro fig3  [--items N]      # the Figure 3 measurement only
    python -m repro fig4  [--full]         # the Figure 4 sweep only
    python -m repro demo                   # the quickstart scenario + monitor
    python -m repro check [--workload W] [--strict]   # workload static analysis
    python -m repro check --self [--strict] [--code SPEC] [--json]  # source lint
    python -m repro chaos [--seed N | --seeds N] [--nodes N] [--recovery] [--migrate] [--trace] [--json PATH]
    python -m repro flow [--json | --dot]  # extracted lifecycle state machines
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "COSMOS reproduction: content-based networking for distributed "
            "stream processing (Zhou et al., ICDE 2008)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiments", help="run every experiment and print reports")
    exp.add_argument("--full", action="store_true", help="paper-scale Figure 4 sweep")

    t1 = sub.add_parser("table1", help="Table 1: representative query and split")
    t1.add_argument("--items", type=int, default=300, help="auctions to replay")

    f3 = sub.add_parser("fig3", help="Figure 3: shared vs non-shared delivery")
    f3.add_argument("--items", type=int, default=200, help="auctions to replay")

    f4 = sub.add_parser("fig4", help="Figure 4: grouping performance sweep")
    f4.add_argument("--full", action="store_true", help="paper-scale parameters")

    sub.add_parser("demo", help="run the quickstart scenario with a status report")

    chk = sub.add_parser(
        "check", help="statically analyse a workload (schema, satisfiability) "
        "or, with --self, the package's own source"
    )
    _add_check_flags(chk)

    ch = sub.add_parser(
        "chaos",
        help="seeded fault-injection simulation checked by delivery oracles",
    )
    ch.add_argument(
        "--seed",
        type=int,
        default=None,
        help="replay exactly one seed (prints its full event trace)",
    )
    ch.add_argument(
        "--seeds",
        type=int,
        default=10,
        help="sweep seeds 0..N-1 (default 10; ignored with --seed)",
    )
    ch.add_argument(
        "--faults", type=int, default=2, help="crash events per run (default 2)"
    )
    ch.add_argument(
        "--nodes",
        type=int,
        default=None,
        help="overlay size per run (default 18; the scale smoke uses 1000)",
    )
    ch.add_argument(
        "--recovery",
        action="store_true",
        help="self-healing mode: reliable uplinks heal losses, crashes "
        "are heartbeat-detected, and the delivery oracle demands the "
        "exact pristine feed (zero tolerated losses)",
    )
    ch.add_argument(
        "--migrate",
        action="store_true",
        help="adaptive load management: schedules carry hotspot scans "
        "plus a forced rebalance probe, and hot query groups move "
        "between processors by zero-loss live migration (requires "
        "--recovery)",
    )
    ch.add_argument(
        "--trace", action="store_true", help="print every run's event trace"
    )
    ch.add_argument(
        "--no-shrink",
        dest="shrink",
        action="store_false",
        help="on failure, skip shrinking to a minimal schedule",
    )
    ch.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write run counters as JSON (the CI bench artifact)",
    )

    fl = sub.add_parser(
        "flow",
        help="dump the lifecycle state machines statically extracted "
        "from the package source",
    )
    fmt = fl.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the full model as JSON (default)",
    )
    fmt.add_argument(
        "--dot",
        action="store_true",
        help="print the state machines as Graphviz DOT digraphs",
    )

    mo = sub.add_parser(
        "model",
        help="bounded model check of the composed protocol machines "
        "(COS901-904) and, with --coverage, chaos-corpus transition "
        "coverage (COS905)",
    )
    mo.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="N",
        help="bound the BFS exploration radius (default: exhaust; "
        "liveness checks are skipped on truncated runs)",
    )
    mofmt = mo.add_mutually_exclusive_group()
    mofmt.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the model summary, findings and coverage as JSON "
        "(the BENCH_modelcov.json contract)",
    )
    mofmt.add_argument(
        "--dot",
        action="store_true",
        help="print the reachable product subgraph as Graphviz DOT "
        "(combine with --depth for a readable rendering)",
    )
    mo.add_argument(
        "--coverage",
        metavar="PATH",
        nargs="+",
        default=None,
        help="chaos --json artifact(s) or directories of "
        "them; flags model transitions the corpus never exercised "
        "(COS905)",
    )
    mo.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="coverage baseline ledger "
        "(default: tools/modelcov-baseline.txt when present)",
    )
    mo.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any coverage baseline file",
    )
    mo.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings (un-baselined COS905) as failures (exit 1)",
    )
    return parser


def _add_check_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload",
        choices=["auction", "sensorscope", "all"],
        default="all",
        help="builtin workload to analyse (default: all; ignored with --self)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as failures (exit 1)",
    )
    parser.add_argument(
        "--self",
        dest="self_lint",
        action="store_true",
        help="lint the repro package source itself (COS5xx determinism, "
        "COS7xx style, COS81x lifecycles, COS90x model check)",
    )
    parser.add_argument(
        "--code",
        metavar="SPEC",
        action="append",
        default=None,
        help="restrict findings to a comma list of codes or families "
        "(e.g. COS503 or COS8xx,COS701); repeatable — multiple --code "
        "flags accumulate",
    )
    parser.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print findings as JSON (file, line, code, severity, message)",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline ledger of accepted findings "
        "(default: tools/cos-baseline.txt when present; --self only)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file (--self only)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline path and exit 0",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    if args.self_lint:
        return _cmd_check_self(args)
    import json

    from repro.analysis import BUILTIN_WORKLOADS, Report, analyze_builtin
    from repro.analysis.source import SourceError, parse_code_spec, spec_matches

    try:
        codes = parse_code_spec(",".join(args.code)) if args.code else None
    except SourceError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    names = list(BUILTIN_WORKLOADS) if args.workload == "all" else [args.workload]
    combined = Report()
    for name in names:
        report = analyze_builtin(name)
        if codes:
            report = Report(d for d in report if spec_matches(codes, d.code))
        combined.extend(report)
        if not args.as_json:
            status = "clean" if report.is_clean else (
                f"{len(report.errors)} error(s), "
                f"{len(report.warnings)} warning(s)"
            )
            print(f"workload {name}: {status}")
    if args.as_json:
        print(json.dumps(combined.to_dict(), indent=2))
    else:
        print(combined.render())
    return combined.exit_code(args.strict)


def _cmd_check_self(args: argparse.Namespace) -> int:
    """``repro check --self``: the COS5xx/6xx/7xx source lint."""
    import json
    from pathlib import Path

    from repro.analysis import (
        Baseline,
        SourceError,
        check_package,
        default_baseline_path,
        default_package_dir,
        parse_code_spec,
    )

    try:
        codes = parse_code_spec(",".join(args.code)) if args.code else None
        package = default_package_dir()
        baseline_path = (
            Path(args.baseline) if args.baseline else default_baseline_path(package)
        )
        if args.write_baseline:
            report, _ = check_package(package, codes=codes)
            baseline_path.write_text(Baseline.from_report(report).dump())
            print(f"wrote {len(report)} finding(s) to {baseline_path}")
            return 0
        baseline = None
        if not args.no_baseline and baseline_path.is_file():
            baseline = Baseline.load(baseline_path)
        timings: dict = {}
        report, forgiven = check_package(
            package, baseline=baseline, codes=codes, timings=timings
        )
    except SourceError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    if args.as_json:
        payload = report.to_dict()
        payload["forgiven"] = forgiven
        passes = [
            {"name": name, "seconds": round(seconds, 6)}
            for name, seconds in timings.items()
        ]
        # the total is the sum of the figures printed, not a separately
        # rounded sum, so the payload's parts add up to its whole
        payload["analyzer"] = {
            "passes": passes,
            "wall_seconds": round(sum(entry["seconds"] for entry in passes), 6),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report.render())
        if forgiven:
            print(f"{forgiven} baselined finding(s) suppressed")
    return report.exit_code(args.strict)


def _extract_machines():
    """The lifecycle state machines of the installed package source."""
    from repro.analysis.lifecycle import extract_lifecycle
    from repro.analysis.selfcheck import default_package_dir
    from repro.analysis.source import load_package

    return extract_lifecycle(load_package(default_package_dir()))


def _machine_dot(machine) -> str:
    """One Graphviz digraph per machine (the docs render these)."""
    lines = [f'digraph "{machine.name}" {{', "  rankdir=LR;"]
    for state in machine.states:
        attrs = []
        if state in machine.initial:
            attrs.append("style=bold")
        if state in machine.terminal:
            attrs.append("peripheries=2")
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f'  "{state}"{suffix};')
    for t in machine.transitions:
        lines.append(f'  "{t.source}" -> "{t.target}" [label="{t.label}"];')
    lines.append("}")
    return "\n".join(lines)


def _cmd_flow(args: argparse.Namespace) -> int:
    """``repro flow``: dump the extracted lifecycle state machines."""
    import json

    machines = _extract_machines()
    if args.dot:
        print("\n\n".join(_machine_dot(machine) for machine in machines))
        return 0
    payload = {"machines": [machine.to_dict() for machine in machines]}
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    """``repro model``: COS90x bounded model checking + coverage.

    Composes the extracted lifecycle machines with the environment
    automaton, explores the product exhaustively (or to ``--depth``),
    and reports COS901-904.  With ``--coverage`` the aggregated
    executor ``transitions`` of the given chaos artifacts are
    mapped onto the model and never-exercised transitions become
    COS905 warnings, minus the coverage baseline ledger.
    """
    import json
    from pathlib import Path

    from repro.analysis.lifecycle import extract_lifecycle
    from repro.analysis.model import (
        build_product,
        check_model,
        model_summary,
        product_dot,
    )
    from repro.analysis.modelcov import (
        check_coverage,
        coverage,
        default_coverage_baseline,
        load_corpus,
        summarize,
    )
    from repro.analysis.selfcheck import default_package_dir
    from repro.analysis.source import Baseline, SourceError, load_package

    try:
        modules = load_package(default_package_dir())
    except SourceError as exc:
        print(f"repro model: {exc}", file=sys.stderr)
        return 2
    machines = extract_lifecycle(modules)
    model = build_product(machines, modules)
    report, exploration = check_model(model, depth=args.depth)

    if args.dot:
        print(product_dot(model, exploration))
        return 0

    forgiven = 0
    coverage_payload = None
    if args.coverage:
        corpus = load_corpus([Path(p) for p in args.coverage])
        results = coverage(model, exploration, corpus)
        coverage_report = check_coverage(results, corpus)
        baseline_path = (
            Path(args.baseline)
            if args.baseline
            else default_coverage_baseline()
        )
        if not args.no_baseline and baseline_path.is_file():
            baseline = Baseline.load(baseline_path)
            coverage_report, forgiven, stale = baseline.audit(
                coverage_report
            )
            for rel, code, leftover in stale:
                coverage_report.add(
                    "COS704",
                    f"baseline allows {leftover} more {code} finding(s) "
                    f"in {rel} than the corpus still misses — remove "
                    "the entry (or lower its count)",
                    rel,
                    None,
                )
        report.extend(coverage_report)
        coverage_payload = summarize(results, corpus, forgiven)

    if args.as_json:
        payload = {"model": model_summary(model, exploration)}
        payload.update(report.to_dict())
        payload["forgiven"] = forgiven
        if coverage_payload is not None:
            payload["coverage"] = coverage_payload
        print(json.dumps(payload, indent=2))
        return report.exit_code(args.strict)

    summary = model_summary(model, exploration)
    print(
        f"product: {summary['states']} state(s), {summary['edges']} "
        f"edge(s), max depth {summary['max_depth']}, "
        + ("exhausted" if summary["exhausted"] else "TRUNCATED")
    )
    if model.uncertified:
        for action, anchor in model.uncertified:
            print(
                f"uncertified: {action} guard dropped — {anchor.func}() "
                f"in {anchor.module} lost {anchor.needle!r}"
            )
    if coverage_payload is not None:
        print(
            f"coverage: {coverage_payload['transitions_exercised']}/"
            f"{coverage_payload['transitions_total']} model "
            f"transition(s) exercised by {coverage_payload['seeds']} "
            f"seed(s) "
            f"(raw {coverage_payload['coverage_raw']:.0%}, gated "
            f"{coverage_payload['coverage_gated']:.0%} after "
            f"{forgiven} baselined)"
        )
    print(report.render())
    if forgiven:
        print(f"{forgiven} baselined finding(s) suppressed")
    return report.exit_code(args.strict)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """The ``repro chaos`` subcommand.

    ``--seed N`` replays one seed deterministically (the trace printed
    is byte-identical on every invocation — compare digests to confirm
    a replay); the default sweep runs seeds ``0..N-1`` as a smoke gate.
    On a violation the failing schedule is shrunk to a minimal event
    list (``--no-shrink`` to skip) and the exit code is 1.  A seed whose
    run raises prints an ``ERROR`` line with the exception, is recorded
    with ``ok: false`` and its ``error``, fails the sweep (exit 1) and is
    not shrunk; the sweep goes on with the next seed.
    """
    import json
    import sys
    from dataclasses import replace

    from repro.sim import ChaosConfig, generate_schedule, run_schedule

    if args.migrate and not args.recovery:
        print(
            "repro chaos: --migrate requires --recovery (zero-loss "
            "migration rides the recovery ordering stage)",
            file=sys.stderr,
        )
        return 2
    seeds = [args.seed] if args.seed is not None else list(range(args.seeds))
    records = []
    failed = False
    for seed in seeds:
        config = ChaosConfig(
            seed=seed,
            n_faults=args.faults,
            recovery=args.recovery,
            migrate=args.migrate,
        )
        if args.nodes is not None:
            config = replace(config, n_nodes=args.nodes)
        schedule = generate_schedule(config)
        try:
            report = run_schedule(config, schedule.events)
        except Exception as error:
            # A seed that raises fails the sweep like a violation, is
            # recorded, and is not shrunk; the later seeds still run.
            failed = True
            message = f"{type(error).__name__}: {error}"
            print(f"chaos seed={seed} ERROR {message}")
            records.append({"seed": seed, "ok": False, "error": message})
            continue
        print(report.render())
        if args.trace or args.seed is not None:
            print(report.trace.render())
        if not report.ok:
            failed = True
            if args.shrink:
                from repro.sim import shrink_failing_schedule

                minimal = shrink_failing_schedule(config, schedule.events)
                print(
                    f"minimal failing schedule "
                    f"({len(minimal)}/{len(schedule.events)} events):"
                )
                for event in minimal:
                    print(f"  {event.render()}")
        counters = report.counters.as_dict()
        record = {
            "seed": seed,
            "ok": report.ok,
            "trace_digest": report.trace.digest(),
            "violations": report.violations,
            **counters,
        }
        record["health"] = report.health
        if args.recovery:
            record["convergence_time"] = report.convergence_time
            record["reliability"] = report.reliability
        record["transitions"] = report.transitions
        records.append(record)
    ran = [r for r in records if "error" not in r]
    totals = {
        "deliveries_checked": sum(r["deliveries"] for r in ran),
        "faults_injected": sum(r["faults_applied"] for r in ran),
        "faults_refused": sum(r["faults_refused"] for r in ran),
        "tuples_injected": sum(r["injects"] for r in ran),
        "tuples_dropped": sum(r["drops"] for r in ran),
        "violations": sum(len(r["violations"]) for r in ran),
    }
    if args.recovery:
        for key in (
            "retransmits",
            "duplicates_suppressed",
            "gaps_abandoned",
            "repairs_applied",
            "queries_quarantined",
        ):
            totals[key] = sum(r["reliability"][key] for r in ran)
    if args.migrate:
        for key in (
            "hotspots_detected",
            "migrations_started",
            "migrations_completed",
            "migrations_aborted",
            "migrations_retried",
        ):
            totals[key] = sum(r["health"][key] for r in ran)
    print(
        "chaos totals: "
        + " ".join(f"{key}={value}" for key, value in totals.items())
    )
    if args.json:
        payload = {"seeds": records, "totals": totals, "ok": not failed}
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 1 if failed else 0


def _cmd_demo() -> int:
    import random

    from repro.overlay import DisseminationTree, barabasi_albert
    from repro.system import CosmosSystem, SystemMonitor
    from repro.workload import (
        QueryWorkload,
        SensorScopeReplayer,
        WorkloadConfig,
        sensorscope_catalog,
    )

    rng = random.Random(1)
    catalog = sensorscope_catalog(8, rng=random.Random(1))
    topology = barabasi_albert(60, 2, rng)
    tree = DisseminationTree.minimum_spanning(topology)
    system = CosmosSystem(tree, processor_nodes=[0, 1], topology=topology)
    for index, schema in enumerate(sorted(catalog, key=lambda s: s.name)):
        system.add_source(schema, 10 + index)
    workload = QueryWorkload(
        catalog, WorkloadConfig(skew=1.5, join_fraction=0.0, seed=2)
    )
    for query in workload.generate(40):
        system.submit(query, user_node=rng.randrange(60))
    feed = SensorScopeReplayer(catalog, random.Random(3)).feed(20.0)
    delivered = system.replay(feed)
    print(f"replayed {len(feed)} tuples, delivered {delivered} results\n")
    print(SystemMonitor(system).report())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "experiments":
        from repro.experiments.runner import run_all

        return run_all(args.full)
    if args.command == "table1":
        from repro.experiments.runner import table1_report
        from repro.experiments.table1 import run_table1

        print(table1_report(run_table1(args.items)))
        return 0
    if args.command == "fig3":
        from repro.experiments.fig3 import run_fig3
        from repro.experiments.runner import fig3_report

        print(fig3_report(run_fig3(args.items)))
        return 0
    if args.command == "fig4":
        from repro.experiments.fig4 import Fig4Config, run_fig4
        from repro.experiments.runner import fig4_report

        config = Fig4Config.paper_scale() if args.full else None
        print(fig4_report(run_fig4(config)))
        return 0
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    if args.command == "flow":
        return _cmd_flow(args)
    if args.command == "model":
        return _cmd_model(args)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
