"""Names, units, directions and bounds of everything the benchmark reports.

Later issues cite these names verbatim, so this module is the single
place they are spelled.  ``BENCHMARK.json`` at the repo root is
generated from it (``python3 bench/run.py --write-manifest``) and
``bench/test_bench.py`` fails when the two drift apart.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Seconds one run measures (its install and steady passes on the
#: reference box).
RUN_SECONDS = 15

#: Seed the pinned digests in ``bench/pins.json`` were recorded with.
DEFAULT_SEED = 0

#: (name, why) — one line each; the order is the interleaving order.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "sensor-fanout",
        "paper's regime: 400 zipf-1.0 select-project queries, per-tuple "
        "publish; cbn scalar routing and the system dispatch loop do the work",
    ),
    (
        "burst-scale",
        "1000 nodes, 1000 uniform queries, 16-tuple publish_batch bursts: "
        "the columnar cbn batch path and large routing state, little merging",
    ),
    (
        "join-window",
        "joins and windowed aggregates on 8 streams: spe operators do the "
        "work, cbn little; merged representatives are checked end to end",
    ),
    (
        "query-churn",
        "submit/withdraw churn: cql parse, core grouping, profile composition "
        "and cbn subscribe/unsubscribe do the work, the data plane almost none",
    ),
    (
        "fault-repair",
        "a broker fails between feed slices, then one reorganisation and one "
        "processor failure: tree repair, rebuild_network and overlay do the work",
    ),
    (
        "chaos-migrate",
        "run_chaos with recovery and migration: sequenced uplinks, NACKs, "
        "live group migration and the simulator twins with their oracle",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(name for name, __ in WORKLOADS)

#: (name, unit, better, bound).  Every workload reports every one of
#: these; the bound is the share of the parent's median a later change
#: may lose.  The wall-clock bounds are the widest the gate allows: on
#: this shared box ten runs of one workload spread 2-6 % while the host
#: holds one speed and up to 14 % across its flips, even deflated (README).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("install_qps", "1/s", "higher", 0.25),
    ("install_p95_ms", "ms", "lower", 0.25),
    ("tuples_per_s", "1/s", "higher", 0.25),
    ("publish_p50_ms", "ms", "lower", 0.25),
    ("publish_p99_ms", "ms", "lower", 0.25),
    ("link_cost", "bytes", "lower", 0.05),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: span name -> what it wraps (README table; the patch targets live in
#: ``tracing.SPAN_TARGETS``).
SPANS: Tuple[str, ...] = (
    "cql.parse",
    "system.submit",
    "system.withdraw",
    "core.manager.submit",
    "core.manager.withdraw",
    "core.grouping.add",
    "core.grouping.remove",
    "core.profiles.result",
    "spe.register",
    "cbn.subscribe",
    "cbn.unsubscribe",
    "cbn.advertise",
    "system.publish",
    "cbn.route",
    "spe.push",
    "overlay.mst",
    "overlay.repair_tree",
    "system.rebuild",
    "system.fail_broker",
    "system.fail_processor",
    "overlay.optimize",
    "sim.execute",
    "sim.oracle",
    "system.reliability.offer",
    "system.loadmgr.capture",
    "system.loadmgr.cutover",
)

#: (name, unit, better) of the counts and single-phase timings read at
#: the end of the traced rep.  The four timings at the top exist on one
#: workload each (0 elsewhere), which is why they cannot be end-to-end
#: metrics under the every-workload-reports-every-metric contract.
LAYER_VALUES: Tuple[Tuple[str, str, str], ...] = (
    ("repair_p50_ms", "ms", "lower"),
    ("repair_p90_ms", "ms", "lower"),
    ("reorganize_s", "s", "lower"),
    ("chaos_events_per_s", "1/s", "higher"),
    ("core.groups", "count", "lower"),
    ("core.grouping_ratio", "ratio", "lower"),
    ("core.benefit_ratio", "ratio", "higher"),
    ("cbn.routing_state_size", "count", "lower"),
    ("cbn.link_messages", "count", "lower"),
    ("cbn.link_bytes", "bytes", "lower"),
    ("cbn.control_messages", "count", "lower"),
    ("cbn.deliveries.src", "count", "lower"),
    ("cbn.deliveries.user", "count", "higher"),
    ("cbn.user_delivery_ratio", "ratio", "higher"),
    ("spe.tuples_in", "count", "lower"),
    ("spe.results_out", "count", "higher"),
    ("spe.result_ratio", "ratio", "higher"),
    ("system.repairs_refused", "count", "lower"),
    ("sim.events", "count", "higher"),
    ("sim.retransmits", "count", "lower"),
    ("sim.migrations_completed", "count", "higher"),
    ("sim.violations", "count", "lower"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.span_coverage", "ratio", "higher"),
    ("bench.calibration_ms", "ms", "lower"),
)


def per_layer() -> List[Dict[str, str]]:
    """The ``per_layer`` list of the manifest, in output order."""
    out: List[Dict[str, str]] = []
    for span in SPANS:
        out.append({"name": f"{span}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{span}.self_ms", "unit": "ms", "better": "lower"})
    for name, unit, better in LAYER_VALUES:
        out.append({"name": name, "unit": unit, "better": better})
    return out


def manifest() -> Dict[str, object]:
    """``BENCHMARK.json`` as the builder's contract shapes it."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": per_layer(),
    }


#: metric name -> unit, for every reported metric.
UNITS: Dict[str, str] = {name: unit for name, unit, __, __ in END_TO_END}
UNITS.update((entry["name"], entry["unit"]) for entry in per_layer())
