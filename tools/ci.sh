#!/bin/sh
# Offline CI gate: lint, static analysis, tier-1 tests.  No network.
set -e

cd "$(dirname "$0")/.."

echo "== lint =="
python tools/lint_repro.py

echo "== layering (repro.cql owns the predicate algebra and imports no higher layer) =="
if git grep -nE "^(from|import) repro\.(analysis|cbn|core|system)" -- src/repro/cql; then
    echo "ci: src/repro/cql must not import repro.analysis/cbn/core/system" >&2
    exit 1
fi

echo "== layering (group reconciliation: one owner per layer under repro.system) =="
# Result profiles and result-stream names are read by CosmosSystem.reconcile_group
# (system/cosmos.py), the source profile by Processor._sync_group (system/node.py).
if git grep -nE "result_profiles_of|result_stream_of" -- src/repro/system ':!src/repro/system/cosmos.py' \
   || git grep -nF "source_profile(" -- src/repro/system ':!src/repro/system/node.py'; then
    echo "ci: only system/cosmos.py may read a group's result profiles / result stream," \
         "only system/node.py may compose its source profile" >&2
    exit 1
fi
if [ "$(git grep -cF "result_profiles_of(" -- src/repro/system/cosmos.py | cut -d: -f2)" != 1 ]; then
    echo "ci: system/cosmos.py must compose a group's result profiles in exactly one place" >&2
    exit 1
fi

echo "== one routing routine, one evaluator of intervals (repro.cbn) =="
# ContentBasedNetwork._route is the data plane (the walk it memoises is the
# definition of routing), cql/predicates.py the only interval membership test.
if git grep -nE "_route_batch|decide_batch|local_deliveries_batch|ColumnBatch" -- src/repro/cbn; then
    echo "ci: src/repro/cbn must not grow a second routing routine or a columnar evaluator" >&2
    exit 1
fi

echo "== a published tuple costs its deliveries (repro.cbn) =="
# _StreamFacts.classify reads the outcomes of a stream's distinct conjunctions off
# its OutcomeIndex (one bisect per constrained attribute), not one test each.
if git grep -nE "condition\.evaluate\(payload\) for" -- src/repro/cbn; then
    echo "ci: src/repro/cbn must classify through the stream's OutcomeIndex," \
         "not evaluate every conjunction per datagram" >&2
    exit 1
fi

echo "== one join, one window (repro.spe) =="
# spe/windows.py::KeyedWindow is the only operator state, spe/operators.py::WindowJoin
# the only join; which joins are keyed is read off the registered query, so no
# deployment code chooses a join strategy.
if git grep -nE "IndexedSymmetricJoin|SymmetricWindowJoin|WindowBuffer|_HashedWindow" -- src/repro \
   || git grep -nF "join_strategy" -- src/repro/system; then
    echo "ci: src/repro must not grow a second join or window class," \
         "src/repro/system must not pick a join strategy" >&2
    exit 1
fi

echo "== self-tuning and repair cost what they change (repro.overlay, repro.cbn) =="
# OverlayOptimizer prices a swap along its cycle and builds a tree only for the
# accepted one; _StreamFacts holds no tree, so retree has no facts to drop.
if [ "$(git grep -cF "with_edge_swap" -- src/repro/overlay/optimizer.py | cut -d: -f2)" != 1 ]; then
    echo "ci: overlay/optimizer.py must build a tree in exactly one place (the accepted swap)" >&2
    exit 1
fi
if git grep -nF "_facts.clear()" -- src/repro/cbn/network.py \
   || git grep -nE '__slots__ = .*"tree"' -- src/repro/cbn/network.py; then
    echo "ci: cbn/network.py must not drop the per-stream facts wholesale," \
         "and _StreamFacts must not hold a tree" >&2
    exit 1
fi

echo "== failure detection costs what fails (repro.sim) =="
# FailureDetector.sweep renews every answering node through one shared lease;
# the chaos supervisor hands it the silent nodes and never walks the monitored set.
if git grep -nE "detector\.monitored|\.heartbeat\(" -- src/repro/sim; then
    echo "ci: src/repro/sim must sweep the failure detector with its silent nodes," \
         "not heartbeat each monitored node" >&2
    exit 1
fi

echo "== layering (the runtime does not import the static analyzer) =="
# Queries are vetted by `repro check` / analysis.checker.analyze_query before
# submit; CosmosSystem.submit validates names itself and imports no analyzer.
if git grep -nF "repro.analysis" -- src/repro ':!src/repro/analysis' ':!src/repro/cli.py'; then
    echo "ci: only src/repro/analysis/ and src/repro/cli.py may mention repro.analysis" >&2
    exit 1
fi

echo "== one tree, one propagation rule, no orphan wire format (repro.cbn, repro.system) =="
# Every stream routes on the one tree retree, repair and the optimizer maintain;
# subscriptions travel toward advertised publishers only; byte accounting is
# Datagram.size_bytes, so there is no second definition of a datagram's bytes.
if git grep -nE "stream_trees|set_stream_tree|tree_for|scope_to_advertisements|_flood_subscription|per_source_trees|static_check" -- src/repro \
   || [ -e src/repro/cbn/codec.py ]; then
    echo "ci: src/repro must not grow per-stream trees, subscription flooding," \
         "a static-check submit option or cbn/codec.py back" >&2
    exit 1
fi

echo "== one price for a flow (repro.core, repro.overlay, repro.system) =="
# CostModel.group_flows enumerates a group's flows and DisseminationTree.flow_cost
# prices them: placement, migration, cost-aware distribution, the optimizer's
# demand matrix and Fig 4's non-shared delivery all go through the two, so a
# rate meets a tree path in one place.
priced='\*[[:space:]]*[A-Za-z_.]*path_weight\(|path_weight\([^)]*\)[[:space:]]*\*'
if [ "$(git grep -nE "$priced" -- src/repro | wc -l)" != 1 ] \
   || ! git grep -qE "$priced" -- src/repro/overlay/tree.py; then
    git grep -nE "$priced" -- src/repro >&2 || true
    echo "ci: only DisseminationTree.flow_cost may multiply a rate by path_weight" >&2
    exit 1
fi
if git grep -nE "UnicastCostModel|CapacityAwareDistribution|hop_count_cost" -- src/repro \
   || git grep -nF "tuple_width" -- src/repro/system/tuning.py; then
    echo "ci: src/repro must not grow a second flow pricer or the deleted policy back," \
         "and the optimizer's demands must not price a source flow unprojected" >&2
    exit 1
fi

echo "== install costs what it changes (repro.core, repro.system) =="
# reconcile_group keeps a member's subscription while its recomposed profile
# equals the installed one, so there is no re-subscription filter to pass; a
# residual atom's terms are read off the atom, not off a one-atom conjunction.
if git grep -nE "only=|from_atoms\(\[atom\]\)" -- src/repro/system src/repro/core; then
    echo "ci: src/repro/system and src/repro/core must not narrow a reconciliation" \
         "with only= or build a conjunction per atom" >&2
    exit 1
fi

echo "== one routing-table mode (repro) =="
# Every subscription keeps its own entry behind every interface it crossed:
# covering aggregation (suppress a subsumed entry, restore it when its coverer
# leaves) was measured to move no byte and cost 3-8x at install, and was deleted.
if git grep -nE "use_subsumption|_restore\(" -- src/repro; then
    echo "ci: src/repro must not grow covering aggregation back" >&2
    exit 1
fi

echo "== one memo on the data plane (repro.cbn) =="
# The network's per-stream facts and routes are the only versioned cache: a
# routing table reports the streams a mutation touched and keeps no plan cache
# (it served 10-30 % of its lookups under the route cache), and a profile
# resolves each stream once through Profile.matcher.
if git grep -nE "_plans|_plan\(|_stream_versions|self\.epoch" -- src/repro/cbn/routing.py; then
    echo "ci: cbn/routing.py must not grow a versioned plan cache back" >&2
    exit 1
fi

echo "== only what runs (repro) =="
# BA is the one topology generator, stream affinity (cost-aware and round-robin
# in the placement ablation) the placement policies, one entry per subscription
# the routing table; brokers are tree positions with no object of their own.
# The Waxman generator, least-loaded and proximity placement, profile merging
# and the broker registry had no caller outside their own tests and were deleted.
if git grep -nE "waxman|LeastLoadedDistribution|ProximityDistribution|class Broker|\.brokers|_dedupe_filters" -- src/repro \
   || git grep -nF "def merge(" -- src/repro/cbn/filters.py; then
    echo "ci: src/repro must not grow a deleted generator, placement policy," \
         "profile merging or the broker registry back" >&2
    exit 1
fi

echo "== repro check =="
PYTHONPATH=src python -m repro check

echo "== repro check --self (COS5xx/6xx/7xx/8xx/9xx source lint, <10s budget) =="
PYTHONPATH=src python -m repro check --self --strict --json > BENCH_selfcheck.json
python - <<'EOF'
import json
payload = json.load(open("BENCH_selfcheck.json"))
wall = payload["analyzer"]["wall_seconds"]
passes = [entry["name"] for entry in payload["analyzer"]["passes"]]
print(f"analyzer passes: {', '.join(passes)}; wall {wall:.2f}s")
assert wall < 10.0, f"analyzer runtime budget exceeded: {wall:.2f}s >= 10s"
EOF

echo "== tier-1 tests =="
PYTHONPATH=src:. python -m pytest -x -q

echo "== bench harness tests (every span target in bench/tracing.py resolves) =="
python -m pytest bench -q

echo "== archived tables (every ablation, the unicast baseline and Table 1: regenerated, must not move) =="
# The grouping tables (policies, periodic re-grouping, window widening, Table 1)
# move with any change to a grouping decision, so such a change cannot pass silently.
PYTHONPATH=src:. python -m pytest -q \
    benchmarks/test_ablations.py \
    benchmarks/test_baseline_unicast.py \
    benchmarks/test_table1_queries.py::test_table1_end_to_end
git diff --exit-code -- benchmarks/results/ablation_overlay_optimizer.txt \
    benchmarks/results/ablation_placement.txt benchmarks/results/baseline_unicast.txt \
    benchmarks/results/ablation_early_projection.txt \
    benchmarks/results/ablation_schema_distribution.txt \
    benchmarks/results/ablation_grouping_policies.txt \
    benchmarks/results/ablation_periodic_regrouping.txt \
    benchmarks/results/ablation_window_widening.txt \
    benchmarks/results/table1_queries.txt

echo "== bench pinned runs (seed 0: result_digest + link_cost vs bench/pins.json) =="
# sensor-fanout is the per-tuple publish path at scale (the route cache's
# claimed workload), burst-scale reads the routing tables in bulk, query-churn
# is their write path (subscribe/unsubscribe), fault-repair the repair path
# (retree), join-window the one workload whose results are made by the SPE's
# joins and aggregates, chaos-migrate the self-healing path (run_chaos under
# recovery and live migration).
# A single run exits 0 whatever it found; its last stdout line is the verdict
# (a result_digest off bench/pins.json is a failed operation).
for workload in sensor-fanout burst-scale query-churn fault-repair join-window chaos-migrate; do
    python3 bench/run.py --workload "$workload" --seed 0 --seconds 15 --trace 0 | tail -1 | python3 -c '
import json, sys
run = json.loads(sys.stdin.read())
assert run["correct"] and run["failed"] == 0, run
print("%s seed 0: %d operations, 0 failed, tuples_per_s %.0f"
      % (sys.argv[1], run["attempted"], run["metrics"]["tuples_per_s"]["value"]))
' "$workload"
done

echo "== chaos scale smoke (1000-node overlay, recovery + conformance) =="
PYTHONPATH=src python -m repro chaos --seeds 3 --nodes 1000 --recovery --conform --json BENCH_chaos_scale.json

echo "== chaos smoke (seeded fault injection + conformance) =="
PYTHONPATH=src python -m repro chaos --seeds 25 --conform --json BENCH_chaos.json

echo "== chaos recovery smoke (self-healing, exact delivery + conformance oracles) =="
PYTHONPATH=src python -m repro chaos --seeds 25 --recovery --conform --json BENCH_chaos_recovery.json

echo "== chaos migration smoke (live group migration under faults, zero-loss) =="
PYTHONPATH=src python -m repro chaos --seeds 25 --recovery --migrate --conform --json BENCH_chaos_migration.json
python - <<'EOF'
import json
payload = json.load(open("BENCH_chaos_migration.json"))
assert payload["ok"], "migration sweep failed"
for record in payload["seeds"]:
    seed = record["seed"]
    assert record["ok"], f"seed {seed}: oracle violations {record['violations']}"
    assert not record["conformance_violations"], (
        f"seed {seed}: conformance violations {record['conformance_violations']}"
    )
    completed = record["health"]["migrations_completed"]
    assert completed >= 1, f"seed {seed}: no live migration completed"
total = payload["totals"]["migrations_completed"]
print(f"migration sweep: {total} live migrations, zero loss, zero violations")
EOF

echo "== bounded model check + chaos coverage (COS901-905, >=90% gate) =="
PYTHONPATH=src python -m repro model --strict --json \
    --coverage BENCH_chaos.json BENCH_chaos_recovery.json \
               BENCH_chaos_migration.json BENCH_chaos_scale.json \
    > BENCH_modelcov.json
python - <<'EOF'
import json
payload = json.load(open("BENCH_modelcov.json"))
model = payload["model"]
assert model["exhausted"], "model exploration truncated — raise the cap"
hard = [d for d in payload["diagnostics"]
        if d["code"] in ("COS901", "COS902", "COS903", "COS904")]
assert not hard, f"model-check errors: {hard}"
cold = [d for d in payload["diagnostics"] if d["code"] == "COS905"]
assert not cold, f"un-baselined cold transitions: {cold}"
cov = payload["coverage"]
gated = cov["coverage_gated"]
assert gated >= 0.90, f"coverage gate: {gated:.0%} < 90%"
print(
    f"model: {model['states']} states, {model['edges']} edges, exhausted; "
    f"coverage {cov['transitions_exercised']}/{cov['transitions_total']} "
    f"(raw {cov['coverage_raw']:.0%}, gated {gated:.0%}, "
    f"{cov['transitions_baselined']} baselined)"
)
EOF

echo "== pinned artefacts (the sweeps above rewrote them; a refactor must not move a trace digest) =="
# BENCH_selfcheck.json carries wall time and stays out.
for artefact in BENCH_chaos.json BENCH_chaos_recovery.json \
                BENCH_chaos_migration.json BENCH_chaos_scale.json \
                BENCH_modelcov.json; do
    git diff --exit-code --stat -- "$artefact" || {
        echo "ci: $artefact drifted from the committed copy." >&2
        echo "ci: an intended behaviour change must commit the new file;" \
             "anything else moved a chaos trace or the model coverage by accident." >&2
        exit 1
    }
done

echo "== ci: all gates passed =="
