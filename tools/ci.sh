#!/bin/sh
# Offline CI gate: static analysis, tier-1 tests.  No network.
set -e

cd "$(dirname "$0")/.."

# What CI's own entry points reach, for the census ("what runs stays"): the
# chaos, check and model steps below run under tools/census.py record.
census_dir=$(mktemp -d)
trap 'rm -rf "$census_dir"' EXIT
census="python tools/census.py record $census_dir"

echo "== layering (repro.cql owns the predicate algebra and imports no higher layer) =="
if git grep -nE "^(from|import) repro\.(analysis|cbn|core|system)" -- src/repro/cql; then
    echo "ci: src/repro/cql must not import repro.analysis/cbn/core/system" >&2
    exit 1
fi

echo "== layering (group reconciliation: one owner per layer under repro.system) =="
# Result profiles and result-stream names are read by CosmosSystem.reconcile_group
# (system/cosmos.py); the source profile is composed, and the result stream the
# SPE registration publishes on is read, by Processor.commit (system/node.py).
if git grep -nF "result_profiles_of" -- src/repro/system ':!src/repro/system/cosmos.py' \
   || git grep -nF "result_stream_of" -- src/repro/system ':!src/repro/system/cosmos.py' ':!src/repro/system/node.py' \
   || [ "$(git grep -cF "result_stream_of(" -- src/repro/system/node.py | cut -d: -f2)" != 1 ] \
   || git grep -nF "source_profile(" -- src/repro/system ':!src/repro/system/node.py'; then
    echo "ci: only system/cosmos.py may read a group's result profiles / result stream," \
         "only system/node.py may compose its source profile (and read the result" \
         "stream once, for the SPE registration)" >&2
    exit 1
fi
if [ "$(git grep -cF "result_profiles_of(" -- src/repro/system/cosmos.py | cut -d: -f2)" != 1 ]; then
    echo "ci: system/cosmos.py must compose a group's result profiles in exactly one place" >&2
    exit 1
fi

echo "== one commit installs a group (repro.core, repro.system) =="
# Processor.commit is the one place a group's SPE registration and src:
# subscription are installed, kept or dropped; the query manager groups, names
# and composes member profiles and drives no engine.  Outside system/cosmos.py
# the system's registries are read through its read-only accessors (queries,
# find_query, sources, result_subscription_of, subscriber_of).
if git grep -nE "(^|[^_[:alnum:]])(system|primary|fast|naive)\._(queries|sources|user_subscriptions|subscribers|installed)([^_[:alnum:]]|$)" \
       -- src/repro ':!src/repro/system/cosmos.py'; then
    echo "ci: only system/cosmos.py may read CosmosSystem's private registries" >&2
    exit 1
fi
python - <<'EOF'
import ast, pathlib, sys

def installs(call):
    """spe.register / spe.deregister, or a network.subscribe of a src: id."""
    func = call.func
    if not isinstance(func, ast.Attribute) or not isinstance(func.value, ast.Attribute):
        return False
    if func.value.attr == "spe" and func.attr in ("register", "deregister"):
        return True
    return func.value.attr == "network" and func.attr == "subscribe" and any(
        isinstance(node, ast.Constant) and str(node.value).startswith("src:")
        for node in ast.walk(call)
    )

def sites(node, path, owner="<module>"):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from sites(child, path, child.name)
            continue
        if isinstance(child, ast.Call) and installs(child):
            yield (path, owner, child.lineno)
        yield from sites(child, path, owner)

found = [
    site
    for package in ("src/repro/core", "src/repro/system")
    for path in sorted(pathlib.Path(package).rglob("*.py"))
    for site in sites(ast.parse(path.read_text()), path.as_posix())
]
strays = [site for site in found if site[:2] != ("src/repro/system/node.py", "commit")]
for path, owner, line in strays:
    print(f"{path}:{line}: {owner}", file=sys.stderr)
if strays or not found:
    sys.exit("ci: only Processor.commit may register with the SPE"
             " or subscribe a source profile")
EOF

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

echo "== a cold route decides from its class (repro.cbn) =="
# A route-cache miss walks (ContentBasedNetwork._walk) on the outcome bits
# classify already read off the stream's OutcomeIndex: RoutingTable.decide /
# local_deliveries test an entry's ConditionBits against the copy's live mask,
# so nothing the walk or a routing table reaches evaluates a condition, and
# the matcher's own coverage test (Matcher.covers) is gone.  _facts_for, on
# every route, only looks the stream's facts up: it builds no version tuple.
if ! PYTHONPATH=src python - <<'EOF'
import ast, inspect, sys, textwrap

from repro.cbn import filters, network, routing
from repro.cbn.datagram import Datagram
from repro.cql.predicates import Comparison, Conjunction
from repro.overlay.tree import DisseminationTree

def method(owner, name):
    return ast.parse(textwrap.dedent(inspect.getsource(getattr(owner, name))))

def evaluates(tree):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("evaluate", "covers")]

def builds(tree):
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Tuple, ast.List, ast.Dict, ast.Set, ast.ListComp,
                                 ast.SetComp, ast.DictComp, ast.GeneratorExp))
            or (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("tuple", "list", "dict", "set", "frozenset"))]

failures = []
if evaluates(ast.parse(inspect.getsource(routing))):
    failures.append("cbn/routing.py evaluates a condition")
if evaluates(method(network.ContentBasedNetwork, "_walk")):
    failures.append("ContentBasedNetwork._walk evaluates a condition")
if "covers" in vars(filters.Matcher):
    failures.append("Matcher.covers came back")
if builds(method(network.ContentBasedNetwork, "_facts_for")):
    failures.append("ContentBasedNetwork._facts_for builds a tuple or another container")

# Walk a network whose entries filter with intervals, a string bound and !=,
# through projected hops, with every evaluator patched to raise.
edges = [(0, 1), (1, 2), (2, 3), (1, 4)]
net = network.ContentBasedNetwork(DisseminationTree(edges, {e: 1.0 for e in edges}))
net.advertise("S", 0)
conditions = [
    Conjunction.from_atoms([Comparison("a", ">", 1)]),
    Conjunction.from_atoms([Comparison("b", "!=", 2)]),
    Conjunction.from_atoms([Comparison("c", "=", "x")]),
]
for node, condition, kept in zip((3, 4, 2), conditions, ("a", "b", "c")):
    net.subscribe(filters.Profile({"S": {kept}}, [filters.Filter("S", condition)]), node)
net.subscribe(filters.Profile({"S": {"a"}}), 3)
walks = []
for payload in ({"a": 5, "b": 1, "c": "x"}, {"a": 0, "b": 2, "c": "y"}):
    datagram = Datagram("S", payload)
    facts = net._facts_for("S")
    walks.append((datagram, facts, facts.classify(datagram, 0)[4]))

def refuse(*args, **kwargs):
    raise AssertionError("the walk evaluated a condition")

Conjunction.evaluate = filters.Filter.covers = filters.Profile.covers = refuse
try:
    delivered = [len(net._walk(datagram, 0, facts, outcomes)[1])
                 for datagram, facts, outcomes in walks]
    assert delivered == [4, 1], delivered
except AssertionError as exc:
    failures.append(f"a walk: {exc}")
for failure in failures:
    print(f"ci: {failure}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
then
    echo "ci: a route-cache miss must decide from the class's outcome bits" \
         "(see DESIGN.md section 7, \"What a miss costs\")" >&2
    exit 1
fi

echo "== a batch crosses each processor once (repro.system) =="
# CosmosSystem._drive walks a routed batch once, hands each processor its share
# in one Processor.on_source_batch call and routes that share's results as one
# publish_many batch: the per-delivery on_source_data is gone, and nothing in
# the loop over a routed batch's deliveries calls publish_many.
if git grep -nE "on_source_data" -- src/repro; then
    echo "ci: src/repro must not grow the per-delivery on_source_data back" >&2
    exit 1
fi
python - <<'EOF'
import ast, sys

tree = ast.parse(open("src/repro/system/cosmos.py").read())
drive = [node for node in ast.walk(tree)
         if isinstance(node, ast.FunctionDef) and node.name == "_drive"]

def publishes(node):
    return [call.lineno for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "publish_many"]

# the per-delivery loop: a for over what publish_many returned, body and all
walks = [loop for loop in ast.walk(drive[0]) if isinstance(loop, ast.For)
         and publishes(loop.iter)] if len(drive) == 1 else []
if not walks:
    sys.exit("ci: system/cosmos.py must walk publish_many's deliveries in one _drive")
inside = sorted({line for loop in walks for statement in loop.body + loop.orelse
                 for line in publishes(statement)})
if inside:
    sys.exit(f"ci: system/cosmos.py:{inside[0]}: _drive calls publish_many inside"
             " its per-delivery loop; a processor's results leave it as one batch")
EOF

echo "== data-plane values carry no per-instance dict (repro.cbn, repro.spe) =="
# Every published tuple builds several Datagrams (the origin's, its early
# projections, its result rows) and Deliveries, and both routers a
# ForwardDecision per interface they decide on; StreamProcessingEngine.push
# and run wrap each result in a QueryResult.  A dataclass costs a __dict__
# (and, frozen, an object.__setattr__ per field) for each.  Datagram is a
# slotted immutable class, Delivery, QueryResult and ForwardDecision are
# NamedTuples.
if git grep -nE -A1 "^@dataclass" -- src/repro \
   | grep -E "class (Datagram|Delivery|QueryResult|ForwardDecision)[(:]"; then
    echo "ci: Datagram, Delivery, QueryResult and ForwardDecision must not be dataclasses" >&2
    exit 1
fi
if ! PYTHONPATH=src python -c '
from repro.cbn.datagram import Datagram
from repro.cbn.routing import ForwardDecision
assert not hasattr(ForwardDecision(False), "__dict__"), "a ForwardDecision has a __dict__"
d = Datagram("s", {"a": 1})
assert not hasattr(d, "__dict__"), "a Datagram has a __dict__"
try:
    d.stream = "t"
except AttributeError:
    pass
else:
    raise AssertionError("a Datagram accepts attribute assignment")
'; then
    echo "ci: a Datagram must be slotted and immutable, a ForwardDecision slotted" >&2
    exit 1
fi

echo "== a datagram is built once (repro.cbn, repro.spe) =="
# The data plane's own copies (a replayed route's projections, Datagram.project,
# a query's result rows) are dicts it has just built, so they are taken over by
# Datagram.owning; the copying Datagram(...) is for payloads a caller owns.  A
# processor reads push_to's result datagrams as they are: no QueryResult wraps
# them on the way.
python - <<'EOF'
import ast, sys

def function(path, owner, name):
    tree = ast.parse(open(path).read())
    found = [node for cls in ast.walk(tree)
             if isinstance(cls, ast.ClassDef) and cls.name == owner
             for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == name]
    if len(found) != 1:
        sys.exit(f"ci: {path}: no single {owner}.{name} to check")
    return found[0]

def calls(node, callee):
    return [call.lineno for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == callee]

failures = []
for path, owner, name in (
    ("src/repro/cbn/network.py", "ContentBasedNetwork", "_route"),
    ("src/repro/cbn/datagram.py", "Datagram", "project"),
    ("src/repro/spe/engine.py", "_CompiledQuery", "feed"),
):
    for line in calls(function(path, owner, name), "Datagram"):
        failures.append(f"{path}:{line}: {owner}.{name} copies a payload it just"
                        " built through Datagram(...); use Datagram.owning")
path = "src/repro/spe/engine.py"
for line in calls(function(path, "StreamProcessingEngine", "push_to"), "QueryResult"):
    failures.append(f"{path}:{line}: StreamProcessingEngine.push_to wraps its"
                    " results in QueryResults; return the datagrams")
if failures:
    sys.exit("ci: " + "\nci: ".join(failures))
EOF

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

echo "== a windowed aggregate reads columns (repro.spe) =="
# GroupedAggregate keeps one KeyedWindow of values per aggregated attribute and
# reads the raw payload; only the join's windows retain qualified bindings.
if git grep -nF "_compute_aggregate" -- src/repro; then
    echo "ci: src/repro/spe must fold the aggregate's columns, not recompute over bindings" >&2
    exit 1
fi
python - <<'EOF'
import ast, pathlib, sys

def calls(node, path, owner):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from calls(child, path, f"{owner}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.Call) and "qualify" in (
            getattr(child.func, "id", None), getattr(child.func, "attr", None)
        ):
            yield (path, owner, child.lineno)
        yield from calls(child, path, owner)

strays = [
    (path, owner, line)
    for path in sorted(pathlib.Path("src/repro/spe").rglob("*.py"))
    for path, owner, line in calls(ast.parse(path.read_text()), path.as_posix(), "")
    if owner != "WindowJoin.process"
]
for path, owner, line in strays:
    print(f"{path}:{line}: {owner or '<module>'}", file=sys.stderr)
if strays:
    sys.exit("ci: only WindowJoin.process may call qualify() in src/repro/spe")
EOF

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

echo "== one Kruskal (repro.overlay, repro.system) =="
# Topology.minimum_spanning_tree_edges joins fragments: the MST, a repair, a
# quarantine and a heal each pass the fragments they already know, so spanning-
# tree completion keeps one union-find.
if git grep -nF "parent[parent[" -- src/repro ':!src/repro/overlay/topology.py'; then
    echo "ci: only overlay/topology.py may run a union-find (one Kruskal joins fragments)" >&2
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
# A query is admitted by cql's query_problems (through ContinuousQuery.validate)
# at submit; `repro check` renders the same problems plus the warnings, so the
# runtime imports no analyzer.
if git grep -nF "repro.analysis" -- src/repro ':!src/repro/analysis' ':!src/repro/cli.py'; then
    echo "ci: only src/repro/analysis/ and src/repro/cli.py may mention repro.analysis" >&2
    exit 1
fi

echo "== one admission check (repro.cql, repro.analysis) =="
# query_problems in cql/ast.py resolves a query's references and checks their
# types and its satisfiability once; the analyzer renders those problems and
# resolves nothing itself.
if git grep -nE "query\.resolve\(|_UNRESOLVED_CODES" -- src/repro/analysis; then
    echo "ci: src/repro/analysis must read cql's query_problems," \
         "not resolve a query's references itself" >&2
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
# Member profiles are composed only through QueryManager.result_profiles_of,
# which composes a member again only when its representative moved; the one
# other composer under repro.system is the delivery ablation.
if git grep -nE "(^|[^_[:alnum:]])result_profile\(" -- src/repro/system ':!src/repro/system/delivery.py'; then
    echo "ci: src/repro/system must read member profiles off the manager," \
         "not call result_profile (system/delivery.py excepted)" >&2
    exit 1
fi
if [ "$(git grep -cE "(^|[^_[:alnum:]])result_profile\(" -- src/repro/core/manager.py | cut -d: -f2)" != 1 ]; then
    echo "ci: core/manager.py must compose member profiles in exactly one place" >&2
    exit 1
fi
# A submit pays for its own query: the structure key is the mergeability
# relation, so add re-checks no candidate; the query count is read off the
# query -> group map, not summed over the groups; a token is a tuple; and a
# conjunction hands out read-only views of its parts, not copies.
if ! PYTHONPATH=src python - <<'EOF'
import dataclasses, inspect, re, sys
from repro.core.grouping import GroupingOptimizer
from repro.cql.lexer import Token
from repro.cql.predicates import Conjunction

failures = []
if "mergeable(" in inspect.getsource(GroupingOptimizer.add):
    failures.append("GroupingOptimizer.add calls mergeable(")
if re.search(r"\bfor\b|sum\(|_groups|\.groups", inspect.getsource(GroupingOptimizer.query_count.fget)):
    failures.append("GroupingOptimizer.query_count iterates the groups")
if dataclasses.is_dataclass(Token) or not issubclass(Token, tuple):
    failures.append("Token is a dataclass, not a NamedTuple")
for name in ("intervals", "excluded", "diffs"):
    if "dict(" in inspect.getsource(getattr(Conjunction, name).fget):
        failures.append(f"Conjunction.{name} returns dict(")
for failure in failures:
    print(f"ci: {failure}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
then
    echo "ci: a submit must not pay for the population (see DESIGN.md section 13)" >&2
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

echo "== the reference twin stays a scan (repro.sim, repro.cbn) =="
# sim/reference.py is the naive data plane the router and the chaos twin are
# checked against: it evaluates every entry of every interface that holds one
# through Profile.covers / Profile.apply, so it reads no index, route or
# outcome bits, and coverage never goes through the routers' Matcher.
if git grep -nE "matcher|Matcher|stream_interfaces|_by_stream|OutcomeIndex|_facts|\.decide\(|\.local_deliveries\(" \
       -- src/repro/sim/reference.py; then
    echo "ci: sim/reference.py must scan profiles, not read the router's index," \
         "matchers or facts, nor call a table's decide / local_deliveries" >&2
    exit 1
fi
if ! PYTHONPATH=src python - <<'EOF'
import ast, inspect, textwrap
from repro.cbn.datagram import Datagram
from repro.cbn.filters import Filter, Matcher, Profile
from repro.cql.predicates import Comparison, Conjunction

for method in (Profile.covers, Profile.apply):
    tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    named |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not named & {"matcher", "_matchers", "Matcher"}, method.__qualname__


def refuse(*args, **kwargs):
    raise AssertionError("Profile.covers / Profile.apply reached a matcher")


# every branch: outside S, unconditional, a first filter failing, projection
Profile.matcher = Matcher.__init__ = refuse
above = [Filter("S", Conjunction.from_atoms([Comparison("a", ">", v)])) for v in (5, 0)]
for profile in (Profile({"S": {"a"}}), Profile({"S": {"a"}}, above), Profile({"T": {"a"}})):
    for value in (1, -1):
        profile.apply(Datagram("S", {"a": value, "b": value}))
EOF
then
    echo "ci: Profile.covers / Profile.apply must not reach Profile.matcher" >&2
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

echo "== the analyzer ablation (repro.analysis, tools) =="
# The COS80x message-flow and COS6xx protocol-contract passes, the lint
# wrapper, the COS3xx group audit and the COS4xx routing audit (with COS203
# and the analyzer's private copy of the subscription wiring) were ablated by
# measurement (EXPERIMENTS.md, "Analyzer ablation"): every defect they flagged
# that changes behaviour is caught by a test, a chaos oracle or a pinned run.
# `repro check --self` is the one lint entry point; the routing audits live on
# in tests/routing_audit.py as a test oracle.
for gone in src/repro/analysis/flowgraph.py src/repro/analysis/protocol.py tools/lint_repro.py \
            src/repro/analysis/plans.py src/repro/analysis/overlay.py; do
    if [ -e "$gone" ]; then
        echo "ci: $gone was deleted by the analyzer ablation and must not come back" >&2
        exit 1
    fi
done
if git grep -nE "COS60[0-9]|COS80[0-9]|callback_modules|COS3[0-9]{2}|COS4[0-9]{2}|COS203|check_dead_profiles|(^|[^_[:alnum:]])build_network" -- src/repro; then
    echo "ci: src/repro must not grow the COS60x/COS80x/COS3xx/COS4xx passes," \
         "COS203, their codes or pragmas, callback_modules= or the analyzer's" \
         "build_network back" >&2
    exit 1
fi

echo "== lifecycles are tables (repro.system, repro.sim, repro.analysis, repro.cbn) =="
# Five lifecycle tables, one executor (system/lifecycle.py::Lifecycle).
# QUERY_LIFECYCLE (system/cosmos.py) and MIGRATION_LIFECYCLE (system/loadmgr.py)
# are run by SubmittedQuery.step and GroupMigration.step, the only writers of a
# query's status and a migration's state; UPLINK_RECEIVER, FAILURE_DETECTOR
# (system/reliability.py) and NODE_SUPERVISION (sim/network.py) are keyed, and
# only Lifecycle writes a keyed state dict (its `states`).  analysis/lifecycle.py
# reads the five tables: no enum inference, no anchored MachineSpecs, and no
# trace-replay walker or trace regex in the analyzer (the executors count the
# rows a run takes).  Profile.subsumes / Filter.subsumes had no caller once
# COS203 went.
python - <<'EOF'
import ast, pathlib, sys

EXECUTORS = {("SubmittedQuery", "step"), ("GroupMigration", "step")}
ENUMS = {"QueryStatus", "MigrationState"}

def writes(tree):
    """(line, class, function) of every lifecycle enum stored in an attribute."""
    def walk(node, owner, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, child.name, func)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from walk(child, owner, child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = getattr(child, "targets", None) or [child.target]
                value = child.value
                while isinstance(value, (ast.Attribute, ast.Subscript, ast.Call)):
                    value = value.func if isinstance(value, ast.Call) else value.value
                if (isinstance(value, ast.Name) and value.id in ENUMS
                        and any(isinstance(t, ast.Attribute) for t in targets)):
                    yield child.lineno, owner, func
            yield from walk(child, owner, func)
    yield from walk(tree, None, None)

bad = []
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    for line, owner, func in writes(ast.parse(path.read_text(), str(path))):
        if (owner, func) not in EXECUTORS:
            bad.append(f"{path}:{line}: {'.'.join(filter(None, (owner, func)))}")
if bad:
    print("\n".join(bad))
    print("ci: only SubmittedQuery.step / GroupMigration.step may write a QueryStatus"
          " or MigrationState into an attribute", file=sys.stderr)
    sys.exit(1)

MUTATORS = {"pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__"}

def states_writes(tree):
    """(line, class) of every write to an executor's ``states`` dict."""
    def is_states(node):
        return isinstance(node, ast.Attribute) and node.attr == "states"
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            cls = child.name if isinstance(child, ast.ClassDef) else owner
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                targets = getattr(child, "targets", None) or [child.target]
                for target in targets:
                    if is_states(target) or (
                        isinstance(target, ast.Subscript) and is_states(target.value)
                    ):
                        yield child.lineno, cls
            elif (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                  and child.func.attr in MUTATORS and is_states(child.func.value)):
                yield child.lineno, cls
            yield from walk(child, cls)
    yield from walk(tree, None)

bad = []
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    for line, owner in states_writes(ast.parse(path.read_text(), str(path))):
        if (str(path), owner) != ("src/repro/system/lifecycle.py", "Lifecycle"):
            bad.append(f"{path}:{line}: {owner or '<module>'}")
if bad:
    print("\n".join(bad))
    print("ci: only system/lifecycle.py::Lifecycle may write a keyed state dict"
          " (an executor's `states`)", file=sys.stderr)
    sys.exit(1)
EOF
if git grep -nwE "MachineSpec|TransitionSpec|_Walker|EPSILON_LABELS|SILENT_LABELS|conformance_violations" -- src/repro \
   || git grep -nE "^(import re|from re import)" -- src/repro/analysis ':!src/repro/analysis/source.py' \
   || git ls-files --error-unmatch src/repro/analysis/conformance.py >/dev/null 2>&1; then
    echo "ci: the anchored specs, the trace-replay walker and its labels, and trace" \
         "regexes were deleted from src/repro/analysis and must not come back" \
         "(the executors count the rows a run takes)" >&2
    exit 1
fi
if git grep -nE "collect_enums|_narrowed_sources|_enum_tests|ENUM_TERMINAL_POLICY" -- src/repro \
   || git grep -nE "def subsumes\(" -- src/repro/cbn; then
    echo "ci: src/repro must not grow the enum inference of analysis/lifecycle.py" \
         "or the deleted Filter/Profile.subsumes of cbn/filters.py back" >&2
    exit 1
fi

echo "== the model checks the code's guards (repro.system, repro.sim, repro.analysis) =="
# A migration's cutover re-registers the group in process once the target is
# up; the model guards cutover on that (node LIVE) and nothing else.  The
# in-process handoff channel it used to model could lose nothing, so its
# transport, the source anchors that certified it and COS901 were deleted.
if git grep -nwE "MigrationChannel|_CUTOVER_ANCHORS|certified_guards|_anchor_holds|released_when|open_gaps|COS901" -- src/repro; then
    echo "ci: the lossless handoff channel, its source anchors and COS901 were" \
         "deleted; the model checks the guard the code runs (the target is up)" >&2
    exit 1
fi

echo "== a count is kept once (repro.system, repro.sim) =="
# An activity count that a lifecycle row also counts is read off the executor
# (Lifecycle.taken; SystemMonitor.reliability_counts / health, ChaosCounters'
# fault properties), never kept beside it: ReliabilityCounters was deleted, and
# no attribute named after one of those counts may be stored or augmented.
if git grep -nw "ReliabilityCounters" -- src/repro; then
    echo "ci: ReliabilityCounters was deleted; its counts are rows of the" \
         "lifecycle executors (SystemMonitor.reliability_counts)" >&2
    exit 1
fi
python - <<'EOF'
import ast, pathlib, sys

VIEWS = {
    "nacks_sent", "duplicates_suppressed", "gaps_abandoned", "nodes_suspected",
    "repairs_applied", "repairs_retried", "queries_quarantined", "queries_resumed",
    "migrations_completed", "migrations_aborted", "faults_applied", "faults_refused",
}

bad = []
for path in sorted(pathlib.Path("src/repro").rglob("*.py")):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.AugAssign):
            targets = [node.target]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in VIEWS:
                bad.append(f"{path}:{node.lineno}: .{target.attr}")
if bad:
    print("\n".join(bad))
    print("ci: these counts are lifecycle rows; read them with Lifecycle.taken"
          " instead of keeping a second copy", file=sys.stderr)
    sys.exit(1)
EOF

echo "== repro check =="
PYTHONPATH=src $census check -- -m repro check

echo "== repro check --self (COS5xx/7xx/81x/90x source lint, <10s budget) =="
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
# Recorded for the census; pytest-benchmark switches sys.setprofile off while it
# times, so timing is disabled (the tables regenerate byte-identically either way).
PYTHONPATH=src:. $census archived-tables -- -m pytest -q --benchmark-disable \
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

echo "== chaos scale smoke (1000-node overlay, recovery) =="
PYTHONPATH=src $census chaos-scale -- -m repro chaos --seeds 3 --nodes 1000 --recovery --json BENCH_chaos_scale.json

echo "== chaos smoke (seeded fault injection) =="
PYTHONPATH=src $census chaos -- -m repro chaos --seeds 25 --json BENCH_chaos.json

echo "== chaos recovery smoke (self-healing, exact delivery) =="
PYTHONPATH=src $census chaos-recovery -- -m repro chaos --seeds 25 --recovery --json BENCH_chaos_recovery.json

echo "== chaos migration smoke (live group migration under faults, zero-loss) =="
PYTHONPATH=src $census chaos-migration -- -m repro chaos --seeds 25 --recovery --migrate --json BENCH_chaos_migration.json
python - <<'EOF'
import json
payload = json.load(open("BENCH_chaos_migration.json"))
assert payload["ok"], "migration sweep failed"
for record in payload["seeds"]:
    seed = record["seed"]
    assert record["ok"], f"seed {seed}: oracle violations {record['violations']}"
    completed = record["health"]["migrations_completed"]
    assert completed >= 1, f"seed {seed}: no live migration completed"
total = payload["totals"]["migrations_completed"]
print(f"migration sweep: {total} live migrations, zero loss, zero violations")
EOF

echo "== bounded model check + chaos coverage (COS902-905, >=90% gate) =="
PYTHONPATH=src $census model -- -m repro model --strict --json \
    --coverage BENCH_chaos.json BENCH_chaos_recovery.json \
               BENCH_chaos_migration.json BENCH_chaos_scale.json \
    > BENCH_modelcov.json
python - <<'EOF'
import json
payload = json.load(open("BENCH_modelcov.json"))
model = payload["model"]
assert model["exhausted"], "model exploration truncated — raise the cap"
hard = [d for d in payload["diagnostics"]
        if d["code"] in ("COS902", "COS903", "COS904")]
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

echo "== what runs stays (every def under src/repro is reached, or ledgered with a reason) =="
# tools/census.py adds the entry points not recorded above (check --self, flow,
# table1, fig3, demo, one bench/run.py --smoke per workload, examples/) and
# fails on an unreached def tools/census-baseline.txt does not name, or on a
# ledger entry that is reached now.  check --self runs again under the hook:
# its wall-time budget above is measured without it.  The census is
# function-level and exempts dunders, so the named "must not come back" gates
# above stay.
python tools/census.py --records "$census_dir"

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
