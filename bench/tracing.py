"""Span tracing applied from outside the program.

The traced rep wraps the layers' public callables by patching class and
module attributes *from here* — nothing under ``src/`` knows it is being
measured.  A span has a name, a start, an end and the span that caused
it (the frame below it on the stack).  Aggregates (calls, self time) are
folded as spans close; the full span trees of the slowest root calls are
kept so a tail can be explained without re-running.

Self time of a span = its duration minus the part its child spans
cover, so the self times of all spans sum exactly to the duration of
the root spans.
"""

from __future__ import annotations

import heapq
import itertools
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: span name -> [(module path, class name or None, attribute)].
SPAN_TARGETS: Dict[str, Sequence[Tuple[str, Optional[str], str]]] = {
    "cql.parse": [("repro.cql.parser", None, "parse_query")],
    "system.submit": [("repro.system.cosmos", "CosmosSystem", "submit")],
    "system.withdraw": [("repro.system.cosmos", "CosmosSystem", "withdraw")],
    "core.manager.submit": [("repro.core.manager", "QueryManager", "submit")],
    "core.manager.withdraw": [("repro.core.manager", "QueryManager", "withdraw")],
    "core.grouping.add": [("repro.core.grouping", "GroupingOptimizer", "add")],
    "core.grouping.remove": [("repro.core.grouping", "GroupingOptimizer", "remove")],
    "core.profiles.result": [
        ("repro.core.manager", "QueryManager", "result_profiles_of")
    ],
    "spe.register": [
        ("repro.spe.engine", "StreamProcessingEngine", "register"),
        ("repro.spe.engine", "StreamProcessingEngine", "deregister"),
    ],
    "cbn.subscribe": [("repro.cbn.network", "ContentBasedNetwork", "subscribe")],
    "cbn.unsubscribe": [("repro.cbn.network", "ContentBasedNetwork", "unsubscribe")],
    "cbn.advertise": [("repro.cbn.network", "ContentBasedNetwork", "advertise")],
    "system.publish": [
        ("repro.system.cosmos", "CosmosSystem", "publish"),
        ("repro.system.cosmos", "CosmosSystem", "publish_batch"),
    ],
    "cbn.route": [("repro.cbn.network", "ContentBasedNetwork", "publish_many")],
    "spe.push": [("repro.spe.engine", "StreamProcessingEngine", "push_to")],
    "overlay.mst": [("repro.overlay.tree", "DisseminationTree", "minimum_spanning")],
    "overlay.repair_tree": [("repro.system.fault", None, "repair_tree")],
    "system.rebuild": [("repro.system.rebuild", None, "rebuild_network")],
    "system.fail_broker": [("repro.system.fault", None, "fail_broker")],
    "system.fail_processor": [("repro.system.fault", None, "fail_processor")],
    "overlay.optimize": [("repro.overlay.optimizer", "OverlayOptimizer", "optimize")],
    "sim.execute": [("repro.sim.network", "VirtualNetwork", "execute")],
    "sim.oracle": [
        ("repro.sim.oracle", None, "check_ground_truth"),
        ("repro.sim.oracle", None, "compare_systems"),
    ],
    "system.reliability.offer": [
        ("repro.system.reliability", "UplinkReceiver", "offer")
    ],
    "system.loadmgr.capture": [("repro.system.loadmgr", None, "capture_group_state")],
    "system.loadmgr.cutover": [("repro.system.loadmgr", None, "cutover_group")],
}

#: Root spans whose slowest trees are kept, and how many of each.
KEPT_ROOTS = ("system.publish", "system.submit", "system.withdraw")
KEPT_TREES = 100

#: (name, start_ns, duration_ns, children) — one closed span.
SpanTree = Tuple[str, int, int, list]


class Tracer:
    """Collects spans from the wrappers it hands out."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        #: sum of ``measure(result)`` per span, for spans wrapped with one
        self.units: Dict[str, int] = {}
        #: total duration of spans that had no parent
        self.root_ns = 0
        self._stack: List[list] = []
        self._slowest: Dict[str, list] = {name: [] for name in KEPT_ROOTS}
        self._order = itertools.count()
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        # frame: name, start, ns covered by children, child trees
        self._stack.append([name, self._clock(), 0, []])

    def exit(self) -> None:
        end = self._clock()
        name, start, child_ns, children = self._stack.pop()
        duration = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - child_ns
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent[3].append((name, start, duration, children))
            return
        self.root_ns += duration
        heap = self._slowest.get(name)
        if heap is not None:
            item = (duration, next(self._order), (name, start, duration, children))
            if len(heap) < KEPT_TREES:
                heapq.heappush(heap, item)
            elif duration > heap[0][0]:
                heapq.heapreplace(heap, item)

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """``fn`` recorded as a span called ``name``.

        ``measure`` turns the return value into a count of useful
        outcomes (summed into :attr:`units`); it runs inside the span.
        """
        enter, leave, units = self.enter, self.exit, self.units

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    units[name] = units.get(name, 0) + measure(result)
                return result
            finally:
                leave()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Patch every :data:`SPAN_TARGETS` callable with a traced twin."""
        import importlib

        for name, targets in SPAN_TARGETS.items():
            measure = len if name == "spe.push" else None
            for module_path, class_name, attr in targets:
                module = importlib.import_module(module_path)
                if class_name is not None:
                    self._patch_class(getattr(module, class_name), attr, name, measure)
                else:
                    self._patch_function(module, attr, name, measure)

    def _patch_class(self, cls, attr, name, measure) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            twin = classmethod(self.wrap(name, raw.__func__, measure))
        elif isinstance(raw, staticmethod):
            twin = staticmethod(self.wrap(name, raw.__func__, measure))
        else:
            twin = self.wrap(name, raw, measure)
        self._patched.append((cls, attr, raw))
        setattr(cls, attr, twin)

    def _patch_function(self, module, attr, name, measure) -> None:
        """Patch a module-level function wherever ``repro`` imported it.

        ``from x import f`` binds ``f`` in the importer, so the defining
        module is not the only holder of the name.
        """
        raw = getattr(module, attr)
        twin = self.wrap(name, raw, measure)
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            if holder.__dict__.get(attr) is raw:
                self._patched.append((holder, attr, raw))
                setattr(holder, attr, twin)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- reading -------------------------------------------------------------

    def total_self_ns(self) -> int:
        return sum(self.self_ns.values())

    def aggregate(self) -> List[Tuple[str, int, float]]:
        """(span, calls, self_ms) sorted by self time, largest first."""
        rows = [
            (name, self.calls[name], self.self_ns[name] / 1e6)
            for name in self.calls
        ]
        rows.sort(key=lambda row: -row[2])
        return rows

    def slowest(self, root: str) -> List[SpanTree]:
        """Kept span trees of ``root``, slowest first."""
        return [item[2] for item in sorted(self._slowest[root], reverse=True)]


def render_tree(tree: SpanTree, indent: int = 0) -> List[str]:
    """One line per span: name, duration, self time; children indented
    with their start offset from the parent."""
    name, start, duration, children = tree
    covered = sum(child[2] for child in children)
    lines = [
        f"{'  ' * indent}{name}  {duration / 1e6:.3f} ms"
        f"  (self {(duration - covered) / 1e6:.3f} ms)"
    ]
    for child in children:
        offset = (child[1] - start) / 1e6
        sub = render_tree(child, indent + 1)
        sub[0] += f"  @+{offset:.3f} ms"
        lines.extend(sub)
    return lines
