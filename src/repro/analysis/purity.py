"""COS5xx — determinism hazards in the package's own source.

The reproduction's dynamic guarantees (byte-identical chaos traces,
pinned replay digests, fast-vs-naive equivalence) all assume the code
under them is *deterministic*: no entropy, no wall clock, no
iteration order leaking from hash-based containers into ordered
outputs.  This pass walks a module's AST and flags the four hazard
shapes that break those guarantees:

* **COS501** — nondeterministic entropy: module-level ``random.*``
  calls, unseeded ``random.Random()``, ``uuid.uuid1/uuid4``,
  ``os.urandom``, anything from ``secrets``.  Fix: thread a seeded
  ``random.Random(seed)`` through the call path.
* **COS502** — wall-clock reads: ``time.time``/``perf_counter``/
  ``monotonic`` and friends, ``datetime.now``/``utcnow``/``today``.
  Simulated time comes from the :class:`EventSimulator`; a real clock
  read diverges replays across runs.  Fix: take ``now`` as a parameter.
* **COS503** — unordered iteration: a ``set``/``frozenset``-typed
  value iterated into an ordering-sensitive sink (a ``for`` body that
  appends/records/yields, a list/tuple conversion, a ``join``) without
  an explicit ``sorted(...)``.  Set order depends on
  ``PYTHONHASHSEED``; anything it feeds ends up in traces, wire
  encodings or digests in a process-dependent order.
* **COS504** — ``id()``-based identity inside the deterministic
  subsystems (``cbn/``, ``sim/``, ``system/``): object addresses vary
  per process, so comparisons, ordering or hashing built on ``id``
  cannot replay.

Set-typedness is inferred conservatively: set literals and
comprehensions, ``set()``/``frozenset()`` calls, set-algebra binops
over those, names and ``self`` attributes assigned or annotated as
sets in the enclosing scope, and calls to functions whose *return
annotation* is a set (collected package-wide by the driver).  What the
inference cannot see it does not flag — soundness of the "never flag
safe code" direction is what the property suite pins.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Report
from repro.analysis.source import SourceModule

#: ``time`` attributes that read a real clock.
_WALLCLOCK_TIME = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
    "localtime",
    "gmtime",
    "ctime",
}

#: ``datetime.datetime`` / ``datetime.date`` constructors reading a clock.
_WALLCLOCK_DATETIME = {"now", "utcnow", "today"}

#: ``uuid`` constructors that draw entropy (uuid3/uuid5 are pure hashes).
_ENTROPY_UUID = {"uuid1", "uuid4", "getnode"}

#: Mutating-sink method names: a loop body calling one of these with
#: the loop variable in scope emits elements in iteration order.
_SINK_METHODS = {
    "append",
    "appendleft",
    "extend",
    "insert",
    "record",
    "write",
    "writelines",
    "emit",
    "publish",
    "send",
    "put",
    "update_digest",
}

#: Modules where ``id()`` identity is a replay hazard (COS504).
_ID_SENSITIVE_PARTS = ("cbn/", "sim/", "system/")

_SET_ANNOTATIONS = {"Set", "FrozenSet", "set", "frozenset", "MutableSet", "AbstractSet"}

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

_SET_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _Imports:
    """Name resolution for the entropy/clock checks.

    Tracks ``import m [as a]`` (alias -> module) and
    ``from m import n [as a]`` (alias -> (module, name)) anywhere in
    the module, including function-local imports.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.modules: Dict[str, str] = {}
        self.names: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def resolve_call(self, func: ast.AST) -> Optional[Tuple[str, str]]:
        """(module, dotted attr) for a called Name/Attribute, if known."""
        if isinstance(func, ast.Name):
            return self.names.get(func.id)
        dotted = _dotted(func)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            return self.modules[head], rest
        if head in self.names:
            module, name = self.names[head]
            return module, f"{name}.{rest}" if rest else name
        return None


# ---------------------------------------------------------------------------
# COS501 / COS502 / COS504 — entropy, clocks, id()
# ---------------------------------------------------------------------------


def _check_entropy_and_clock(
    module: SourceModule, report: Report
) -> None:
    imports = _Imports(module.tree)
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = imports.resolve_call(node.func)
        if resolved is None:
            continue
        mod, attr = resolved
        leaf = attr.rsplit(".", 1)[-1]
        if mod == "random":
            if attr == "Random" and node.args:
                continue  # seeded constructor: the sanctioned idiom
            if attr in ("Random", "seed") and not node.args:
                report.add(
                    "COS501",
                    f"unseeded random.{attr}() draws OS entropy; pass an "
                    f"explicit seed",
                    module.rel,
                    node.lineno,
                )
            elif attr != "seed":
                report.add(
                    "COS501",
                    f"module-level random.{attr}() uses the shared unseeded "
                    f"RNG; thread a random.Random(seed) instance instead",
                    module.rel,
                    node.lineno,
                )
        elif mod == "secrets":
            report.add(
                "COS501",
                f"secrets.{attr}() is entropy by design; deterministic "
                f"code must not call it",
                module.rel,
                node.lineno,
            )
        elif mod == "uuid" and leaf in _ENTROPY_UUID:
            report.add(
                "COS501",
                f"uuid.{leaf}() draws host entropy; derive ids from "
                f"seeded state or uuid5 over stable names",
                module.rel,
                node.lineno,
            )
        elif mod == "os" and leaf == "urandom":
            report.add(
                "COS501",
                "os.urandom() is raw OS entropy; use a seeded "
                "random.Random instead",
                module.rel,
                node.lineno,
            )
        elif mod == "time" and leaf in _WALLCLOCK_TIME:
            report.add(
                "COS502",
                f"time.{leaf}() reads the host clock; simulated time must "
                f"come from the EventSimulator (take `now` as a parameter)",
                module.rel,
                node.lineno,
            )
        elif mod == "datetime" and leaf in _WALLCLOCK_DATETIME:
            report.add(
                "COS502",
                f"datetime {leaf}() reads the host clock; thread an "
                f"explicit timestamp instead",
                module.rel,
                node.lineno,
            )


def _check_id_calls(module: SourceModule, report: Report) -> None:
    if not any(part in module.rel for part in _ID_SENSITIVE_PARTS):
        return
    for node in ast.walk(module.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "id"
            and len(node.args) == 1
        ):
            report.add(
                "COS504",
                "id() yields per-process addresses; compare/hash by a "
                "stable key instead",
                module.rel,
                node.lineno,
            )


# ---------------------------------------------------------------------------
# COS503 — unordered set iteration
# ---------------------------------------------------------------------------


def _annotation_is_set(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):  # typing.Set[...]
        return annotation.attr in _SET_ANNOTATIONS
    return isinstance(annotation, ast.Name) and annotation.id in _SET_ANNOTATIONS


class _SetEnv:
    """Names and ``self`` attributes known to hold sets in one scope."""

    def __init__(
        self,
        set_returning: Iterable[str] = (),
        inherited: Optional[Set[str]] = None,
    ) -> None:
        self.names: Set[str] = set(inherited or ())
        self.set_returning = set(set_returning)

    def is_set(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                if node.func.id in ("set", "frozenset"):
                    return True
                if node.func.id in self.set_returning:
                    return True
            if isinstance(node.func, ast.Attribute):
                if (
                    node.func.attr in _SET_METHODS
                    and self.is_set(node.func.value)
                ):
                    return True
                if node.func.attr in self.set_returning:
                    return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set(node.left) or self.is_set(node.right)
        dotted = _dotted(node)
        return dotted is not None and dotted in self.names

    def learn(self, target: ast.AST, value: Optional[ast.AST]) -> None:
        dotted = _dotted(target)
        if dotted is None:
            return
        if value is not None and self.is_set(value):
            self.names.add(dotted)

    def learn_annotation(self, target: ast.AST, annotation: ast.AST) -> None:
        dotted = _dotted(target)
        if dotted is not None and _annotation_is_set(annotation):
            self.names.add(dotted)


def _class_set_attrs(klass: ast.ClassDef) -> Set[str]:
    """``self.x`` names a class declares as sets anywhere in its body."""
    attrs: Set[str] = set()
    for node in klass.body:
        # dataclass-style field annotations double as instance attrs
        if isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _annotation_is_set(node.annotation):
                attrs.add(f"self.{node.target.id}")
    for node in ast.walk(klass):
        if isinstance(node, ast.AnnAssign):
            dotted = _dotted(node.target)
            if (
                dotted
                and dotted.startswith("self.")
                and _annotation_is_set(node.annotation)
            ):
                attrs.add(dotted)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                dotted = _dotted(target)
                if dotted and dotted.startswith("self."):
                    env = _SetEnv()
                    if env.is_set(node.value):
                        attrs.add(dotted)
    return attrs


def _loop_body_has_sink(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _SINK_METHODS
            ):
                return True
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Add
            ):
                return True
    return False


def _genexp_over_set(node: ast.AST, env: _SetEnv) -> bool:
    return isinstance(node, ast.GeneratorExp) and any(
        env.is_set(gen.iter) for gen in node.generators
    )


def _check_node(
    module: SourceModule, node: ast.AST, env: _SetEnv, report: Report
) -> None:
    """Learn bindings from / flag hazards on one non-function node."""
    if isinstance(node, (ast.Assign, ast.AugAssign)):
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            env.learn(target, node.value)
    elif isinstance(node, ast.AnnAssign):
        env.learn_annotation(node.target, node.annotation)
        if node.value is not None:
            env.learn(node.target, node.value)
    elif isinstance(node, ast.For) and env.is_set(node.iter):
        if _loop_body_has_sink(node.body):
            report.add(
                "COS503",
                "for-loop over a set feeds an ordered sink; iterate "
                "sorted(...) instead",
                module.rel,
                node.lineno,
            )
    elif isinstance(node, ast.ListComp) and any(
        env.is_set(gen.iter) for gen in node.generators
    ):
        report.add(
            "COS503",
            "list built from a set iteration is hash-order dependent; "
            "wrap the iterable in sorted(...)",
            module.rel,
            node.lineno,
        )
    elif isinstance(node, ast.Call):
        order_sink = (
            isinstance(node.func, ast.Name)
            and node.func.id in ("list", "tuple")
        ) or (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        )
        if order_sink and node.args:
            arg = node.args[0]
            if env.is_set(arg) or _genexp_over_set(arg, env):
                report.add(
                    "COS503",
                    "ordered conversion of a set iteration; wrap the "
                    "iterable in sorted(...)",
                    module.rel,
                    node.lineno,
                )


def _visit_scope(
    module: SourceModule,
    body: List[ast.stmt],
    env: _SetEnv,
    report: Report,
) -> None:
    """Document-order walk of one scope, pruned at nested functions.

    Nested functions are recursed into *afterwards* with a copy of the
    scope's final bindings (closures read enclosing names) extended by
    their own set-annotated parameters.
    """
    pending: List[ast.AST] = []

    def walk(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.append(node)
            return
        _check_node(module, node, env, report)
        for child in ast.iter_child_nodes(node):
            walk(child)

    for stmt in body:
        walk(stmt)
    for func in pending:
        fenv = _SetEnv(env.set_returning, env.names)
        for arg in ast.walk(func.args):
            if isinstance(arg, ast.arg) and arg.annotation is not None:
                if _annotation_is_set(arg.annotation):
                    fenv.names.add(arg.arg)
        _visit_scope(module, func.body, fenv, report)


def _check_set_iteration(
    module: SourceModule, set_returning: Iterable[str], report: Report
) -> None:
    # Class bodies seed `self.*` set attributes for every method scope;
    # one shared namespace is a sound over-approximation here (a
    # same-named non-set attribute in another class can only cause an
    # extra warning, never mask one).
    class_attrs: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef):
            class_attrs |= _class_set_attrs(node)
    env = _SetEnv(set_returning, class_attrs)
    _visit_scope(module, module.tree.body, env, report)


def check_purity(
    module: SourceModule, set_returning: Iterable[str] = ()
) -> Report:
    """Run every COS5xx check over one module.

    ``set_returning`` names functions (collected package-wide from
    return annotations) whose call results are treated as sets.
    """
    report = Report()
    _check_entropy_and_clock(module, report)
    _check_set_iteration(module, set_returning, report)
    _check_id_calls(module, report)
    return report


def collect_set_returning(modules: Iterable[SourceModule]) -> Set[str]:
    """Function names annotated as returning a set, package-wide."""
    names: Set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.returns is not None and _annotation_is_set(
                    node.returns
                ):
                    names.add(node.name)
    return names
