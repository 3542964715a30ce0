"""REP009, REP011 — the concurrency invariant rule pack.

The HTTP server, its live feed and the metrics registry are long-lived
threaded code; these rules make their locking contracts machine-checked
instead of comment-enforced:

* **REP009 — guarded-by discipline.**  Shared attributes in the modules
  that hold locks (``repro.server.*``, ``repro.telemetry.registry``)
  carry a declaration on their defining assignment::

      self._entries = OrderedDict()  # repro: guarded-by[_lock]

  Every later access of a declared attribute — reads included, because a
  torn read is still a race — must sit lexically inside a
  ``with <lock>:`` whose lock's terminal name matches the declaration.
  Constructor bodies (``__init__`` / ``__post_init__``) are exempt: the
  object is not shared until construction returns.  A helper that is
  only ever called with the lock already held declares that instead::

      def _drop(  # repro: locked-by-caller[_lock]

  A ``guarded-by`` declaration whose attribute is never accessed outside
  its constructor, or a directive on a line that declares nothing, is a
  stale annotation and reported as ``REP000`` — the same ratchet that
  keeps ``noqa`` markers honest.

* **REP011 — acyclic lock order.**  Nested ``with``-lock statements
  across the whole package define a directed acquisition graph; a cycle
  means two threads can each hold what the other wants.  Lock nodes are
  named ``module.Class.attr`` so ``self._lock`` in two classes never
  aliases.

The runtime twin of this rule pack is :mod:`repro.devtools.sanitizer`,
which checks the same contracts on live locks under ``--repro-tsan``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.devtools.engine import (
    UNUSED_SUPPRESSION_RULE,
    CheckConfig,
    Finding,
    Rule,
    SourceModule,
)

__all__ = [
    "GuardedByRule",
    "LockOrderRule",
]

#: Modules whose shared attributes REP009 polices: the ones that hold
#: locks — everything request-serving plus the metrics registry.
_GUARDED_PREFIXES = ("repro.server", "repro.telemetry.registry")

_GUARDED_BY = "guarded-by"
_LOCKED_BY_CALLER = "locked-by-caller"

_CONSTRUCTORS = frozenset({"__init__", "__post_init__"})


def _in_guarded_scope(module: SourceModule) -> bool:
    return any(
        module.name == prefix or module.name.startswith(prefix + ".")
        for prefix in _GUARDED_PREFIXES
    )


def _terminal_name(expr: ast.expr) -> str | None:
    """The rightmost identifier of a dotted expression, or ``None``."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _receiver_name(expr: ast.expr) -> str | None:
    """The identifier an attribute hangs off (``self`` in ``self._lock``)."""
    if isinstance(expr, ast.Attribute):
        return _terminal_name(expr.value)
    return None


def _lock_like(name: str | None) -> bool:
    """Whether an identifier names a lock by this project's convention."""
    return name is not None and (name == "lock" or name.endswith("_lock"))


def _enclosing_class(module: SourceModule, node: ast.AST) -> ast.ClassDef | None:
    current = module.parents.get(node)
    while current is not None:
        if isinstance(current, ast.ClassDef):
            return current
        current = module.parents.get(current)
    return None


def _enclosing_functions(
    module: SourceModule, node: ast.AST
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Function definitions containing ``node``, innermost first."""
    found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []
    current = module.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append(current)
        current = module.parents.get(current)
    return found


def _enclosing_with_names(module: SourceModule, node: ast.AST) -> set[str]:
    """Terminal names of every ``with``-item context lexically around ``node``."""
    names: set[str] = set()
    current = module.parents.get(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                name = _terminal_name(item.context_expr)
                if name is not None:
                    names.add(name)
        current = module.parents.get(current)
    return names


def _directive_args(module: SourceModule, line: int, directive: str) -> list[str]:
    """Arguments of every ``directive`` occurrence on ``line``."""
    return [
        argument
        for name, argument in module.directives.get(line, [])
        if name == directive
    ]


# ---------------------------------------------------------------------------
# REP009 — guarded-by discipline
# ---------------------------------------------------------------------------


@dataclass
class _Declaration:
    """One ``guarded-by`` declaration: the attribute, its lock, its site."""

    attr: str
    lock: str
    line: int
    used: bool = False


class GuardedByRule(Rule):
    rule_id = "REP009"
    summary = "declared shared attributes are only touched under their lock"

    def begin_module(self, module: SourceModule) -> None:
        self._declarations: dict[str, _Declaration] = {}
        self._dangling: list[tuple[int, str]] = []
        self._caller_locked: dict[ast.AST, str] = {}
        if not _in_guarded_scope(module):
            return
        declared_lines: set[int] = set()
        caller_lines: set[int] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for argument in _directive_args(module, node.lineno, _GUARDED_BY):
                    for target in targets:
                        attr = (
                            target.attr
                            if isinstance(target, ast.Attribute)
                            else None
                        )
                        if attr is None:
                            continue
                        declared_lines.add(node.lineno)
                        self._declarations[attr] = _Declaration(
                            attr=attr, lock=argument, line=node.lineno
                        )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for argument in _directive_args(
                    module, node.lineno, _LOCKED_BY_CALLER
                ):
                    caller_lines.add(node.lineno)
                    self._caller_locked[node] = argument
        for line, entries in sorted(module.directives.items()):
            for name, _argument in entries:
                if name == _GUARDED_BY and line not in declared_lines:
                    self._dangling.append((line, name))
                elif name == _LOCKED_BY_CALLER and line not in caller_lines:
                    self._dangling.append((line, name))

    def visit_Attribute(
        self, node: ast.Attribute, module: SourceModule
    ) -> Iterable[Finding]:
        declaration = self._declarations.get(node.attr)
        if declaration is None:
            return ()
        if node.lineno == declaration.line:
            return ()  # the declaring assignment is the one sanctioned site
        functions = _enclosing_functions(module, node)
        if functions and functions[0].name in _CONSTRUCTORS:
            return ()
        declaration.used = True
        if declaration.lock in _enclosing_with_names(module, node):
            return ()
        for function in functions:
            if self._caller_locked.get(function) == declaration.lock:
                return ()
        verb = "read" if isinstance(node.ctx, ast.Load) else "mutated"
        return [
            self.finding(
                module,
                node,
                f"attribute {node.attr!r} is declared "
                f"guarded-by[{declaration.lock}] (line {declaration.line}) "
                f"but {verb} outside `with {declaration.lock}:`",
            )
        ]

    def end_module(self, module: SourceModule) -> Iterable[Finding]:
        findings = [
            Finding(
                rule=UNUSED_SUPPRESSION_RULE,
                path=module.relpath,
                line=line,
                col=1,
                message=(
                    f"dangling {name}[...] directive: the line declares no "
                    f"attribute assignment or function — remove it"
                ),
            )
            for line, name in self._dangling
        ]
        for declaration in self._declarations.values():
            if not declaration.used:
                findings.append(
                    Finding(
                        rule=UNUSED_SUPPRESSION_RULE,
                        path=module.relpath,
                        line=declaration.line,
                        col=1,
                        message=(
                            f"unused guarded-by[{declaration.lock}] on "
                            f"{declaration.attr!r}: the attribute is never "
                            f"touched outside its constructor — remove the "
                            f"declaration or the dead state"
                        ),
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# REP011 — the static lock-order graph stays acyclic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _LockEdge:
    """One observed acquisition order: ``outer`` held while taking ``inner``."""

    outer: str
    inner: str
    path: str
    line: int
    col: int


class LockOrderRule(Rule):
    rule_id = "REP011"
    summary = "the package-wide static lock-order graph is acyclic"

    def __init__(self) -> None:
        self._edges: list[_LockEdge] = []

    def _node_id(
        self, module: SourceModule, site: ast.AST, expr: ast.expr
    ) -> str | None:
        """A stable graph-node name for one lock expression.

        ``self._lock`` resolves through the enclosing class so the same
        attribute name in two classes stays two nodes; other receivers
        keep their variable name, which is as precise as a lexical pass
        can be.
        """
        name = _terminal_name(expr)
        if not _lock_like(name):
            return None
        receiver = _receiver_name(expr)
        if receiver == "self":
            enclosing = _enclosing_class(module, site)
            if enclosing is not None:
                return f"{module.name}.{enclosing.name}.{name}"
        elif receiver is not None:
            return f"{module.name}.{receiver}.{name}"
        return f"{module.name}.{name}"

    def _handle_with(
        self, node: ast.With | ast.AsyncWith, module: SourceModule
    ) -> None:
        held = self._enclosing_lock(module, node)
        for item in node.items:
            inner = self._node_id(module, node, item.context_expr)
            if inner is None:
                continue
            if held is not None:
                self._edges.append(
                    _LockEdge(
                        outer=held,
                        inner=inner,
                        path=module.relpath,
                        line=item.context_expr.lineno,
                        col=item.context_expr.col_offset + 1,
                    )
                )
            held = inner  # `with a, b:` acquires left to right

    def _enclosing_lock(
        self, module: SourceModule, node: ast.With | ast.AsyncWith
    ) -> str | None:
        """The innermost lock already held where ``node`` acquires."""
        current = module.parents.get(node)
        while current is not None:
            if isinstance(current, (ast.With, ast.AsyncWith)):
                for item in reversed(current.items):
                    node_id = self._node_id(module, current, item.context_expr)
                    if node_id is not None:
                        return node_id
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for lock in _directive_args(
                    module, current.lineno, _LOCKED_BY_CALLER
                ):
                    enclosing = _enclosing_class(module, current)
                    if enclosing is not None:
                        return f"{module.name}.{enclosing.name}.{lock}"
                    return f"{module.name}.{lock}"
            current = module.parents.get(current)
        return None

    def visit_With(
        self, node: ast.With, module: SourceModule
    ) -> Iterable[Finding]:
        self._handle_with(node, module)
        return ()

    def visit_AsyncWith(
        self, node: ast.AsyncWith, module: SourceModule
    ) -> Iterable[Finding]:
        self._handle_with(node, module)
        return ()

    def finish(self, config: CheckConfig) -> Iterable[Finding]:
        graph: dict[str, list[_LockEdge]] = {}
        for edge in self._edges:
            graph.setdefault(edge.outer, []).append(edge)
        findings: list[Finding] = []
        reported: set[tuple[str, ...]] = set()
        for start in sorted(graph):
            cycle = self._find_cycle(graph, start)
            if cycle is None:
                continue
            key = tuple(sorted(edge.outer for edge in cycle))
            if key in reported:
                continue
            reported.add(key)
            order = " -> ".join([*(edge.outer for edge in cycle), cycle[0].outer])
            first = cycle[0]
            findings.append(
                Finding(
                    rule=self.rule_id,
                    path=first.path,
                    line=first.line,
                    col=first.col,
                    message=(
                        f"lock-order cycle: {order} — two threads taking "
                        f"these in opposite order deadlock; pick one global "
                        f"order"
                    ),
                )
            )
        return findings

    def _find_cycle(
        self, graph: dict[str, list[_LockEdge]], start: str
    ) -> list[_LockEdge] | None:
        """The first cycle reachable from ``start``, as its edge list."""
        trail: list[_LockEdge] = []
        on_path: list[str] = [start]

        def walk(node: str) -> list[_LockEdge] | None:
            for edge in graph.get(node, ()):
                if edge.inner in on_path:
                    return trail[on_path.index(edge.inner):] + [edge]
                on_path.append(edge.inner)
                trail.append(edge)
                found = walk(edge.inner)
                if found is not None:
                    return found
                trail.pop()
                on_path.pop()
            return None

        return walk(start)
