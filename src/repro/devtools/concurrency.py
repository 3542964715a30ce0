"""REP009 — the guarded-by lock discipline.

The HTTP server, its live feed and the metrics registry are long-lived
threaded code; this rule makes their locking contract machine-checked
instead of comment-enforced.  Shared attributes in the modules that hold
locks (``repro.server.*``, ``repro.telemetry.registry``) carry a
declaration on their defining assignment::

    self._entries = OrderedDict()  # repro: guarded-by[_lock]

Every later access of a declared attribute — reads included, because a
torn read is still a race — must sit lexically inside a ``with <lock>:``
whose lock's terminal name matches the declaration.  Constructor bodies
(``__init__`` / ``__post_init__``) are exempt: the object is not shared
until construction returns.  A helper that is only ever called with the
lock already held declares that instead::

    def _drop(  # repro: locked-by-caller[_lock]

A ``guarded-by`` declaration whose attribute is never accessed outside
its constructor, or a directive on a line that declares nothing, is a
stale annotation and reported as ``REP000`` — the same ratchet that
keeps ``noqa`` markers honest.

Lock order has no rule: ``tests/test_devtools_concurrency.py`` checks
that no ``with <lock>:`` nests lexically inside another, and the runtime
lock sanitizer (``pytest --repro-tsan``, ``tests/lock_sanitizer.py``)
checks the order the process actually takes its locks in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable

from repro.devtools.engine import (
    UNUSED_SUPPRESSION_RULE,
    Finding,
    Rule,
    SourceModule,
)

__all__ = [
    "GuardedByRule",
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
