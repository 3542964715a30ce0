"""REP009: declared shared attributes are only touched under their lock.

The HTTP server, its live feed and the metrics registry are long-lived
threaded code.  In the modules that hold locks (``repro.server.*``,
``repro.telemetry.registry``) a shared attribute declares its lock on
its defining assignment::

    self._entries = OrderedDict()  # repro: guarded-by[_lock]

Every later access of a declared attribute, reads included (a torn read
is still a race), must sit lexically inside a ``with <lock>:`` whose
lock's terminal name is the declared one.  Constructor bodies
(``__init__``, ``__post_init__``) are exempt: the object is not shared
until construction returns.  A helper only ever called with the lock
held says so on its ``def`` line::

    def _drop(self, key):  # repro: locked-by-caller[_lock]

Stale annotations are findings too: a ``guarded-by`` declaration whose
attribute is never touched outside its constructor, and a directive on a
line that declares no attribute or function.

Lock order has no static check here: ``tests/test_devtools_concurrency.py``
checks that no ``with <lock>:`` nests inside another, and the runtime
lock sanitizer (``pytest --repro-tsan``) checks the order locks are
actually taken in.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from tests.source_scan import PACKAGE, Module, iter_modules, write_package

#: Modules whose shared attributes are policed: the ones that hold locks.
GUARDED_PREFIXES = ("repro.server", "repro.telemetry.registry")

_DIRECTIVE_RE = re.compile(r"#\s*repro:\s*([a-z][a-z0-9-]*)\[([^\]]*)\]")
_GUARDED_BY = "guarded-by"
_LOCKED_BY_CALLER = "locked-by-caller"
_CONSTRUCTORS = frozenset({"__init__", "__post_init__"})


@dataclass
class _Declaration:
    attr: str
    lock: str
    line: int
    used: bool = False


def _in_scope(name: str) -> bool:
    return any(name == p or name.startswith(p + ".") for p in GUARDED_PREFIXES)


def _terminal_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _directives(module: Module) -> dict[int, list[tuple[str, str]]]:
    """Line → ``(directive, argument)`` of every ``# repro: name[arg]`` comment."""
    table: dict[int, list[tuple[str, str]]] = {}
    for line, comment in module.comments():
        for match in _DIRECTIVE_RE.finditer(comment):
            table.setdefault(line, []).append((match.group(1), match.group(2).strip()))
    return table


def _check_module(module: Module) -> tuple[int, list[str]]:
    directives = _directives(module)

    def args(line: int, directive: str) -> list[str]:
        return [arg for name, arg in directives.get(line, []) if name == directive]

    declarations: dict[str, _Declaration] = {}
    caller_locked: dict[ast.AST, str] = {}
    claimed: set[tuple[int, str]] = set()  # (line, directive) pairs in use
    for node in module.walk():
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets: list[ast.expr] = (
                list(node.targets) if isinstance(node, ast.Assign) else [node.target]
            )
            for lock in args(node.lineno, _GUARDED_BY):
                for target in targets:
                    if isinstance(target, ast.Attribute):
                        claimed.add((node.lineno, _GUARDED_BY))
                        declarations[target.attr] = _Declaration(
                            target.attr, lock, node.lineno
                        )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for lock in args(node.lineno, _LOCKED_BY_CALLER):
                claimed.add((node.lineno, _LOCKED_BY_CALLER))
                caller_locked[node] = lock

    findings = [
        f"{module.relpath}:{line}: dangling {name}[...] directive: the line "
        f"declares no attribute assignment or function"
        for line, entries in sorted(directives.items())
        for name, _ in entries
        if name in (_GUARDED_BY, _LOCKED_BY_CALLER) and (line, name) not in claimed
    ]
    for node in module.walk():
        if not isinstance(node, ast.Attribute):
            continue
        declaration = declarations.get(node.attr)
        if declaration is None or node.lineno == declaration.line:
            continue  # the declaring assignment is the one sanctioned site
        functions = [
            parent
            for parent in module.ancestors(node)
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        if functions and functions[0].name in _CONSTRUCTORS:
            continue
        declaration.used = True
        held = {
            _terminal_name(item.context_expr)
            for parent in module.ancestors(node)
            if isinstance(parent, (ast.With, ast.AsyncWith))
            for item in parent.items
        }
        if declaration.lock in held or any(
            caller_locked.get(function) == declaration.lock for function in functions
        ):
            continue
        verb = "read" if isinstance(node.ctx, ast.Load) else "mutated"
        findings.append(
            module.at(
                node,
                f"{node.attr!r} is guarded-by[{declaration.lock}] (line "
                f"{declaration.line}) but {verb} outside `with {declaration.lock}:`",
            )
        )
    findings.extend(
        f"{module.relpath}:{d.line}: unused guarded-by[{d.lock}] on {d.attr!r}: "
        f"never touched outside its constructor"
        for d in declarations.values()
        if not d.used
    )
    return len(claimed), findings


def guarded_by_violations(package: Path) -> tuple[int, list[str]]:
    """Every unguarded access and stale directive in the lock-holding
    modules under ``package``.

    Returns the count of directives that declare an attribute or a
    function, and the findings.
    """
    count = 0
    findings: list[str] = []
    for module in iter_modules(package):
        if _in_scope(module.name):
            seen, found = _check_module(module)
            count += seen
            findings.extend(found)
    return count, findings


GUARDED_STATE = (
    "import threading\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._items = {}  # repro: guarded-by[_lock]\n"
)


class TestGuardedBy:
    def test_src_touches_guarded_state_only_under_its_lock(self) -> None:
        count, findings = guarded_by_violations(PACKAGE)
        assert count > 0, "the scan found no guarded-by or locked-by-caller directive"
        assert findings == [], (
            f"take the declared lock around every access; found {findings}"
        )

    def test_unguarded_read_and_write_flagged(self, tmp_path: Path) -> None:
        package = write_package(
            tmp_path,
            {
                "server/state.py": GUARDED_STATE
                + (
                    "    def get(self, key):\n"
                    "        return self._items.get(key)\n"
                    "    def clear(self):\n"
                    "        self._items = {}\n"
                )
            },
        )
        assert guarded_by_violations(package) == (
            1,
            [
                "repro/server/state.py:7: '_items' is guarded-by[_lock] (line 5) "
                "but read outside `with _lock:`",
                "repro/server/state.py:9: '_items' is guarded-by[_lock] (line 5) "
                "but mutated outside `with _lock:`",
            ],
        )

    def test_locked_access_and_constructor_are_clean(self, tmp_path: Path) -> None:
        package = write_package(
            tmp_path,
            {
                "server/state.py": GUARDED_STATE
                + (
                    "        self._items.clear()\n"
                    "    def get(self, key):\n"
                    "        with self._lock:\n"
                    "            return self._items.get(key)\n"
                    "    def put(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._items[key] = value\n"
                )
            },
        )
        assert guarded_by_violations(package) == (1, [])

    def test_locked_by_caller_helper_is_clean(self, tmp_path: Path) -> None:
        package = write_package(
            tmp_path,
            {
                "server/state.py": GUARDED_STATE
                + (
                    "    def sweep(self):\n"
                    "        with self._lock:\n"
                    "            self._drop('a')\n"
                    "    def _drop(self, key):"
                    "  # repro: locked-by-caller[_lock]\n"
                    "        self._items.pop(key, None)\n"
                )
            },
        )
        assert guarded_by_violations(package) == (2, [])

    def test_wrong_lock_is_still_a_finding(self, tmp_path: Path) -> None:
        package = write_package(
            tmp_path,
            {
                "server/state.py": GUARDED_STATE
                + (
                    "    def get(self, key):\n"
                    "        with self._other_lock:\n"
                    "            return self._items.get(key)\n"
                )
            },
        )
        _, findings = guarded_by_violations(package)
        assert findings == [
            "repro/server/state.py:8: '_items' is guarded-by[_lock] (line 5) "
            "but read outside `with _lock:`"
        ]

    def test_outside_threaded_scope_not_policed(self, tmp_path: Path) -> None:
        package = write_package(
            tmp_path,
            {
                "analysis/state.py": GUARDED_STATE
                + (
                    "    def get(self, key):\n"
                    "        return self._items.get(key)\n"
                ),
                "telemetry/export.py": GUARDED_STATE,
            },
        )
        assert guarded_by_violations(package) == (0, [])

    def test_unused_declaration_reported(self, tmp_path: Path) -> None:
        package = write_package(tmp_path, {"telemetry/registry.py": GUARDED_STATE})
        assert guarded_by_violations(package) == (
            1,
            [
                "repro/telemetry/registry.py:5: unused guarded-by[_lock] on "
                "'_items': never touched outside its constructor"
            ],
        )

    def test_dangling_directive_reported(self, tmp_path: Path) -> None:
        package = write_package(
            tmp_path,
            {
                "server/state.py": (
                    '"""Quoting ``# repro: guarded-by[_lock]`` here is inert."""\n'
                    "def helper():  # repro: guarded-by[_lock]\n"
                    "    return 1\n"
                    "LIMIT = 3  # repro: locked-by-caller[_lock]\n"
                    "def sweep():  # repro: locked-by-caller[_lock]  # repro: guarded-by[_lock]\n"
                    "    return 2\n"
                )
            },
        )
        # On line 5 the function claims its locked-by-caller directive,
        # not the guarded-by beside it.
        assert guarded_by_violations(package) == (
            1,
            [
                "repro/server/state.py:2: dangling guarded-by[...] directive: "
                "the line declares no attribute assignment or function",
                "repro/server/state.py:4: dangling locked-by-caller[...] "
                "directive: the line declares no attribute assignment or "
                "function",
                "repro/server/state.py:5: dangling guarded-by[...] directive: "
                "the line declares no attribute assignment or function",
            ],
        )
