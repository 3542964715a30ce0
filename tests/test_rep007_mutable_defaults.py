"""REP007: no mutable default arguments.

A default is evaluated once, at definition time, and shared by every
call.  In a library whose bulk engine re-enters the same functions from
pool workers and long-lived runs, a default ``[]`` or ``{}`` that
accumulates state is a bug waiting for the second call.  Use ``None``
and default inside the body, or ``dataclasses.field(default_factory=...)``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.source_scan import PACKAGE, iter_modules, write_package

#: Constructors whose call as a default is equally shared state.
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}
)

_MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _is_mutable(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_NODES):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_FACTORIES
    )


def mutable_defaults(package: Path) -> tuple[int, list[str]]:
    """Every mutable default of a function or lambda under ``package``.

    Returns the count of callables with any default, and the findings.
    """
    count = 0
    findings: list[str] = []
    for module in iter_modules(package):
        for node in module.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = [
                d for d in (*node.args.defaults, *node.args.kw_defaults) if d is not None
            ]
            if not defaults:
                continue
            count += 1
            label = "lambda" if isinstance(node, ast.Lambda) else f"{node.name}()"
            findings.extend(
                module.at(default, f"mutable default {ast.unparse(default)!r} in {label}")
                for default in defaults
                if _is_mutable(default)
            )
    return count, findings


class TestMutableDefaults:
    def test_src_has_no_mutable_default(self):
        count, findings = mutable_defaults(PACKAGE)
        assert count > 0, "the scan found no callable with a default"
        assert findings == [], (
            f"use None and default inside the body; found {findings}"
        )

    def test_literal_and_factory_defaults_flagged(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "defaults.py": (
                    "def f(items=[]):\n"
                    "    return items\n"
                    "async def g(*, table=dict()):\n"
                    "    return table\n"
                    "h = lambda acc={1}: acc\n"
                )
            },
        )
        assert mutable_defaults(package) == (
            3,
            [
                "repro/defaults.py:1: mutable default '[]' in f()",
                "repro/defaults.py:3: mutable default 'dict()' in g()",
                "repro/defaults.py:5: mutable default '{1}' in lambda",
            ],
        )

    def test_none_default_clean(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "defaults.py": (
                    "def f(items=None, scale=1.0, name='x', *, key=()):\n"
                    "    return items or []\n"
                )
            },
        )
        assert mutable_defaults(package) == (1, [])
