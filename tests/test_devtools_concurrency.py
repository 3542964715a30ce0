"""The no-nesting lock invariant.

No ``with <lock>:`` nests lexically inside another in ``src/repro``.
The scan runs over the real package and over seeded throwaway trees,
among them a two-function lock-order cycle.  The guarded-by discipline
is ``tests/test_rep009_guarded_by.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.source_scan import PACKAGE, write_package

LOCK_PAIR = (
    "import threading\n"
    "a_lock = threading.Lock()\n"
    "b_lock = threading.Lock()\n"
)


def _is_lock(expr: ast.expr) -> bool:
    """Whether a ``with`` item names a lock: terminal name ``lock`` or ``*_lock``."""
    if isinstance(expr, ast.Attribute):
        name = expr.attr
    elif isinstance(expr, ast.Name):
        name = expr.id
    else:
        return False
    return name == "lock" or name.endswith("_lock")


def lock_acquisitions(root: Path) -> tuple[int, list[str]]:
    """Every ``with <lock>:`` under ``root``, and each one nested in another.

    Returns the acquisition count and, per nested acquisition,
    ``path:line: inner inside outer``.  ``with a_lock, b_lock:`` takes
    ``b_lock`` while holding ``a_lock``, so it nests too.
    """
    count = 0
    nested: list[str] = []
    for path in sorted(root.rglob("*.py")):
        relpath = path.relative_to(root).as_posix()

        def visit(node: ast.AST, held: str | None) -> None:
            nonlocal count
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if not _is_lock(item.context_expr):
                        continue
                    count += 1
                    lock = ast.unparse(item.context_expr)
                    if held is not None:
                        nested.append(
                            f"{relpath}:{item.context_expr.lineno}: "
                            f"{lock} inside {held}"
                        )
                    held = lock
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), None)
    return count, nested


class TestNoLockNesting:
    """No ``with <lock>:`` nests lexically inside another in ``src/repro``.

    With no nesting there is no static lock order to keep acyclic; the
    runtime sanitizer (``--repro-tsan``) watches the orders that calls
    across modules take.
    """

    def test_src_nests_no_lock_acquisition(self):
        count, nested = lock_acquisitions(PACKAGE)
        assert count > 0, "the scan found no lock acquisition at all"
        assert nested == []

    def test_opposite_nesting_orders_are_found(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "analysis/locks.py": LOCK_PAIR
                + (
                    "def one():\n"
                    "    with a_lock:\n"
                    "        with b_lock:\n"
                    "            pass\n"
                    "def two():\n"
                    "    with b_lock:\n"
                    "        with a_lock:\n"
                    "            pass\n"
                )
            },
        )
        count, nested = lock_acquisitions(package)
        assert count == 4
        assert nested == [
            "analysis/locks.py:6: b_lock inside a_lock",
            "analysis/locks.py:10: a_lock inside b_lock",
        ]

    def test_nesting_in_one_order_is_found(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "analysis/locks.py": LOCK_PAIR
                + (
                    "def one():\n"
                    "    with a_lock:\n"
                    "        with b_lock:\n"
                    "            pass\n"
                    "def two():\n"
                    "    with a_lock, b_lock:\n"
                    "        pass\n"
                )
            },
        )
        _, nested = lock_acquisitions(package)
        assert nested == [
            "analysis/locks.py:6: b_lock inside a_lock",
            "analysis/locks.py:9: b_lock inside a_lock",
        ]

    def test_nesting_found_in_every_module(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "analysis/one.py": LOCK_PAIR
                + (
                    "def go():\n"
                    "    with a_lock:\n"
                    "        with b_lock:\n"
                    "            pass\n"
                ),
                "server/two.py": (
                    "from repro.analysis.one import a_lock, b_lock\n"
                    "def go():\n"
                    "    with b_lock:\n"
                    "        with a_lock:\n"
                    "            pass\n"
                ),
            },
        )
        _, nested = lock_acquisitions(package)
        assert nested == [
            "analysis/one.py:6: b_lock inside a_lock",
            "server/two.py:4: a_lock inside b_lock",
        ]

    def test_attribute_locks_are_found_by_terminal_name(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "analysis/classes.py": (
                    "class A:\n"
                    "    def go(self, other):\n"
                    "        with self._lock:\n"
                    "            with other.lock:\n"
                    "                pass\n"
                    "        with self._lock:\n"
                    "            with self._clock:\n"
                    "                pass\n"
                )
            },
        )
        count, nested = lock_acquisitions(package)
        assert count == 3  # ``_clock`` is not ``*_lock``
        assert nested == ["analysis/classes.py:4: other.lock inside self._lock"]

