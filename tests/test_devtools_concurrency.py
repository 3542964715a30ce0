"""Tests for the lock invariants: REP009 and the no-nesting rule.

REP009 gets minimal positive/negative fixtures laid out as a throwaway
``src/repro`` tree (the same harness as the core lint tests):
guarded-by discipline with its constructor and locked-by-caller escape
hatches, the REP000 staleness ratchet on guarded-by annotations, and a
noqa marker silencing a concurrency finding.  The lock-nesting scan runs
over the real ``src/repro`` and over seeded trees, among them a
two-function lock-order cycle.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.devtools import CheckConfig, CheckResult, run_checks
from repro.devtools.engine import UNUSED_SUPPRESSION_RULE

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Lay ``files`` (paths relative to src/repro) out as a package tree."""
    root = tmp_path / "proj"
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    for relpath, text in files.items():
        target = package / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
        init = target.parent / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root


def check_tree(root: Path) -> CheckResult:
    return run_checks(
        CheckConfig(root=root, src_roots=(root / "src" / "repro",))
    )


def rules_found(result: CheckResult) -> list[str]:
    return [finding.rule for finding in result.findings]


GUARDED_STATE = (
    "import threading\n"
    "class Box:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self._items = {}  # repro: guarded-by[_lock]\n"
)


class TestRep009GuardedBy:
    def test_unguarded_read_and_write_flagged(self, tmp_path):
        root = make_tree(
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
        result = check_tree(root)
        assert rules_found(result) == ["REP009", "REP009"]
        assert "read outside" in result.findings[0].message
        assert "mutated outside" in result.findings[1].message

    def test_locked_access_and_constructor_are_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "server/state.py": GUARDED_STATE
                + (
                    "    def get(self, key):\n"
                    "        with self._lock:\n"
                    "            return self._items.get(key)\n"
                    "    def put(self, key, value):\n"
                    "        with self._lock:\n"
                    "            self._items[key] = value\n"
                )
            },
        )
        assert check_tree(root).ok

    def test_locked_by_caller_helper_is_clean(self, tmp_path):
        root = make_tree(
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
        assert check_tree(root).ok

    def test_wrong_lock_is_still_a_finding(self, tmp_path):
        root = make_tree(
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
        assert rules_found(check_tree(root)) == ["REP009"]

    def test_outside_threaded_scope_not_policed(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "analysis/state.py": GUARDED_STATE
                + (
                    "    def get(self, key):\n"
                    "        return self._items.get(key)\n"
                )
            },
        )
        assert check_tree(root).ok


class TestRep000GuardedByStaleness:
    def test_unused_declaration_reported(self, tmp_path):
        root = make_tree(tmp_path, {"server/state.py": GUARDED_STATE})
        result = check_tree(root)
        assert rules_found(result) == [UNUSED_SUPPRESSION_RULE]
        assert "unused guarded-by[_lock]" in result.findings[0].message

    def test_dangling_directive_reported(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "server/state.py": (
                    "def helper():  # repro: guarded-by[_lock]\n"
                    "    return 1\n"
                )
            },
        )
        result = check_tree(root)
        assert rules_found(result) == [UNUSED_SUPPRESSION_RULE]
        assert "dangling guarded-by" in result.findings[0].message


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
        root = make_tree(
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
        count, nested = lock_acquisitions(root / "src" / "repro")
        assert count == 4
        assert nested == [
            "analysis/locks.py:6: b_lock inside a_lock",
            "analysis/locks.py:10: a_lock inside b_lock",
        ]

    def test_nesting_in_one_order_is_found(self, tmp_path):
        root = make_tree(
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
        _, nested = lock_acquisitions(root / "src" / "repro")
        assert nested == [
            "analysis/locks.py:6: b_lock inside a_lock",
            "analysis/locks.py:9: b_lock inside a_lock",
        ]

    def test_nesting_found_in_every_module(self, tmp_path):
        root = make_tree(
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
        _, nested = lock_acquisitions(root / "src" / "repro")
        assert nested == [
            "analysis/one.py:6: b_lock inside a_lock",
            "server/two.py:4: a_lock inside b_lock",
        ]

    def test_attribute_locks_are_found_by_terminal_name(self, tmp_path):
        root = make_tree(
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
        count, nested = lock_acquisitions(root / "src" / "repro")
        assert count == 3  # ``_clock`` is not ``*_lock``
        assert nested == ["analysis/classes.py:4: other.lock inside self._lock"]


class TestNoqaInteraction:
    def test_noqa_suppresses_concurrency_findings(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "server/state.py": GUARDED_STATE
                + (
                    "    def get(self, key):\n"
                    "        return self._items.get(key)  # repro: noqa[REP009]\n"
                )
            },
        )
        result = check_tree(root)
        assert result.ok
        assert result.suppressions_used == 1
