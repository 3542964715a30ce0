"""Tests for the one place process pools open, ``repro.dataset.workers``.

Two contracts: the module is the only pool opener and driver in
``src/repro`` — no other module imports a process pool, submits to an
executor or keeps a pool in a ``ContextVar`` (checked statically, over
the AST) — and a pool never outlives its parent: workers of a SIGKILL'd
process exit on their own instead of being reparented and left running.
"""

from __future__ import annotations

import ast
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "repro"
POOL_OPENER = PACKAGE / "dataset" / "workers.py"


def _is_type_checking(test: ast.expr) -> bool:
    """``if TYPE_CHECKING:`` or ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


def _runtime_nodes(tree: ast.Module):
    """Every AST node outside ``if TYPE_CHECKING:`` bodies."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))


def _pool_import_lines(source: str) -> list[int]:
    """Line of each runtime import (or attribute use) of a process-pool API."""
    lines = []
    for node in _runtime_nodes(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "multiprocessing" for alias in node.names):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if module.split(".")[0] == "multiprocessing" or (
                module == "concurrent.futures" and "ProcessPoolExecutor" in names
            ):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "ProcessPoolExecutor":
            lines.append(node.lineno)
    return sorted(lines)


def _pool_driver_lines(source: str) -> list[int]:
    """Line of each ``.submit(...)`` call and ``ContextVar(...)`` definition."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("submit", "ContextVar"):
            lines.append(node.lineno)
    return sorted(lines)


class TestOnePoolOpener:
    def test_only_workers_module_imports_a_process_pool(self):
        offenders = [
            f"{path.relative_to(SRC)}:{line}"
            for path in sorted(PACKAGE.rglob("*.py"))
            if path != POOL_OPENER
            for line in _pool_import_lines(path.read_text(encoding="utf-8"))
        ]
        assert offenders == [], (
            "open process pools through repro.dataset.workers.process_pool; "
            f"found pool imports at {offenders}"
        )

    def test_only_workers_module_drives_a_pool(self):
        offenders = [
            f"{path.relative_to(SRC)}:{line}"
            for path in sorted(PACKAGE.rglob("*.py"))
            if path != POOL_OPENER
            for line in _pool_driver_lines(path.read_text(encoding="utf-8"))
        ]
        assert offenders == [], (
            "drive pools through repro.dataset.workers.OrderedPool; "
            f"found executor submits or ContextVars at {offenders}"
        )

    def test_the_scan_sees_the_opener_itself(self):
        # Guards the scans: the one allowed opener and driver must register.
        source = POOL_OPENER.read_text(encoding="utf-8")
        assert _pool_import_lines(source)
        assert _pool_driver_lines(source)
        probe = (
            "import contextvars\n"
            "pool.submit(f, 1)\n"
            "current = contextvars.ContextVar('current')\n"
            "from contextvars import ContextVar\n"
            "other: ContextVar[int] = ContextVar('other')\n"
        )
        assert _pool_driver_lines(probe) == [2, 3, 5]

    def test_only_type_checking_imports_are_exempt(self):
        probe = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from concurrent.futures import ProcessPoolExecutor\n"
            "import multiprocessing.pool\n"
            "import concurrent.futures\n"
            "pool = concurrent.futures.ProcessPoolExecutor()\n"
            "from multiprocessing import get_context\n"
        )
        assert _pool_import_lines(probe) == [4, 6, 7]


# ---------------------------------------------------------------------------
# Orphaned workers
# ---------------------------------------------------------------------------

_PARENT = """
import multiprocessing, sys, time
from repro.dataset.workers import process_pool

pool = process_pool(2)
pool.submit(time.sleep, 0).result()
print(" ".join(str(child.pid) for child in multiprocessing.active_children()), flush=True)
time.sleep(600)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs; a zombie nobody has reaped yet counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_the_parent_is_killed(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        parent = subprocess.Popen(
            [sys.executable, "-c", _PARENT],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(workers) == 2
            assert all(_alive(pid) for pid in workers)
            # Only the parent dies: its workers are not signalled.
            os.kill(parent.pid, signal.SIGKILL)
            parent.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and any(map(_alive, workers)):
                time.sleep(0.1)
            survivors = [pid for pid in workers if _alive(pid)]
        finally:
            if parent.poll() is None:
                parent.kill()
                parent.wait()
            parent.stdout.close()
        for pid in survivors:
            os.kill(pid, signal.SIGKILL)
        assert survivors == [], "pool workers outlived their SIGKILL'd parent"
