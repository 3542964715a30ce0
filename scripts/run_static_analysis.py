#!/usr/bin/env python3
"""Aggregate static-analysis gate: invariant tests + budget + ruff + mypy.

Drives every static check the repository defines, in order:

1. the invariant tests, one tier-1 module per REP rule
   (``tests/test_rep0*.py``, run with pytest) — always available,
   always fatal on a failure;
2. the ``# type: ignore`` budget — the count under ``src/repro`` may
   only decrease; the ceiling lives in ``pyproject.toml`` under
   ``[tool.repro.devtools] type-ignore-budget``;
3. ``ruff check`` and 4. ``mypy`` on the strict-listed packages — run
   when the tools are installed (``pip install -e .[lint]``), skipped
   with a notice otherwise so the gate works on minimal containers.

Exit status: non-zero if any check that *ran* failed.  Wired into
``scripts/reproduce_all.sh`` ahead of the test suite.
"""

from __future__ import annotations

import argparse
import io
import os
import shutil
import subprocess
import sys
import tokenize
import tomllib
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Packages mypy must pass in strict mode (grown over time; never shrunk).
#: The ``tests.*`` modules resolve from the repository root, mypy's
#: working directory.
MYPY_STRICT_TARGETS = (
    "repro.geometry",
    "repro.telemetry",
    "repro.parsing",
    "repro.dataset.workers",
    "repro.dataset.query",
    "tests.lock_sanitizer",
    "tests.test_rep009_guarded_by",
)


def _heading(title: str) -> None:
    print(f"-- {title}")


def run_invariant_tests() -> bool:
    """The REP rules' tier-1 tests; fatal on any failure."""
    modules = sorted(
        path.relative_to(REPO_ROOT).as_posix()
        for path in (REPO_ROOT / "tests").glob("test_rep0*.py")
    )
    if not modules:
        print("no tests/test_rep0*.py module found", file=sys.stderr)
        return False
    pythonpath = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))
    )
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *modules],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    return completed.returncode == 0


def type_ignore_budget() -> int:
    """The committed ceiling from pyproject.toml (default 0)."""
    pyproject = tomllib.loads(
        (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )
    return int(
        pyproject.get("tool", {})
        .get("repro", {})
        .get("devtools", {})
        .get("type-ignore-budget", 0)
    )


def run_type_ignore_budget() -> bool:
    """Count ``# type: ignore`` comments; the budget may only decrease."""
    budget = type_ignore_budget()
    occurrences = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        text = path.read_text(encoding="utf-8")
        # Tokenize so a "# type: ignore" quoted in a docstring is inert.
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT and "type: ignore" in token.string:
                occurrences.append(
                    f"{path.relative_to(REPO_ROOT)}:{token.start[0]}"
                )
    count = len(occurrences)
    print(f"# type: ignore count: {count} (budget {budget})")
    if count > budget:
        print(
            "type-ignore budget exceeded — remove ignores or justify a "
            "budget increase in review:",
            file=sys.stderr,
        )
        for item in occurrences:
            print(f"  {item}", file=sys.stderr)
        return False
    if count < budget:
        print(
            f"note: budget can ratchet down to {count} in "
            f"[tool.repro.devtools] type-ignore-budget"
        )
    return True


def run_ruff() -> bool | None:
    """``ruff check`` with the pyproject config; ``None`` = not installed."""
    if shutil.which("ruff") is None:
        return None
    completed = subprocess.run(
        ["ruff", "check", "src", "scripts", "benchmarks", "tests"],
        cwd=REPO_ROOT,
    )
    return completed.returncode == 0


def run_mypy() -> bool | None:
    """mypy over the strict-listed packages; ``None`` = not installed."""
    if shutil.which("mypy") is None:
        return None
    packages: list[str] = []
    for target in MYPY_STRICT_TARGETS:
        packages.extend(["-p", target])
    completed = subprocess.run(
        ["mypy", *packages],
        cwd=REPO_ROOT,
        env={**os.environ, "MYPYPATH": str(SRC)},
    )
    return completed.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-external",
        action="store_true",
        help="run only the project-native checks (invariant tests + "
        "budget), never ruff/mypy",
    )
    args = parser.parse_args(argv)

    failed: list[str] = []
    _heading("invariant tests (tests/test_rep0*.py)")
    if not run_invariant_tests():
        failed.append("invariant tests")
    _heading("type-ignore budget")
    if not run_type_ignore_budget():
        failed.append("type-ignore budget")
    if not args.skip_external:
        for name, runner in (("ruff", run_ruff), ("mypy", run_mypy)):
            _heading(name)
            outcome = runner()
            if outcome is None:
                print(f"{name}: not installed — skipped "
                      f"(pip install -e .[lint] to enable)")
            elif not outcome:
                failed.append(name)
    if failed:
        print(f"static analysis FAILED: {', '.join(failed)}", file=sys.stderr)
        return 1
    print("static analysis OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
