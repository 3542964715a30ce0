#!/usr/bin/env python3
"""Aggregate static-analysis gate: invariant linter + ruff + mypy + budget.

Drives every static check the repository defines, in order:

1. the project-native invariant linter (``repro-weather check``,
   rules REP002–REP009) — always available, always fatal on findings,
   with per-rule finding counts;
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
#: ``tests.lock_sanitizer`` resolves from the repository root, mypy's
#: working directory.
MYPY_STRICT_TARGETS = (
    "repro.geometry",
    "repro.telemetry",
    "repro.parsing",
    "repro.dataset.workers",
    "repro.dataset.query",
    "repro.devtools.concurrency",
    "tests.lock_sanitizer",
)


def _heading(title: str) -> None:
    print(f"-- {title}")


def run_invariant_linter(json_path: str | None = None) -> bool:
    """The project's own rule pack; fatal on any finding."""
    sys.path.insert(0, str(SRC))
    try:
        from repro.devtools import (
            default_config,
            render_human,
            render_json,
            run_checks,
        )

        result = run_checks(default_config(root=REPO_ROOT))
    except Exception as exc:  # pragma: no cover - defensive surface
        print(f"invariant linter failed to run: {exc}", file=sys.stderr)
        return False
    print(render_human(result))
    counts: dict[str, int] = {}
    for finding in result.findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    if counts:
        per_rule = ", ".join(
            f"{rule}={count}" for rule, count in sorted(counts.items())
        )
        print(f"findings by rule: {per_rule}")
    if json_path is not None:
        Path(json_path).write_text(render_json(result) + "\n", encoding="utf-8")
        print(f"json report written to {json_path}")
    return result.ok


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
        help="run only the project-native checks (linter + budget), "
        "never ruff/mypy",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the linter's machine-readable report "
        "(schema v2, with per-rule counts) to PATH",
    )
    args = parser.parse_args(argv)

    failed: list[str] = []
    _heading("invariant linter (repro-weather check)")
    if not run_invariant_linter(args.json):
        failed.append("invariant linter")
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
