"""repro devtools — project-native static analysis.

An AST-based invariant linter for the invariants general-purpose tools
cannot know, each spanning the whole package: telemetry naming +
documentation (REP002), determinism of the byte-identical modules
(REP003), the typed :mod:`repro.errors` hierarchy (REP005), public-API
drift (REP006), mutable defaults (REP007), and the ``guarded-by`` lock
discipline (REP009).  REP001 and REP010 are retired ids; REP004, REP008,
REP011 and REP012 are retired into the tier-1 tests of the one seam
each guarded.  The runtime lock sanitizer is test tooling and lives in
the test tree (``tests/lock_sanitizer.py``, run by ``pytest
--repro-tsan`` or ``REPRO_TSAN=1``).

Run it as ``repro-weather check`` (exit 0 clean / 1 findings /
2 internal error), or programmatically::

    from repro.devtools import default_config, run_checks

    result = run_checks(default_config())
    assert result.ok, [f.message for f in result.findings]

``scripts/run_static_analysis.py`` aggregates this linter with ``ruff``
and ``mypy`` (when installed) and the ``# type: ignore`` budget; the
rule catalogue lives in ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.devtools.engine import (
    CheckConfig,
    CheckResult,
    Finding,
    Rule,
    SourceModule,
    default_config,
    discover_root,
    render_human,
    render_json,
    run_checks,
)

__all__ = [
    "CheckConfig",
    "CheckResult",
    "Finding",
    "Rule",
    "SourceModule",
    "default_config",
    "discover_root",
    "render_human",
    "render_json",
    "run_checks",
]
