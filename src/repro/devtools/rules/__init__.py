"""The invariant rule pack.

| id     | invariant                                                      |
|--------|----------------------------------------------------------------|
| REP002 | telemetry instrument names: convention + documented            |
| REP003 | no nondeterminism inside the byte-identical pure modules       |
| REP005 | raises use the typed ``repro.errors`` hierarchy; no bare except|
| REP006 | ``repro.__all__`` matches the committed ``api_surface.json``   |
| REP007 | no mutable default arguments                                   |
| REP009 | declared shared attributes only touched under their lock       |

``REP000`` (unused suppression or stale ``guarded-by`` declaration) and
``REP999`` (unparseable file) are engine-reserved ids.  ``REP001`` and
``REP010`` are retired with the code they policed; ``REP004``,
``REP008``, ``REP011`` and ``REP012`` are retired into the tier-1 tests
of the one seam each guarded.  Retired ids are never reused.  Each rule
documents its rationale, examples, and suppression syntax in
``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.devtools.concurrency import GuardedByRule
from repro.devtools.engine import Rule
from repro.devtools.rules.api_surface import ApiSurfaceRule
from repro.devtools.rules.defaults import MutableDefaultRule
from repro.devtools.rules.determinism import DeterminismRule
from repro.devtools.rules.raises import TypedRaiseRule
from repro.devtools.rules.telemetry import TelemetryNameRule

__all__ = [
    "ApiSurfaceRule",
    "DeterminismRule",
    "GuardedByRule",
    "MutableDefaultRule",
    "TelemetryNameRule",
    "TypedRaiseRule",
    "default_rules",
]


def default_rules() -> list[Rule]:
    """Fresh instances of every rule, in id order."""
    return [
        TelemetryNameRule(),
        DeterminismRule(),
        TypedRaiseRule(),
        ApiSurfaceRule(),
        MutableDefaultRule(),
        GuardedByRule(),
    ]
