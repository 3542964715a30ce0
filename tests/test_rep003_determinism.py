"""REP003: the pure parse/serialize modules read no clocks or entropy.

The fast-path/DOM and serial/parallel byte-identity guarantees, and the
manifest's content-hash skip cache, hold only because the modules under
the pure prefixes are functions of their inputs.  Wall-clock reads, the
unseeded global ``random`` state and entropy sources are banned there.
Allowed: monotonic timers (``perf_counter``, ``monotonic``), since
telemetry timing never alters an output, and seeded
``random.Random(seed)`` instances.
"""

from __future__ import annotations

import ast
from pathlib import Path

from tests.source_scan import PACKAGE, iter_modules, write_package

#: Dotted prefixes of the modules that must stay pure.
PURE_MODULE_PREFIXES = (
    "repro.parsing",
    "repro.yamlio",
    "repro.svgdoc",
    "repro.geometry",
    "repro.topology",
)

#: ``module_or_class.attribute`` calls that read wall clocks or entropy.
BANNED_ATTRIBUTES = frozenset(
    {
        ("time", "time"),
        ("time", "time_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
        ("os", "urandom"),
        ("uuid", "uuid4"),
        ("uuid", "uuid1"),
    }
)

#: Names whose import alone brings nondeterminism into a pure module.
BANNED_FROM_IMPORTS = {
    "time": {"time", "time_ns"},
    "os": {"urandom"},
    "uuid": {"uuid1", "uuid4"},
}

#: The one attribute of ``random`` a pure module may touch.
ALLOWED_RANDOM_ATTRS = frozenset({"Random"})


def _call_problem(node: ast.Call) -> str | None:
    if not isinstance(node.func, ast.Attribute):
        return None
    base = node.func.value
    if isinstance(base, ast.Name):
        base_name = base.id
    elif isinstance(base, ast.Attribute):  # datetime.datetime.now
        base_name = base.attr
    else:
        return None
    attr = node.func.attr
    if (base_name, attr) in BANNED_ATTRIBUTES:
        return f"{base_name}.{attr}() reads a clock or entropy"
    if base_name == "random" and attr not in ALLOWED_RANDOM_ATTRS:
        return f"random.{attr}() uses the unseeded global RNG"
    if base_name == "secrets":
        return f"secrets.{attr}() is entropy"
    return None


def _import_problems(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.Import):
        return [
            "imports secrets" for alias in node.names if alias.name == "secrets"
        ]
    if node.module == "secrets":
        return ["imports secrets"]
    if node.module == "random":
        banned = {
            alias.name
            for alias in node.names
            if alias.name not in ALLOWED_RANDOM_ATTRS
        }
    else:
        banned = BANNED_FROM_IMPORTS.get(node.module or "", set())
    return [
        f"'from {node.module} import {alias.name}' is nondeterministic"
        for alias in node.names
        if alias.name in banned
    ]


def nondeterminism(package: Path) -> tuple[int, list[str]]:
    """Every clock, global-RNG or entropy use in the pure modules under
    ``package``.

    Returns the pure-module count and the findings.
    """
    count = 0
    findings: list[str] = []
    for module in iter_modules(package):
        if not module.name.startswith(PURE_MODULE_PREFIXES):
            continue
        count += 1
        for node in module.walk():
            if isinstance(node, ast.Call):
                problems = [_call_problem(node)]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                problems = _import_problems(node)
            else:
                continue
            findings.extend(
                module.at(node, problem) for problem in problems if problem
            )
    return count, findings


class TestDeterminism:
    def test_src_pure_modules_are_deterministic(self):
        count, findings = nondeterminism(PACKAGE)
        assert count > 0, "the scan found no module under the pure prefixes"
        assert findings == [], (
            "pure modules must not read clocks, the global RNG or entropy; "
            f"found {findings}"
        )

    def test_wall_clock_and_global_rng_flagged_in_pure_module(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "parsing/clock.py": (
                    "import random\n"
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time(), random.random()\n"
                )
            },
        )
        assert nondeterminism(package) == (
            1,
            [
                "repro/parsing/clock.py:4: time.time() reads a clock or entropy",
                "repro/parsing/clock.py:4: random.random() uses the unseeded "
                "global RNG",
            ],
        )

    def test_banned_from_import_flagged(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "geometry/clock.py": "from time import time\n",
                "yamlio/rng.py": "from random import Random, choice\n",
                "topology/keys.py": "import secrets\n",
            },
        )
        _, findings = nondeterminism(package)
        assert findings == [
            "repro/geometry/clock.py:1: 'from time import time' is "
            "nondeterministic",
            "repro/topology/keys.py:1: imports secrets",
            "repro/yamlio/rng.py:1: 'from random import choice' is "
            "nondeterministic",
        ]

    def test_seeded_rng_and_monotonic_timer_allowed(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "parsing/pure.py": (
                    "import random\n"
                    "import time\n"
                    "def derive(seed):\n"
                    "    rng = random.Random(seed)\n"
                    "    return rng, time.perf_counter()\n"
                )
            },
        )
        assert nondeterminism(package) == (1, [])

    def test_impure_module_may_read_clock(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "cli/clock.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
        )
        assert nondeterminism(package) == (0, [])
