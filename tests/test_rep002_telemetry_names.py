"""REP002: telemetry instrument names follow the convention and are documented.

Every instrument created with a literal name matches ``repro_[a-z_]+``
with its kind's unit suffix (counters end in ``_total``, histograms in
``_seconds`` or ``_bytes``; a span's base name carries none, the registry
appends ``_seconds``), and every created name appears in
``docs/observability.md``: the catalogue is a contract, and an
undocumented metric is an unreviewed one.  The registry machinery in
``repro.telemetry`` builds names dynamically and is exempt.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

from tests.source_scan import PACKAGE, iter_modules, write_package

CATALOGUE = PACKAGE.parents[1] / "docs" / "observability.md"

#: Method name → required suffixes of the created instrument's name
#: (``None``: no suffix beyond the base convention).
INSTRUMENT_METHODS: dict[str, tuple[str, ...] | None] = {
    "counter": ("_total",),
    "gauge": None,
    "histogram": ("_seconds", "_bytes"),
    "span": None,  # a base name; the registry appends ``_seconds``
}

NAME_RE = re.compile(r"repro_[a-z][a-z_]*[a-z]\Z")
_DOC_TOKEN_RE = re.compile(r"\brepro_[a-z_]+\b")
_EXEMPT_PREFIX = "repro.telemetry"


def instrument_names(
    package: Path, catalogue: str | None
) -> tuple[int, list[str]]:
    """Every instrument created with a literal name under ``package``, and
    each break of the convention or the catalogue.

    ``catalogue`` is the text of the instrument catalogue; ``None`` checks
    the naming convention alone.  Returns the instrument count and the
    findings.
    """
    documented = (
        None if catalogue is None else set(_DOC_TOKEN_RE.findall(catalogue))
    )
    count = 0
    findings: list[str] = []
    for module in iter_modules(package):
        if module.name.startswith(_EXEMPT_PREFIX):
            continue
        for node in module.walk():
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in INSTRUMENT_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            count += 1
            method = node.func.attr
            name = node.args[0].value
            if not NAME_RE.match(name):
                findings.append(
                    module.at(node, f"{name!r} breaks the 'repro_[a-z_]+' convention")
                )
            effective = name
            suffixes = INSTRUMENT_METHODS[method]
            if method == "span":
                if name.endswith(("_seconds", "_total", "_bytes")):
                    findings.append(
                        module.at(
                            node,
                            f"span base name {name!r} carries a unit suffix; "
                            f"the registry appends '_seconds'",
                        )
                    )
                effective = f"{name}_seconds"
            elif suffixes is not None and not name.endswith(suffixes):
                findings.append(
                    module.at(
                        node,
                        f"{method} {name!r} must end with "
                        f"{' or '.join(repr(s) for s in suffixes)}",
                    )
                )
            if documented is not None and effective not in documented:
                findings.append(
                    module.at(node, f"{effective!r} is not in the catalogue")
                )
    return count, findings


class TestTelemetryNames:
    def test_src_instruments_are_named_and_documented(self):
        count, findings = instrument_names(
            PACKAGE, CATALOGUE.read_text(encoding="utf-8")
        )
        assert count > 0, "the scan found no instrument created by literal name"
        assert findings == [], (
            f"name instruments 'repro_*' with their unit suffix and add each "
            f"to {CATALOGUE.name}; found {findings}"
        )

    def test_bad_convention_and_missing_suffix_flagged(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "metrics.py": (
                    "def setup(registry):\n"
                    "    registry.counter('parse_count')\n"
                    "    registry.counter('repro_files')\n"
                    "    registry.span('repro_parse_seconds')\n"
                )
            },
        )
        count, findings = instrument_names(package, None)
        assert count == 3
        # 'parse_count' breaks the convention AND the suffix: two findings.
        assert [finding.split(":")[1] for finding in findings] == [
            "2", "2", "3", "4",
        ]

    def test_good_names_clean_and_telemetry_package_exempt(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "metrics.py": (
                    "def setup(registry):\n"
                    "    registry.counter('repro_files_total')\n"
                    "    registry.histogram('repro_parse_seconds')\n"
                    "    registry.span('repro_parse')\n"
                ),
                "telemetry/inner.py": (
                    "def setup(registry):\n"
                    "    registry.counter('whatever')\n"
                ),
            },
        )
        assert instrument_names(package, None) == (3, [])

    def test_undocumented_instrument_flagged_against_catalogue(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "metrics.py": (
                    "def setup(registry):\n"
                    "    registry.counter('repro_documented_total')\n"
                    "    registry.counter('repro_mystery_total')\n"
                    "    registry.span('repro_documented')\n"
                )
            },
        )
        catalogue = (
            "| `repro_documented_total` | files |\n"
            "| `repro_documented_seconds` | wall time |\n"
        )
        _, findings = instrument_names(package, catalogue)
        assert findings == [
            "repro/metrics.py:3: 'repro_mystery_total' is not in the catalogue"
        ]

    def test_without_a_catalogue_only_the_convention_is_checked(self, tmp_path):
        package = write_package(
            tmp_path,
            {
                "metrics.py": (
                    "def setup(registry):\n"
                    "    registry.counter('repro_mystery_total')\n"
                )
            },
        )
        assert instrument_names(package, None) == (1, [])
