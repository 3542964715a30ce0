"""Tests for the project-native static-analysis subsystem (repro.devtools).

Each REP rule is exercised on minimal positive/negative fixtures laid
out as a throwaway ``src/repro`` tree, the suppression machinery is
driven through its used and unused paths, the JSON reporter's schema is
pinned, the ``repro-weather check`` exit-code contract (0 clean /
1 findings / 2 internal error) is covered end to end, and — the check
that keeps all the others honest — the real repository must come back
clean.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli.main import main
from repro.devtools import (
    CheckConfig,
    CheckResult,
    default_config,
    render_human,
    render_json,
    run_checks,
)
from repro.devtools.engine import UNPARSEABLE_RULE, UNUSED_SUPPRESSION_RULE

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Lay ``files`` (paths relative to src/repro) out as a package tree."""
    root = tmp_path / "proj"
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("", encoding="utf-8")
    for relpath, text in files.items():
        target = package / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        if target.name != "__init__.py" or not target.exists():
            target.write_text(text, encoding="utf-8")
        init = target.parent / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root


def check_tree(
    root: Path,
    *,
    observability_doc: Path | None = None,
    api_init: Path | None = None,
    api_snapshot: Path | None = None,
    update_api_snapshot: bool = False,
) -> CheckResult:
    config = CheckConfig(
        root=root,
        src_roots=(root / "src" / "repro",),
        observability_doc=observability_doc,
        api_init=api_init,
        api_snapshot=api_snapshot,
        update_api_snapshot=update_api_snapshot,
    )
    return run_checks(config)


def rules_found(result: CheckResult) -> list[str]:
    return [finding.rule for finding in result.findings]


class TestRep002TelemetryNames:
    def test_bad_convention_and_missing_suffix_flagged(self, tmp_path):
        root = make_tree(
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
        result = check_tree(root)
        # 'parse_count' breaks the convention AND the suffix: two findings.
        assert rules_found(result).count("REP002") == 4

    def test_good_names_clean_and_telemetry_package_exempt(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "metrics.py": (
                    "def setup(registry):\n"
                    "    registry.counter('repro_files_total')\n"
                    "    registry.histogram('repro_parse_seconds')\n"
                    "    registry.span('repro_parse')\n"
                ),
                # The registry machinery builds names dynamically and is
                # exempt by module prefix.
                "telemetry/inner.py": (
                    "def setup(registry):\n"
                    "    registry.counter('whatever')\n"
                ),
            },
        )
        assert check_tree(root).ok

    def test_undocumented_instrument_flagged_against_catalogue(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "metrics.py": (
                    "def setup(registry):\n"
                    "    registry.counter('repro_documented_total')\n"
                    "    registry.counter('repro_mystery_total')\n"
                )
            },
        )
        doc = root / "docs" / "observability.md"
        doc.parent.mkdir()
        doc.write_text("| `repro_documented_total` | files |\n", encoding="utf-8")
        result = check_tree(root, observability_doc=doc)
        assert rules_found(result) == ["REP002"]
        assert "repro_mystery_total" in result.findings[0].message

    def test_missing_catalogue_skips_doc_half(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "metrics.py": (
                    "def setup(registry):\n"
                    "    registry.counter('repro_mystery_total')\n"
                )
            },
        )
        absent = root / "docs" / "observability.md"
        assert check_tree(root, observability_doc=absent).ok


class TestRep003Determinism:
    def test_wall_clock_and_global_rng_flagged_in_pure_module(self, tmp_path):
        root = make_tree(
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
        assert rules_found(check_tree(root)) == ["REP003", "REP003"]

    def test_banned_from_import_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"geometry/clock.py": "from time import time\n"},
        )
        assert rules_found(check_tree(root)) == ["REP003"]

    def test_seeded_rng_and_monotonic_timer_allowed(self, tmp_path):
        root = make_tree(
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
        assert check_tree(root).ok

    def test_impure_module_may_read_clock(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "cli/clock.py": (
                    "import time\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                )
            },
        )
        assert check_tree(root).ok


class TestRep005TypedRaises:
    def test_untyped_raise_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "bad.py": (
                    "def go(x):\n"
                    "    if not x:\n"
                    "        raise ValueError('empty')\n"
                )
            },
        )
        result = check_tree(root)
        assert rules_found(result) == ["REP005"]
        assert "ValueError" in result.findings[0].message

    def test_typed_raise_and_reraise_forms_allowed(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "good.py": (
                    "from repro.errors import ParseError\n"
                    "class _Sentinel(Exception):\n"
                    "    pass\n"
                    "def go(x):\n"
                    "    try:\n"
                    "        if not x:\n"
                    "            raise ParseError('empty')\n"
                    "        raise _Sentinel('jump')\n"
                    "    except _Sentinel as exc:\n"
                    "        raise\n"
                )
            },
        )
        assert check_tree(root).ok

    def test_getattr_protocol_attributeerror_allowed(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "lazy.py": (
                    "def __getattr__(name):\n"
                    "    raise AttributeError(name)\n"
                    "def elsewhere(name):\n"
                    "    raise AttributeError(name)\n"
                )
            },
        )
        # Only the raise outside __getattr__ is a finding.
        result = check_tree(root)
        assert rules_found(result) == ["REP005"]
        assert result.findings[0].line == 4

    def test_bare_and_blind_excepts_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "handlers.py": (
                    "def a(fn):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except:\n"
                    "        pass\n"
                    "def b(fn):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except Exception:\n"
                    "        pass\n"
                )
            },
        )
        assert rules_found(check_tree(root)) == ["REP005", "REP005"]

    def test_binding_or_reraising_handler_allowed(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "handlers.py": (
                    "from repro.errors import ReproError\n"
                    "def a(fn, log):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except Exception as exc:\n"
                    "        log(exc)\n"
                    "def b(fn):\n"
                    "    try:\n"
                    "        fn()\n"
                    "    except Exception:\n"
                    "        raise ReproError('wrapped')\n"
                )
            },
        )
        assert check_tree(root).ok


class TestRep006ApiSurface:
    INIT = (
        "_EXPORTS = {\n"
        "    'alpha': 'repro.a',\n"
        "    'beta': 'repro.b',\n"
        "}\n"
        "__all__ = sorted([*_EXPORTS, '__version__'])\n"
    )

    def test_missing_snapshot_flagged_then_update_writes_it(self, tmp_path):
        root = make_tree(tmp_path, {"__init__.py": self.INIT})
        init = root / "src" / "repro" / "__init__.py"
        init.write_text(self.INIT, encoding="utf-8")
        snapshot = root / "api_surface.json"

        result = check_tree(root, api_init=init, api_snapshot=snapshot)
        assert rules_found(result) == ["REP006"]

        check_tree(
            root, api_init=init, api_snapshot=snapshot, update_api_snapshot=True
        )
        recorded = json.loads(snapshot.read_text(encoding="utf-8"))
        assert recorded == {
            "version": 1,
            "names": ["__version__", "alpha", "beta"],
        }
        assert check_tree(root, api_init=init, api_snapshot=snapshot).ok

    def test_drift_reports_added_and_removed_names(self, tmp_path):
        root = make_tree(tmp_path, {"__init__.py": self.INIT})
        init = root / "src" / "repro" / "__init__.py"
        init.write_text(self.INIT, encoding="utf-8")
        snapshot = root / "api_surface.json"
        snapshot.write_text(
            json.dumps(
                {"version": 1, "names": ["__version__", "alpha", "gone"]}
            ),
            encoding="utf-8",
        )
        result = check_tree(root, api_init=init, api_snapshot=snapshot)
        assert rules_found(result) == ["REP006"]
        message = result.findings[0].message
        assert "added: beta" in message
        assert "removed: gone" in message

    def test_unreadable_snapshot_flagged(self, tmp_path):
        root = make_tree(tmp_path, {"__init__.py": self.INIT})
        init = root / "src" / "repro" / "__init__.py"
        init.write_text(self.INIT, encoding="utf-8")
        snapshot = root / "api_surface.json"
        snapshot.write_text("{not json", encoding="utf-8")
        result = check_tree(root, api_init=init, api_snapshot=snapshot)
        assert rules_found(result) == ["REP006"]
        assert "unreadable" in result.findings[0].message


class TestRep007MutableDefaults:
    def test_literal_and_factory_defaults_flagged(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "defaults.py": (
                    "def f(items=[]):\n"
                    "    return items\n"
                    "def g(*, table=dict()):\n"
                    "    return table\n"
                    "h = lambda acc={1}: acc\n"
                )
            },
        )
        assert rules_found(check_tree(root)) == ["REP007"] * 3

    def test_none_default_clean(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "defaults.py": (
                    "def f(items=None, scale=1.0, name='x'):\n"
                    "    return items or []\n"
                )
            },
        )
        assert check_tree(root).ok


class TestSuppressions:
    def test_noqa_drops_the_finding(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "sup.py": (
                    "def f(items=[]):  # repro: noqa[REP007]\n"
                    "    return items\n"
                )
            },
        )
        result = check_tree(root)
        assert result.ok
        assert result.suppressions_used == 1

    def test_unused_suppression_reported_as_rep000(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "sup.py": (
                    "def f(items=None):  # repro: noqa[REP007]\n"
                    "    return items\n"
                )
            },
        )
        result = check_tree(root)
        assert rules_found(result) == [UNUSED_SUPPRESSION_RULE]
        assert "unused suppression" in result.findings[0].message

    def test_comma_separated_ids_suppress_independently(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "sup.py": (
                    "def f(items=[]):  # repro: noqa[REP005, REP007]\n"
                    "    return items\n"
                )
            },
        )
        # REP007 is used, REP005 is not: exactly one REP000 finding.
        result = check_tree(root)
        assert rules_found(result) == [UNUSED_SUPPRESSION_RULE]
        assert result.suppressions_used == 1

    def test_docstring_noqa_example_is_inert(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "sup.py": (
                    '"""Example: write ``# repro: noqa[REP007]`` inline."""\n'
                    "def f(items=None):\n"
                    "    return items\n"
                )
            },
        )
        assert check_tree(root).ok


class TestEngineAndReporters:
    def test_syntax_error_becomes_rep999_finding(self, tmp_path):
        root = make_tree(tmp_path, {"broken.py": "def f(:\n"})
        result = check_tree(root)
        assert rules_found(result) == [UNPARSEABLE_RULE]

    def test_findings_sorted_by_location(self, tmp_path):
        root = make_tree(
            tmp_path,
            {
                "b.py": "def f(items=[]):\n    return items\n",
                "a.py": (
                    "def g(table={}):\n"
                    "    return table\n"
                    "def h(acc=[]):\n"
                    "    return acc\n"
                ),
            },
        )
        result = check_tree(root)
        locations = [(f.path, f.line) for f in result.findings]
        assert locations == sorted(locations)

    def test_json_reporter_schema(self, tmp_path):
        root = make_tree(
            tmp_path,
            {"bad.py": "def f(items=[]):\n    return items\n"},
        )
        payload = json.loads(render_json(check_tree(root)))
        assert payload["version"] == 2
        assert payload["ok"] is False
        assert payload["files_checked"] == 2  # __init__.py + bad.py
        assert payload["counts"] == {"REP007": 1}
        # Schema v2 carries the rule catalogue: id → one-line summary.
        assert payload["rules"]["REP007"]
        assert set(payload["counts"]) <= set(payload["rules"])
        for rule_id in ("REP000", "REP009"):
            assert rule_id in payload["rules"]
        # retired with the code they policed or into the tier-1 test of
        # their one seam, and never reused
        for rule_id in ("REP001", "REP004", "REP008", "REP010", "REP011", "REP012"):
            assert rule_id not in payload["rules"]
        assert payload["suppressions_used"] == 0
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP007"
        assert finding["path"] == "src/repro/bad.py"
        assert finding["line"] == 1
        assert finding["severity"] == "error"
        assert "mutable default" in finding["message"]

    def test_human_reporter_clean_and_dirty(self, tmp_path):
        clean = make_tree(tmp_path / "clean", {"ok.py": "x = 1\n"})
        assert render_human(check_tree(clean)).endswith("files checked")
        dirty = make_tree(
            tmp_path / "dirty",
            {"bad.py": "def f(items=[]):\n    return items\n"},
        )
        report = render_human(check_tree(dirty))
        assert "src/repro/bad.py:1:" in report
        assert "(REP007:1)" in report


class TestCliCheck:
    def test_exit_0_on_real_repository(self, capsys):
        assert main(["check", "--root", str(REPO_ROOT)]) == 0
        out = capsys.readouterr().out
        assert "clean:" in out

    def test_exit_1_on_seeded_violation(self, tmp_path, capsys):
        root = make_tree(
            tmp_path,
            {"bad.py": "def f(items=[]):\n    return items\n"},
        )
        # Satisfy REP006 so the only finding is the seeded one.
        main(["check", "--root", str(root), "--update-api-snapshot"])
        capsys.readouterr()
        assert main(["check", "--root", str(root)]) == 1
        out = capsys.readouterr().out
        assert "REP007" in out

    def test_exit_2_on_unusable_root(self, tmp_path, capsys):
        empty = tmp_path / "not-a-repo"
        empty.mkdir()
        assert main(["check", "--root", str(empty)]) == 2

    def test_json_format_end_to_end(self, tmp_path, capsys):
        root = make_tree(tmp_path, {"ok.py": "x = 1\n"})
        main(["check", "--root", str(root), "--update-api-snapshot"])
        capsys.readouterr()
        assert main(["check", "--root", str(root), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["version"] == 2


class TestDefaultConfig:
    def test_default_config_points_at_committed_artifacts(self):
        config = default_config(root=REPO_ROOT)
        assert config.src_roots == (REPO_ROOT / "src" / "repro",)
        assert config.observability_doc == REPO_ROOT / "docs" / "observability.md"
        assert config.api_snapshot == REPO_ROOT / "api_surface.json"
        assert config.api_snapshot.is_file()

    def test_repository_checks_clean(self):
        result = run_checks(default_config(root=REPO_ROOT))
        assert result.findings == []
        assert result.files_checked > 100
