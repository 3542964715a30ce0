"""REP006: ``repro.__all__`` matches the committed ``api_surface.json``.

``repro.__all__`` is the stable public surface, assembled from the
``_EXPORTS`` table of ``src/repro/__init__.py``; a stray edit there could
widen or shrink it unnoticed until a downstream import breaks.  So any
change to the surface is a reviewable two-part diff: the code and the
snapshot's ``names``, which are edited by hand.  On drift the failure
lists the ``added:`` and ``removed:`` names.
"""

from __future__ import annotations

import json
from pathlib import Path

import repro
from tests.source_scan import PACKAGE

SNAPSHOT = PACKAGE.parents[1] / "api_surface.json"


def surface_drift(names: list[str], snapshot: Path) -> list[str]:
    """How ``names`` differs from the ``names`` recorded in ``snapshot``."""
    try:
        recorded = json.loads(snapshot.read_text(encoding="utf-8"))["names"]
    except FileNotFoundError:
        return [f"no {snapshot.name} snapshot"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return [f"{snapshot.name} is unreadable: no JSON 'names' list"]
    problems = []
    added = sorted(set(names) - set(recorded))
    removed = sorted(set(recorded) - set(names))
    if added:
        problems.append(f"added: {', '.join(added)}")
    if removed:
        problems.append(f"removed: {', '.join(removed)}")
    return problems


class TestApiSurface:
    def test_public_surface_matches_the_snapshot(self):
        names = sorted(repro.__all__)
        assert "__version__" in names and len(names) > 1
        assert surface_drift(names, SNAPSHOT) == [], (
            f"repro.__all__ drifted from {SNAPSHOT.name}; review the change, "
            f"then edit the snapshot's names to match"
        )

    def test_missing_snapshot_flagged(self, tmp_path):
        assert surface_drift(["alpha"], tmp_path / "api_surface.json") == [
            "no api_surface.json snapshot"
        ]

    def test_drift_reports_added_and_removed_names(self, tmp_path):
        snapshot = tmp_path / "api_surface.json"
        snapshot.write_text(
            json.dumps({"version": 1, "names": ["__version__", "alpha", "gone"]}),
            encoding="utf-8",
        )
        assert surface_drift(["__version__", "alpha", "beta"], snapshot) == [
            "added: beta",
            "removed: gone",
        ]
        assert surface_drift(["__version__", "alpha", "gone"], snapshot) == []

    def test_unreadable_snapshot_flagged(self, tmp_path):
        snapshot = tmp_path / "api_surface.json"
        for text in ("{not json", '{"version": 1}', "[1, 2]"):
            snapshot.write_text(text, encoding="utf-8")
            assert surface_drift(["alpha"], snapshot) == [
                "api_surface.json is unreadable: no JSON 'names' list"
            ]
