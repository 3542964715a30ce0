"""One performance ledger: ``benchmarks/suite`` and nothing beside it.

``BENCHMARK.json`` declares the suite's workloads, metrics and bounds, and
``scripts/reproduce_all.sh`` runs each workload once with its oracles.  The
older benches, their committed baselines and their regression gate are
gone.  These checks fail if the reproduction script runs a workload the
ledger does not declare (or skips one it does), or if a reference to the
retired system comes back.
"""

from __future__ import annotations

import json
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: The retired bench modules, baselines and gate, spelt so that this file
#: does not match itself.
RETIRED = re.compile(
    r"BENCH[_]|check[_]bench[_]regression"
    r"|bench[_](?:ingest|serving|throughput[_]processing)"
)

#: Markdown at the root that documents the current tree.  The rest of the
#: root's Markdown is the project's record (changelog, roadmap, paper
#: notes), which may name what was retired, as may the suite's own README.
ROOT_DOCS = {"README.md", "DESIGN.md", "EXPERIMENTS.md"}


def tracked_files() -> list[str]:
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    return [name for name in listed.stdout.decode().split("\0") if name]


def test_reproduction_runs_each_ledger_workload_once():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = sorted(workload["name"] for workload in benchmark["workloads"])
    script = (ROOT / "scripts" / "reproduce_all.sh").read_text(encoding="utf-8")
    assert sorted(re.findall(r"--workload\s+(\S+)", script)) == declared


def test_nothing_names_the_retired_benches():
    offenders = []
    for name in tracked_files():
        if name.startswith("benchmarks/suite/"):
            continue
        if "/" not in name and name.endswith(".md") and name not in ROOT_DOCS:
            continue
        path = ROOT / name
        if not path.is_file():
            continue  # deleted in the work tree, not yet in the index
        text = path.read_text(encoding="utf-8", errors="replace")
        offenders.extend(
            f"{name}:{number}: {line.strip()}"
            for number, line in enumerate(text.splitlines(), 1)
            if RETIRED.search(line)
        )
    assert offenders == []
