#!/usr/bin/env python3
"""Read-archive compaction and YAML load time, serial and pooled.

Writes the read workloads' archive once (``benchmarks/suite/README.md``):
asia-pacific as 4 day-shards of 48 YAML twins from a 16-document pool,
plus 12 world twins from a 4-document pool — 204 rows in 5 shards.  Then
it times two readers of every twin, in-process, on a fresh copy of the
archive per run, for ``workers=1`` and ``workers=2``: ``compact_map_shards``
of both maps, and ``load_all(..., use_index=False)`` of both maps (the
YAML read path), and prints the median and quartiles of each.

Every ``--src`` tree is timed over the same archive files, in alternating
order, so two checkouts (say, a change and its parent) compare like with
like; the default is the ``src/`` next to this script.  Informational
only: it gates nothing.

    python3 scripts/compaction_profile.py [--repeats 7] [--seed 1] [--src DIR ...]
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: (map, pool documents, days, twins per day) — the suite's read archive.
ARCHIVE = (("asia-pacific", 16, 4, 48), ("world", 4, 1, 12))

#: Times one STAGE (compact or load) of ROOT's maps with WORKERS; prints the seconds.
_TIMED = """
import sys
from pathlib import Path
from time import perf_counter
from repro.constants import MapName
from repro.dataset.loader import load_all
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import ShardedDatasetStore
store, workers = ShardedDatasetStore(Path(sys.argv[1])), int(sys.argv[2])
started = perf_counter()
for value in ("world", "asia-pacific"):
    if sys.argv[3] == "compact":
        compact_map_shards(store, MapName(value), workers=workers)
    else:
        load_all(store, MapName(value), use_index=False, workers=workers)
print(perf_counter() - started)
"""

STAGES = ("compact", "load")


def write_archive(root: Path, seed: int) -> None:
    """Render the pools and write the archive's YAML twins under ``root``."""
    sys.path.insert(0, str(SRC))
    from repro.constants import REFERENCE_DATE, SNAPSHOT_INTERVAL, MapName
    from repro.dataset.processor import process_svg_bytes
    from repro.dataset.store import ShardedDatasetStore
    from repro.layout.renderer import MapRenderer
    from repro.simulation.network import BackboneSimulator

    rng = random.Random(seed)
    store = ShardedDatasetStore(root)
    store.mark()
    base = REFERENCE_DATE.isoformat()
    for value, size, days, per_day in ARCHIVE:
        map_name = MapName(value)
        simulator, renderer = BackboneSimulator(), MapRenderer()
        pool: list[str] = []
        for offset in rng.sample(range(30 * 288), size + 16):
            when = REFERENCE_DATE - offset * SNAPSHOT_INTERVAL
            svg = renderer.render(simulator.snapshot(map_name, when)).encode()
            text = process_svg_bytes(svg, map_name, REFERENCE_DATE).yaml_text
            if text is not None and text.count(base) == 1:
                pool.append(text)
            if len(pool) == size:
                break
        for number in range(days * per_day):
            when = REFERENCE_DATE + (number // per_day) * 288 * SNAPSHOT_INTERVAL
            when += (number % per_day) * SNAPSHOT_INTERVAL
            text = pool[number % len(pool)].replace(base, when.isoformat())
            store.write(map_name, when, "yaml", text)


def time_once(src: Path, archive: Path, workers: int, stage: str) -> float:
    """One ``stage`` over a fresh copy of ``archive`` with ``src``'s code."""
    with tempfile.TemporaryDirectory() as workdir:
        root = Path(workdir) / "archive"
        shutil.copytree(archive, root)
        completed = subprocess.run(
            [sys.executable, "-c", _TIMED, str(root), str(workers), stage],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src), "PATH": ""},
        )
    return float(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, action="append", default=None)
    args = parser.parse_args()
    sources = [path.resolve() for path in args.src or [SRC]]
    with tempfile.TemporaryDirectory() as workdir:
        archive = Path(workdir) / "archive"
        write_archive(archive, args.seed)
        times: dict[tuple[str, str, int], list[float]] = {}
        for repeat in range(args.repeats):
            order = sources if repeat % 2 == 0 else sources[::-1]
            for src in order:
                for stage in STAGES:
                    for workers in (1, 2):
                        seconds = time_once(src, archive, workers, stage)
                        times.setdefault((str(src), stage, workers), []).append(seconds)
    for (src, stage, workers), values in times.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(json.dumps({
            "src": src, "stage": stage, "workers": workers, "repeats": len(values),
            "median_s": round(median, 3), "q1_s": round(q1, 3), "q3_s": round(q3, 3),
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
