#!/usr/bin/env python3
"""Read-archive compaction and loader times.

Writes the read workloads' archive once (``benchmarks/suite/README.md``):
asia-pacific as 4 day-shards of 48 YAML twins from a 16-document pool,
plus 12 world twins from a 4-document pool — 204 rows in 5 shards.  Then
it times, in-process and on a fresh copy of the archive per run, each
stage over both maps: ``compact_map_shards`` with ``workers=1`` and
``workers=2``; ``load_all(..., use_index=False)`` (the YAML tier); and,
on an archive compacted beforehand (untimed), ``load_all`` and
``latest_snapshot`` from the shard indexes, each as the first read in a
fresh process and again warm.  The ``carry`` stages time the steady-state
carry-over: on an archive compacted beforehand in another process, a fresh
process adds two twins to one asia-pacific day and compacts again, and
reports how far the compaction raised its peak RSS (``VmHWM``, Linux
only).  ``carry`` adds them to the archive's first day (the shard carries
48 rows over and decodes 2); ``carry-full-day`` to a fifth day of 286
twins written beside the archive, which they fill to the paper's 288
snapshots a day.  It prints the median and quartiles of each with the
host's ``cpu_count``, for ``compact`` the median's cost per twin
(``median_ms_per_row``, over the archive's 204 rows), and for the
``carry`` stages the rows carried and the median ``VmHWM`` delta.

Every ``--src`` tree is timed over the same archive files, in alternating
order, so two checkouts (say, a change and its parent) compare like with
like; the default is the ``src/`` next to this script.  The children
keep their bytecode under a ``PYTHONPYCACHEPREFIX`` in this run's
temporary directory, never in a ``--src`` tree: each tree compiles once,
in its first child.  Informational only: it gates nothing.

    python3 scripts/compaction_profile.py [--repeats 7] [--seed 1] [--src DIR ...]
"""

from __future__ import annotations

import argparse
import json
import os
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
#: YAML twins in the archive: the rows a ``compact`` stage indexes.
ROWS = sum(days * per_day for _, _, days, per_day in ARCHIVE)
#: carry stage -> (asia-pacific day after REFERENCE_DATE, rows it carries).
CARRY = {"carry": (0, 48), "carry-full-day": (4, 286)}

#: Times one STAGE of ROOT's maps with WORKERS; prints the seconds, and
#: for a ``carry`` stage (DAY, CARRIED) the compaction's VmHWM delta in KiB.
_TIMED = """
import sys
from pathlib import Path
from time import perf_counter
from repro.constants import REFERENCE_DATE, SNAPSHOT_INTERVAL, MapName
from repro.dataset.loader import latest_snapshot, load_all
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import ShardedDatasetStore
from repro.telemetry import MetricsRegistry, use_registry
store, workers, stage = ShardedDatasetStore(Path(sys.argv[1])), int(sys.argv[2]), sys.argv[3]
maps = [MapName("world"), MapName("asia-pacific")]
if stage.startswith("index-"):
    for map_name in maps:
        compact_map_shards(store, map_name)
def hwm_kib():
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return 0
if stage.startswith("carry"):
    import repro.yamlio.deserialize  # the decoder's imports stay out of the delta
    apac = MapName("asia-pacific")
    day, carried = int(sys.argv[4]), int(sys.argv[5])
    text = store.path_for(apac, REFERENCE_DATE, "yaml").read_text()
    for slot in (carried, carried + 1):
        when = REFERENCE_DATE + (day * 288 + slot) * SNAPSHOT_INTERVAL
        store.write(apac, when, "yaml", text.replace(REFERENCE_DATE.isoformat(), when.isoformat()))
    maps = [apac]
    before = hwm_kib()
def read():
    for map_name in maps:
        if stage == "compact" or stage.startswith("carry"):
            compact_map_shards(store, map_name, workers=workers)
        elif stage == "yaml-load":
            load_all(store, map_name, use_index=False)
        elif stage.startswith("index-load"):
            load_all(store, map_name)
        else:
            latest_snapshot(store, map_name)
if stage.endswith("-warm"):
    read()  # untimed: the process has imported and warmed the read path
with use_registry(MetricsRegistry()) as registry:
    started = perf_counter()
    read()
    seconds = perf_counter() - started
if stage.startswith("index-"):
    loaded = registry.get("repro_snapshots_loaded_total")
    assert all(loaded.value(map=m.value, source="yaml") == 0 for m in maps), stage
if stage.startswith("carry"):
    rows = registry.get("repro_index_rows_total")
    assert rows.value(map=apac.value, outcome="reused") == carried, stage
    print(seconds, hwm_kib() - before)
else:
    print(seconds)
"""

#: stage -> the worker counts it is timed with.  An ``index-*`` stage times
#: the first read in a fresh process (imports included); ``-warm`` times a
#: second read after an untimed first one.
STAGES = {
    "compact": (1, 2),
    "carry": (1,),
    "carry-full-day": (1,),
    "yaml-load": (1,),
    "index-load": (1,),
    "index-load-warm": (1,),
    "index-latest": (1,),
    "index-latest-warm": (1,),
}


def write_archive(root: Path, seed: int) -> None:
    """Render the pools and write the archive's YAML twins under ``root``."""
    sys.dont_write_bytecode = True  # nothing written into the checkout
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


def write_full_day(archive: Path, root: Path) -> None:
    """A copy of ``archive`` plus the ``carry-full-day`` stage's day: its
    asia-pacific twins, the first day's over again, in 286 slots."""
    from repro.constants import REFERENCE_DATE, SNAPSHOT_INTERVAL, MapName
    from repro.dataset.store import ShardedDatasetStore

    shutil.copytree(archive, root)
    store = ShardedDatasetStore(root)
    apac = MapName("asia-pacific")
    day, carried = CARRY["carry-full-day"]
    _, _, _, per_day = ARCHIVE[0]
    for slot in range(carried):
        source = REFERENCE_DATE + (slot % per_day) * SNAPSHOT_INTERVAL
        when = REFERENCE_DATE + (day * 288 + slot) * SNAPSHOT_INTERVAL
        text = store.path_for(apac, source, "yaml").read_text()
        store.write(apac, when, "yaml", text.replace(source.isoformat(), when.isoformat()))


def time_once(
    src: Path, archive: Path, pycache: Path, workers: int, stage: str
) -> list[float]:
    """One ``stage`` over a fresh copy of ``archive`` with ``src``'s code,
    its bytecode under ``pycache``: its seconds, and for a ``carry`` stage
    its VmHWM delta in KiB."""

    def child(root: Path, stage: str) -> list[float]:
        carry = [str(value) for value in CARRY.get(stage, ())]
        completed = subprocess.run(
            [sys.executable, "-c", _TIMED, str(root), str(workers), stage, *carry],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src), "PATH": "", "PYTHONPYCACHEPREFIX": str(pycache)},
        )
        return [float(value) for value in completed.stdout.strip().splitlines()[-1].split()]

    with tempfile.TemporaryDirectory() as workdir:
        root = Path(workdir) / "archive"
        shutil.copytree(archive, root)
        if stage in CARRY:
            child(root, "compact")  # the previous generation, built elsewhere
        return child(root, stage)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--src", type=Path, action="append", default=None)
    args = parser.parse_args()
    sources = [path.resolve() for path in args.src or [SRC]]
    with tempfile.TemporaryDirectory() as workdir:
        archive, full_day = Path(workdir) / "archive", Path(workdir) / "full-day"
        write_archive(archive, args.seed)
        write_full_day(archive, full_day)
        times: dict[tuple[str, str, int], list[list[float]]] = {}
        for repeat in range(args.repeats):
            order = sources if repeat % 2 == 0 else sources[::-1]
            for src in order:
                for stage in STAGES:
                    for workers in STAGES[stage]:
                        root = full_day if stage == "carry-full-day" else archive
                        measured = time_once(
                            src, root, Path(workdir) / "pycache", workers, stage
                        )
                        times.setdefault((str(src), stage, workers), []).append(measured)
    for (src, stage, workers), runs in times.items():
        q1, median, q3 = statistics.quantiles([run[0] for run in runs], n=4)
        row = {
            "src": src, "stage": stage, "workers": workers, "repeats": len(runs),
            "median_s": round(median, 3), "q1_s": round(q1, 3), "q3_s": round(q3, 3),
        }
        if stage == "compact":
            row["median_ms_per_row"] = round(median * 1000 / ROWS, 3)
        if stage in CARRY:
            row["rows_carried"] = CARRY[stage][1]
            row["median_ms"] = round(median * 1000, 2)
            hwm = statistics.median(run[1] for run in runs)
            row["median_hwm_delta_mib"] = round(hwm / 1024, 2)
        print(json.dumps({**row, "cpu_count": os.cpu_count()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
