#!/usr/bin/env python3
"""Write-path throughput: the ingest daemon with one and two workers, and ``process``.

Generates one corpus of europe SVGs (96 files by default: 8 hours at the
paper's 5-minute cadence from 2021-03-01), then, on a fresh copy of it
per run and in a fresh interpreter:

* ``ingest-w1`` / ``ingest-w2`` — ``IngestDaemon(store,
  IngestConfig(workers=W)).run([europe])``: files/s over the run's wall
  time (parse, write, fsync, checkpoint compaction), the daemon's peak
  RSS (its own ``VmHWM``) and its pool workers' peak RSS (the largest
  ``ru_maxrss`` among reaped children; a forked worker counts the pages
  it shares with the daemon);
* ``process`` — ``repro-weather process`` with its serial default:
  wall time of the whole command, interpreter start-up included.

Every ``--src`` tree is timed over the same corpus, in alternating order,
so two checkouts (say, a change and its parent) compare like with like;
the default is the ``src/`` next to this script.  Cases alternate their
order too, so repeat ``i`` of ``ingest-w1`` and ``ingest-w2`` is a pair.
Prints the quartiles ``[q1, median, q3]`` and the runs in order, per
tree and case.  Informational only: it gates nothing.

    python3 scripts/write_path_profile.py [--repeats 5] [--hours 8] [--src DIR ...]
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
START = "2021-03-01T00:00:00+00:00"

#: One daemon run over ROOT's europe SVGs with WORKERS; prints a JSON line.
_INGEST = """
import json, resource, sys
from repro.constants import MapName
from repro.dataset.ingest import IngestConfig, IngestDaemon
from repro.dataset.store import open_store
stats = IngestDaemon(open_store(sys.argv[1]), IngestConfig(workers=int(sys.argv[2]))).run(
    [MapName.EUROPE]
)
status = open("/proc/self/status").read()
hwm = int(status.split("VmHWM:")[1].split()[0])
children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({
    "files": stats.ingested, "fps": stats.sustained_fps,
    "daemon_mb": hwm / 1024, "workers_mb": children / 1024,
}))
"""


def generate(root: Path, hours: int) -> None:
    """Render ``hours`` of europe SVGs at the 5-minute cadence under ``root``."""
    end = f"2021-03-01T{hours:02d}:00:00+00:00"
    subprocess.run(
        [sys.executable, "-m", "repro.cli.main", "generate", str(root),
         "--start", START, "--end", end, "--map", "europe"],
        check=True,
        capture_output=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )


def run_once(src: Path, corpus: Path, case: str) -> dict[str, float]:
    """One ``case`` over a fresh copy of ``corpus`` with ``src``'s code."""
    env = {"PYTHONPATH": str(src), "PATH": ""}
    with tempfile.TemporaryDirectory() as workdir:
        root = Path(workdir) / "corpus"
        shutil.copytree(corpus, root)
        if case == "process":
            started = perf_counter()
            subprocess.run(
                [sys.executable, "-m", "repro.cli.main", "process", str(root)],
                check=True, capture_output=True, env=env,
            )
            return {"wall_s": perf_counter() - started}
        completed = subprocess.run(
            [sys.executable, "-c", _INGEST, str(root), case[-1]],
            check=True, capture_output=True, text=True, env=env,
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--hours", type=int, default=8)
    parser.add_argument("--src", type=Path, action="append", default=None)
    args = parser.parse_args()
    sources = [path.resolve() for path in args.src or [SRC]]
    samples: dict[tuple[str, str], list[dict[str, float]]] = {}
    with tempfile.TemporaryDirectory() as workdir:
        corpus = Path(workdir) / "corpus"
        generate(corpus, args.hours)
        for repeat in range(args.repeats):
            order = sources if repeat % 2 == 0 else sources[::-1]
            cases = ("ingest-w1", "ingest-w2", "process")
            for case in cases if repeat % 2 == 0 else cases[::-1]:
                for src in order:
                    samples.setdefault((str(src), case), []).append(
                        run_once(src, corpus, case)
                    )
    for (src, case), runs in samples.items():
        summary: dict[str, object] = {"src": src, "case": case, "repeats": len(runs)}
        for key in runs[0]:
            values = [run[key] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (
                values * 3
            )
            summary[key] = [round(q1, 3), round(median, 3), round(q3, 3)]
            summary[f"{key}_runs"] = [round(value, 3) for value in values]
        print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
