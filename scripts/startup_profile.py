#!/usr/bin/env python3
"""Start-up profile: the benchmark children's ``repro`` imports, cold and cached.

Each ``benchmarks/suite`` run starts its children — ``sut_ingest.py``
(the ingest daemon) and ``sut_server.py`` (the HTTP server) — afresh, and
each child imports its ``repro`` entry modules before it can work.  In a
fresh checkout there is no bytecode under ``src/``, and with
``PYTHONDONTWRITEBYTECODE=1`` none is ever written, so every start
compiles those modules again.  For both entry points this runs
``--repeats`` fresh interpreters in each of two modes:

* cold: over a copy of ``src/`` without bytecode, with
  ``PYTHONDONTWRITEBYTECODE=1``, so every ``repro`` import compiles its
  source (the standard library and site packages keep their own cached
  bytecode, as in the suite);
* cached: over a copy whose bytecode one untimed interpreter wrote under
  a ``PYTHONPYCACHEPREFIX`` temporary directory, which the timed ones
  read.

Neither mode writes into the checkout.  For each entry point and mode it
prints ``[median, min, max]`` of the import time (measured inside the
child, as ``scripts/import_profile.py`` does) and of the child's whole
wall time (interpreter start-up included), with the host's ``cpu_count``.

``--split WORKLOAD`` (repeatable) instead runs ``benchmarks/suite/run.py``
in-process, one :data:`SPLIT_SECONDS` run per seed ``1..--repeats``, and
splits each of its set-ups (what ``setup_s`` is the median of) into
phases: ``write`` (the store and the inputs), ``children`` (until every
child prints ``ready``), ``build`` (the set-up commands, such as the read
archive's compaction) and ``healthz`` (until the server answers
``/v1/healthz``).  The children run this checkout's ``src/`` under the
caller's environment, so run it with ``PYTHONDONTWRITEBYTECODE=1`` in a
tree without bytecode for the suite's cold start.  Informational only: it
gates nothing.

    python3 scripts/startup_profile.py [--repeats 7] [--split WORKLOAD ...]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from import_profile import ENTRY_POINTS, LAYERS, SRC, _TIMED  # noqa: E402

#: The entry points whose imports the suite's children perform.
CHILDREN = ("daemon", "server")

SUITE = Path(__file__).resolve().parents[1] / "benchmarks" / "suite"

#: Set-up phases, each ending at the mark after it (see :func:`setup_split`).
PHASES = ("write", "children", "build", "healthz")

#: Length of each ``--split`` run's measured phase; set-up time does not
#: depend on it.
SPLIT_SECONDS = 2.0


def run_child(imports: str, src: Path, env: dict[str, str]) -> tuple[float, float]:
    """(import seconds, whole-child wall seconds) of one fresh interpreter."""
    script = _TIMED.format(imports=imports, layers=LAYERS)
    started = perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**env, "PYTHONPATH": str(src)},
        timeout=120,
    )
    wall = perf_counter() - started
    if completed.returncode != 0:
        raise SystemExit(f"child failed:\n{completed.stderr}")
    return json.loads(completed.stdout)["seconds"], wall


def setup_split(workload: str, seeds: range) -> list[dict[str, float]]:
    """Each of ``workload``'s set-ups split into :data:`PHASES`, in seconds."""
    sys.path[:0] = [str(SUITE), str(SRC)]
    import harness
    import run
    import workloads

    splits: list[dict[str, float]] = []
    marks: dict[str, float] = {}
    set_up, start_sut = workloads.Bench.set_up, workloads.Bench.start_sut
    run_until, http_init = harness.Pump.run_until, harness.Http.__init__

    def timed_set_up(bench, build):
        def timed(root, traced):
            marks.clear()
            marks["start"] = perf_counter()
            sut = build(root, traced)
            edges = [marks[name] for name in ("start", "enter", "ready")]
            edges += [marks.get("http", marks["leave"]), marks["leave"]]
            splits.append({name: b - a for name, a, b in zip(PHASES, edges, edges[1:])})
            return sut

        return set_up(bench, timed)

    def timed_start_sut(bench, *args, **kwargs):
        marks["enter"] = perf_counter()
        sut = start_sut(bench, *args, **kwargs)
        marks["leave"] = perf_counter()
        return sut

    def timed_run_until(pump, *args, **kwargs):
        done = run_until(pump, *args, **kwargs)
        if "enter" in marks:
            marks.setdefault("ready", perf_counter())
        return done

    def timed_http_init(http, *args, **kwargs):
        marks.setdefault("http", perf_counter())
        http_init(http, *args, **kwargs)

    workloads.Bench.set_up = timed_set_up
    workloads.Bench.start_sut = timed_start_sut
    harness.Pump.run_until = timed_run_until
    harness.Http.__init__ = timed_http_init
    for seed in seeds:
        with contextlib.redirect_stdout(io.StringIO()):
            status = run.main(
                ["--workload", workload, "--seed", str(seed), "--seconds", str(SPLIT_SECONDS)]
            )
        if status != 0:
            raise SystemExit(f"{workload} seed {seed} failed")
    return splits


def spread(values: list[float]) -> list[float]:
    """``[median, min, max]`` of ``values``, rounded to the millisecond."""
    return [round(statistics.median(values), 3), round(min(values), 3), round(max(values), 3)]


def print_split(workload: str, splits: list[dict[str, float]]) -> None:
    """Median [min, max] of each phase and of the whole set-up."""
    columns = {name: [split[name] for split in splits] for name in PHASES}
    columns["total"] = [sum(split.values()) for split in splits]
    print(json.dumps({
        "workload": workload,
        "setups": len(splits),
        **{f"{name}_s": spread(values) for name, values in columns.items()},
        "cpu_count": os.cpu_count(),
    }))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument(
        "--split", action="append", default=None, metavar="WORKLOAD",
        help="split this suite workload's set-ups into phases instead",
    )
    args = parser.parse_args()
    if args.split:
        for workload in args.split:
            print_split(workload, setup_split(workload, range(1, args.repeats + 1)))
        return 0
    base = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")
    }
    print(
        f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs, "
        f"{args.repeats} runs per entry point and mode"
    )
    with tempfile.TemporaryDirectory() as workdir:
        src = Path(workdir) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        prefix = Path(workdir) / "pycache"
        modes = {
            "cold": {**base, "PYTHONDONTWRITEBYTECODE": "1"},
            "cached": {**base, "PYTHONPYCACHEPREFIX": str(prefix)},
        }
        for name in CHILDREN:
            imports = ENTRY_POINTS[name]
            run_child(imports, src, modes["cached"])  # writes the cached mode's bytecode
            runs: dict[str, list[tuple[float, float]]] = {mode: [] for mode in modes}
            for _ in range(args.repeats):
                for mode, env in modes.items():
                    runs[mode].append(run_child(imports, src, env))
            for mode, measured in runs.items():
                print(json.dumps({
                    "entry_point": name,
                    "mode": mode,
                    "repeats": len(measured),
                    "import_s": spread([seconds for seconds, _ in measured]),
                    "child_s": spread([wall for _, wall in measured]),
                    "cpu_count": os.cpu_count(),
                }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
