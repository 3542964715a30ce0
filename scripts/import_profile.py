#!/usr/bin/env python3
"""Cold-start profile: what each long-lived entry point pays to import.

For the ingest daemon, the HTTP server and the CLI, runs the entry
point's imports in fresh interpreters and prints:

* the median import wall time over :data:`RUNS` interpreters (the
  interpreter's own start-up excluded), with the fastest and slowest run;
* the peak RSS of such an interpreter once the imports are done: its own
  ``VmHWM`` from ``/proc/self/status``.  ``getrusage``'s ``ru_maxrss``
  would not do: Linux carries that high-water mark across ``execve``, so
  a child forked from a large parent reports the parent's peak;
* which of the heavy third-party layers (:data:`LAYERS`) the imports
  load, on a ``<entry point> loads: ...`` line;
* the :data:`TOP` modules with the largest cumulative ``-X importtime``,
  from one more interpreter.

The children import the ``src/`` tree next to this script, so the
numbers describe this checkout.  The timings gate nothing;
``scripts/reproduce_all.sh`` fails if the ``daemon loads:`` line lists
numpy.  Run it with ``python3 scripts/import_profile.py``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Fresh interpreters per entry point for the median.
RUNS = 7

#: Slowest modules (by cumulative import time) listed per entry point.
TOP = 8

#: Heavy third-party layers whose presence in a closure is reported.
LAYERS = ("numpy", "yaml", "networkx")

#: Entry point -> the imports its process performs before it can work
#: (the same ones ``benchmarks/suite/sut_*.py`` perform).
ENTRY_POINTS = {
    "daemon": (
        "import repro.constants, repro.dataset.engine, repro.dataset.ingest, "
        "repro.dataset.shards, repro.dataset.store"
    ),
    "server": "import repro.dataset.store\nfrom repro.server import ServeOptions, create_server",
    "cli": "import repro.cli.main",
}

_TIMED = """\
import json, sys, time
started = time.perf_counter()
{imports}
elapsed = time.perf_counter() - started
with open("/proc/self/status") as status:
    peak_kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
layers = [name for name in {layers!r} if name in sys.modules]
print(json.dumps({{"seconds": elapsed, "peak_kib": peak_kib, "layers": layers}}))
"""


def _child(args: list[str]) -> subprocess.CompletedProcess:
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    completed = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    if completed.returncode != 0:
        raise SystemExit(f"child failed:\n{completed.stderr}")
    return completed


def timed_imports(imports: str) -> tuple[list[float], int, list[str]]:
    """Import seconds of each fresh interpreter, the largest peak RSS (KiB),
    and the :data:`LAYERS` the imports load."""
    seconds: list[float] = []
    peak_kib = 0
    script = _TIMED.format(imports=imports, layers=LAYERS)
    for _ in range(RUNS):
        result = json.loads(_child(["-c", script]).stdout)
        seconds.append(result["seconds"])
        peak_kib = max(peak_kib, result["peak_kib"])
    return seconds, peak_kib, result["layers"]


def import_times(code: str) -> dict[str, int]:
    """Module -> cumulative ``-X importtime`` microseconds for running ``code``."""
    stderr = _child(["-X", "importtime", "-c", code]).stderr
    times: dict[str, int] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        times[name.strip()] = max(times.get(name.strip(), 0), int(cumulative))
    return times


def slowest_modules(imports: str, startup: set[str]) -> list[tuple[int, str]]:
    """(cumulative microseconds, module) of the :data:`TOP` slowest imports.

    Modules the bare interpreter already loads (``startup``) are left out.
    """
    rows = [(us, name) for name, us in import_times(imports).items() if name not in startup]
    return sorted(rows, reverse=True)[:TOP]


def main() -> int:
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs, {RUNS} runs per entry point")
    startup = set(import_times("pass"))
    for name, imports in ENTRY_POINTS.items():
        seconds, peak_kib, layers = timed_imports(imports)
        print(
            f"\n{name}: import {statistics.median(seconds):.3f} s median "
            f"(min {min(seconds):.3f}, max {max(seconds):.3f}), "
            f"peak RSS (VmHWM) {peak_kib / 1024:.1f} MiB"
        )
        print(f"{name} loads: {', '.join(layers) or 'none'}")
        for cumulative, module in slowest_modules(imports, startup):
            print(f"  {cumulative / 1e6:7.3f} s  {module}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
