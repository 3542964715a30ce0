#!/usr/bin/env python3
"""Per-stage parse cost of a layout miss and a layout hit, per map.

Renders, once, two consecutive 5-minute documents of each map (the
second repeats the first one's layout), then, in a fresh interpreter per
``--src`` tree and round, parses them with the default options: the first
with empty layout slots (a *miss*: geometry is built and Algorithm 2
runs), the second right after it (a *hit*: the stored plan is replayed).
Each round parses every pair ``--inner`` times; ``--src`` trees alternate
their order from round to round, so two checkouts (say, a change and its
parent) compare like with like.  Prints, per tree, map and case, the
``[q1, median, q3]`` milliseconds of each ``StageTimings`` stage over
every parse.  Informational only: it gates nothing.

    python3 scripts/parse_profile.py [--rounds 5] [--inner 5] [--src DIR ...]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
STAGES = ("extract", "attribute", "checks", "serialize")

#: Renders the documents into DIR: ``<map>-0.svg`` and ``<map>-1.svg``.
_RENDER = """
import sys
from datetime import timedelta
from repro.constants import REFERENCE_DATE, MapName
from repro.layout.renderer import MapRenderer
from repro.simulation import BackboneSimulator

simulator, renderer = BackboneSimulator(), MapRenderer()
for map_name in MapName:
    for step in range(2):
        when = REFERENCE_DATE - timedelta(minutes=5 * (1 - step))
        svg = renderer.render(simulator.snapshot(map_name, when))
        with open(f"{sys.argv[1]}/{map_name.value}-{step}.svg", "w") as handle:
            handle.write(svg)
"""

#: Parses DIR's pairs INNER times; prints {map: {case: {stage: [seconds]}}}.
_PARSE = """
import json, sys
from repro.constants import MapName
from repro.parsing import pipeline
from repro.parsing.pipeline import StageTimings, parse_svg

folder, inner = sys.argv[1], int(sys.argv[2])
out = {}
for map_name in MapName:
    pair = [open(f"{folder}/{map_name.value}-{step}.svg", "rb").read() for step in range(2)]
    cases = out[map_name.value] = {"miss": {}, "hit": {}}
    for _ in range(inner):
        pipeline._LAYOUTS.clear()
        for case, svg in zip(("miss", "hit"), pair):
            timings = StageTimings()
            parse_svg(svg, map_name, timings=timings)
            for stage, seconds in timings.seconds.items():
                cases[case].setdefault(stage, []).append(seconds)
print(json.dumps(out))
"""


def _child(src: Path, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, check=True, capture_output=True, text=True
    )
    return done.stdout


def _quartiles(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{median * 1e3:7.2f} [{q1 * 1e3:.2f}, {q3 * 1e3:.2f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--inner", type=int, default=5)
    parser.add_argument("--src", type=Path, action="append")
    args = parser.parse_args()
    trees = [path.resolve() for path in args.src or [SRC]]
    samples: dict[Path, dict] = {tree: {} for tree in trees}
    with tempfile.TemporaryDirectory() as folder:
        _child(trees[-1], _RENDER, folder)
        for round_number in range(args.rounds):
            order = trees if round_number % 2 == 0 else trees[::-1]
            for tree in order:
                parsed = json.loads(_child(tree, _PARSE, folder, str(args.inner)))
                for map_name, cases in parsed.items():
                    for case, stages in cases.items():
                        for stage, seconds in stages.items():
                            samples[tree].setdefault((map_name, case, stage), []).extend(seconds)
    print(f"cpu_count {os.cpu_count()}, {args.rounds} rounds x {args.inner} parses per case")
    print("ms per parse, median [q1, q3]")
    for tree in trees:
        print(f"\n{tree}")
        print(f"{'map':<14} {'case':<5} " + " ".join(f"{stage:>24}" for stage in STAGES))
        for map_name, case in sorted({key[:2] for key in samples[tree]}):
            cells = [_quartiles(samples[tree][(map_name, case, stage)]) for stage in STAGES]
            print(f"{map_name:<14} {case:<5} " + " ".join(f"{cell:>24}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
