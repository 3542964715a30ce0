#!/usr/bin/env python3
"""What the telemetry subsystem costs serial SVG → YAML processing.

Renders a small corpus of asia-pacific SVGs, then processes it serially
(``process_map(..., overwrite=True)``: one in-process ingest-daemon run
that ignores the manifest, writes every twin and rebuilds the shard
indexes) from an empty YAML tree under a live
``MetricsRegistry`` and under the no-op ``NullRegistry``, in many short
blocks of two alternating pairs: live, null, then null, live.  A run is
timed in CPU seconds of this process, and a block's overhead is its two
live runs over its two null runs, which cancels both a drift across the
block and any edge the first run of a pair has over the second.  The
overhead reported is the median over blocks, in per cent: on a shared
host the two sides' separate medians drift apart even when both run the
null sink.  Every run must write the same YAML tree, byte for byte.

Exits 1 if the trees differ, or if the overhead exceeds the 5% ceiling
(the subsystem's budget is 2%; the rest is room for noise).  A negative
overhead is noise and never a failure.

    python3 scripts/telemetry_overhead.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.constants import REFERENCE_DATE, SNAPSHOT_INTERVAL, MapName  # noqa: E402
from repro.dataset.processor import process_map  # noqa: E402
from repro.dataset.store import DatasetStore  # noqa: E402
from repro.layout.renderer import MapRenderer  # noqa: E402
from repro.simulation.network import BackboneSimulator  # noqa: E402
from repro.telemetry import MetricsRegistry, NullRegistry, use_registry  # noqa: E402

MAP = MapName.ASIA_PACIFIC
FILES = 12
BLOCKS = 50
CEILING_PCT = 5.0


def write_corpus(store: DatasetStore, files: int) -> None:
    """Render ``files`` SVGs of one map at the 5-minute cadence."""
    simulator, renderer = BackboneSimulator(), MapRenderer()
    when = REFERENCE_DATE - files * SNAPSHOT_INTERVAL
    for _ in range(files):
        store.write(MAP, when, "svg", renderer.render(simulator.snapshot(MAP, when)))
        when += SNAPSHOT_INTERVAL


def process_once(store: DatasetStore, sink: MetricsRegistry) -> tuple[float, str]:
    """CPU seconds of one cold serial run under ``sink``, and its YAML tree's hash."""
    shutil.rmtree(store.root / MAP.value / "yaml", ignore_errors=True)
    with use_registry(sink):
        started = process_time()
        process_map(store, MAP, overwrite=True)
        seconds = process_time() - started
    digest = hashlib.sha256()
    for ref in store.iter_refs(MAP, "yaml"):
        digest.update(ref.path.name.encode())
        digest.update(ref.path.read_bytes())
    return seconds, digest.hexdigest()


def main() -> int:
    # One long-lived registry per side, as a daemon or server keeps one.
    sinks = {"live": MetricsRegistry(), "null": NullRegistry()}
    times: dict[str, list[float]] = {name: [] for name in sinks}
    digests = set()
    with tempfile.TemporaryDirectory() as workdir:
        store = DatasetStore(Path(workdir))
        write_corpus(store, FILES)
        for _ in range(BLOCKS):
            for name in ("live", "null", "null", "live"):
                seconds, digest = process_once(store, sinks[name])
                times[name].append(seconds)
                digests.add(digest)
    live, null = (
        [sum(times[name][i : i + 2]) for i in range(0, len(times[name]), 2)]
        for name in sinks
    )
    overhead_pct = statistics.median((a - b) / b * 100.0 for a, b in zip(live, null))
    print(json.dumps({
        "files": FILES, "blocks": BLOCKS, "cpu_count": os.cpu_count(),
        "live_median_cpu_s": round(statistics.median(times["live"]), 4),
        "null_median_cpu_s": round(statistics.median(times["null"]), 4),
        "overhead_pct": round(overhead_pct, 2), "identical": len(digests) == 1,
    }))
    if len(digests) != 1:
        print("FAIL: the two sinks wrote different YAML trees", file=sys.stderr)
        return 1
    if overhead_pct > CEILING_PCT:
        print(
            f"FAIL: telemetry overhead {overhead_pct:.2f}% exceeds the "
            f"{CEILING_PCT:g}% ceiling",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
