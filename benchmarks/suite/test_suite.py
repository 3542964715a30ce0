"""Tests for the outside-in benchmark suite.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/suite

The end-to-end cases run every workload at ``--smoke`` sizes; the rest
check the reducer, the backfill oracle and ``compare.py`` on synthetic
inputs.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
for entry in (str(ROOT / "src"), str(SUITE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
from oracle import shard_mismatches, yaml_twin_mismatches  # noqa: E402
from spans import Span, reduce_layers, self_times  # noqa: E402
from workloads import TIMING_METRICS, render_pool, stamp, write_file  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_suite(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_workload_emits_its_metrics(workload: str, trace: int, tmp_path: Path) -> None:
    done = run_suite(
        "--workload", workload, "--seed", "7", "--seconds", "1.5", "--trace", str(trace),
        "--smoke", "--out", str(tmp_path),
    )
    assert done.returncode == 0, done.stderr[-3000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: value["unit"] for name, value in line["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in expected
    }
    if not trace:
        assert all(value["value"] > 0 for value in line["metrics"].values())
    (record_path,) = tmp_path.glob("*.json")
    record = json.loads(record_path.read_text())
    assert record["host"]["cpu_count"] and record["seed"] == 7 and "valid" in record
    assert set(record["timings"]) == set(TIMING_METRICS[workload])
    assert all(value > 0 for value in record["timings"].values())


def test_exits_nonzero_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite", ignore=shutil.ignore_patterns(
        "__pycache__", ".work"))
    done = run_suite("--workload", "read-hot", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def span(source: str, span_id: int, name: str, start: int, end: int, parent: int = -1,
         thread: int = 1, trace: str = "", **counts: float) -> Span:
    return Span(source, span_id, name, start, end, parent, thread, trace, counts)


def test_reducer_self_time_and_unattributed_arithmetic() -> None:
    spans = [
        # Ingest child: a run on thread 1 with two overlapping children
        # (their union covers 10..40), and a parse stage on thread 2.
        span("ingest", 0, "ingest.run", 0, 100, recover_s=0.5),
        span("ingest", 1, "store.write", 10, 30, parent=0, yaml_bytes=300),
        span("ingest", 2, "store.iter_refs", 20, 40, parent=0),
        span("ingest", 3, "parse.extract", 50, 90, thread=2, fast=3, fallback=1),
        span("ingest", 4, "store.read_ref", 45, 50, thread=2, svg_bytes=1000),
        # A child recorded on another thread does not cover its parent.
        span("ingest", 5, "device.fsync", 60, 70, parent=0, thread=3),
        # Server child: one request whose layers cover 35 of its 50 ns.
        span("server", 0, "server.handle_request", 0, 50, thread=5, trace="q1"),
        span("server", 1, "server.route", 5, 10, parent=0, thread=5),
        span("server", 2, "server.cache_get", 10, 20, parent=0, thread=5, miss=1),
        span("server", 3, "server.payload.series", 20, 40, parent=0, thread=5),
        span("server", 4, "query.scan", 25, 35, parent=3, thread=5),
        span("server", 5, "server.handle_request", 100, 110, thread=5, trace="q2"),
        span("server", 6, "server.cache_get", 101, 102, parent=5, thread=5, hit=1),
    ]
    own = self_times(spans)
    assert own[("ingest", 0)] == 100 - 30 - 0  # fsync ran on thread 3
    assert own[("server", 0)] == 50 - 5 - 10 - 20
    assert own[("server", 3)] == 20 - 10

    layers = reduce_layers(spans, {"q1": 80, "q2": 30})
    assert layers["ingest.run.calls"] == 1
    assert layers["ingest.run.self_s"] == pytest.approx(70e-9)
    assert layers["ingest.run.ms_per_call"] == pytest.approx(100e-6)
    # Nothing else is open during 0..10, 40..45 and 90..100 of the run.
    assert layers["ingest.unattributed_s"] == pytest.approx(25e-9)
    assert layers["parse.fast_path_hit_ratio"] == pytest.approx(0.75)
    assert layers["store.bytes_per_svg_byte"] == pytest.approx(0.3)
    assert layers["ingest.recover_s"] == pytest.approx(0.5)
    assert layers["server.handle_request.calls"] == 2
    assert layers["server.unattributed_ms_per_request"] == pytest.approx((15 + 9) / 2 / 1e6)
    assert layers["server.transport"] == pytest.approx(((80 - 50) + (30 - 10)) / 2 / 1e6)
    assert layers["server.cache_hit_ratio"] == pytest.approx(0.5)
    assert layers["query.scan.self_s"] == pytest.approx(10e-9)
    assert layers["feed.poll.calls"] == 0 and layers["feed.poll.ms_per_call"] == 0


def test_tampered_yaml_twin_fails_the_backfill_oracle(tmp_path: Path) -> None:
    from repro.constants import MapName
    from repro.dataset.ingest import IngestConfig, IngestDaemon
    from repro.dataset.store import ShardedDatasetStore

    store = ShardedDatasetStore(tmp_path)
    store.mark()
    (doc,) = render_pool(MapName.WORLD, 1, random.Random(3))
    files = []
    for index in range(2):
        when = stamp(index)
        write_file(store, MapName.WORLD, when, "svg", doc.svg)
        files.append((MapName.WORLD, when, doc.yaml_at(when)))
    stats = IngestDaemon(store, IngestConfig()).run([MapName.WORLD])
    assert stats.processed == 2
    assert yaml_twin_mismatches(store, files) == []
    assert shard_mismatches(store, {MapName.WORLD: 2}) == []

    twin = store.path_for(MapName.WORLD, files[1][1], "yaml")
    twin.write_text(twin.read_text().replace("load: ", "load: 1", 1))
    assert len(yaml_twin_mismatches(store, files)) == 1
    assert shard_mismatches(store, {MapName.WORLD: 2}) != []


#: A timing every record carries, and its per-layer entry.
TIMING = "read_rps"


def write_runs(directory: Path, workload: str, values: dict[str, list[float]], failed: int = 0) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    count = len(next(iter(values.values())))
    for index in range(count):
        record = {
            "workload": workload,
            "trace": 0,
            "valid": True,
            "attempted": 1000,
            "failed": failed,
            "metrics": {
                name: {"value": series[index], "unit": "x"}
                for name, series in values.items() if name != TIMING
            },
            "timings": {TIMING: values[TIMING][index]},
        }
        (directory / f"{workload}-{index}.json").write_text(json.dumps(record))


def baseline(scale: dict[str, float] | None = None) -> dict[str, list[float]]:
    scale = scale or {}
    return {
        name: [scale.get(name, 1.0) * value for value in (100, 101, 99, 100, 102)]
        for name in [entry["name"] for entry in SPEC["end_to_end"]] + [TIMING]
    }


def verdicts(rows: list[list[str]], workload: str) -> dict[str, str]:
    return {row[1].split(" ")[0]: row[5] for row in rows if row[0] == workload}


def test_compare_verdicts(tmp_path: Path) -> None:
    workload = SPEC["workloads"][0]["name"]
    past = {entry["name"]: entry["bound"] + 0.05 for entry in SPEC["end_to_end"]}
    write_runs(tmp_path / "a", workload, baseline())
    write_runs(tmp_path / "same", workload, baseline({"setup_s": 1.02}))
    write_runs(tmp_path / "slower", workload, baseline(
        {"setup_s": 1 + past["setup_s"], "peak_rss_mb": 1 + past["peak_rss_mb"]}))
    write_runs(tmp_path / "faster", workload, baseline(
        {"setup_s": 1 - past["setup_s"], "peak_rss_mb": 1 - past["peak_rss_mb"]}))
    noisy = baseline()
    noisy["peak_rss_mb"] = [60, 140, 100, 70, 130]
    write_runs(tmp_path / "noisy", workload, noisy)
    write_runs(tmp_path / "fewer_rps", workload, baseline({TIMING: 0.5}))

    rows, regressed = compare.compare(SPEC, tmp_path / "a", tmp_path / "same")
    assert not regressed
    assert set(verdicts(rows, workload).values()) == {"unchanged", "unchanged (ungated)"}

    rows, regressed = compare.compare(SPEC, tmp_path / "a", tmp_path / "slower")
    assert regressed
    assert verdicts(rows, workload)["setup_s"] == "worse"
    assert verdicts(rows, workload)["peak_rss_mb"] == "worse"

    rows, regressed = compare.compare(SPEC, tmp_path / "a", tmp_path / "faster")
    assert not regressed
    assert verdicts(rows, workload)["setup_s"] == "better"
    assert verdicts(rows, workload)["peak_rss_mb"] == "better"

    rows, regressed = compare.compare(SPEC, tmp_path / "a", tmp_path / "noisy")
    assert not regressed and verdicts(rows, workload)["peak_rss_mb"] == "unresolved"

    # A timing is reported against its direction but never fails the comparison.
    rows, regressed = compare.compare(SPEC, tmp_path / "a", tmp_path / "fewer_rps")
    assert not regressed and verdicts(rows, workload)[TIMING] == "worse (ungated)"

    write_runs(tmp_path / "failing", workload, baseline(), failed=3)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "failing")]) == 1
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0
