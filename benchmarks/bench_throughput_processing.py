"""Throughput benchmark: serial vs. parallel vs. incremental bulk processing.

The paper's workload — 542,049 SVGs extracted into YAML, then re-read for
every Section 5 figure — is replayed here at small scale over a generated
corpus:

1. ``process`` serial on the streaming fast path (the default), with the
   per-stage wall-time breakdown,
2. ``process`` serial forced down the faithful DOM path
   (``ParseOptions(fast_path=False)``) — the fast-path speedup baseline,
3. ``process`` parallel (the engine's process-pool fan-out),
4. ``process`` incremental (warm manifest re-run — the steady state of a
   collection campaign that only ever appends files),
5. ``load_all`` serial vs. parallel (both forced down the YAML path) —
   skipped when :func:`~repro.dataset.workers.resolve_workers` collapses
   the request to one worker (a pool that cannot win measures nothing,
   and two serial runs timed against each other only report noise),
6. the columnar index: one cold ``compact_map_shards`` over the map's
   day shards, then ``load_all`` served entirely from them,
6b. the zero-copy query engine: whole-series scans over the map's
    :class:`~repro.dataset.shards.ShardedMappedIndex` — the full-corpus load
    aggregate off the scan batches plus a pushed-down hot-link filter
    (``scan_series_fps``, ``speedup_scan`` vs. the object-reconstruction
    ``load_index_fps``); the scan aggregates and the scan-derived
    Figure 5 sample set are both checked against the object path,
7. ``process`` serial again with the telemetry registry swapped for a
   :class:`~repro.telemetry.NullRegistry` — the with/without-sink pair
   that prices the telemetry subsystem itself
   (``telemetry_overhead_pct``, budget <=2%, CI guard at 5%).

Byte-identical output between the fast-path, DOM-path, and parallel runs
is asserted, not assumed, the index-served snapshot list is compared
against the YAML-parsed one object for object, and the scan-derived load
samples are compared against ``collect_load_samples`` element for
element.  Results go to ``BENCH_throughput.json`` at the repo root to
seed the perf trajectory; ``cpu_count`` is recorded because process-pool
speedup is capped by the cores actually available, and on a single-core
host the report carries ``"single_core_host": true`` — the parallel
speedup and telemetry-overhead numbers are pure noise there, so the
printed summary suppresses them and ``check_bench_regression.py`` skips
those keys.

Run standalone (not under pytest)::

    PYTHONPATH=src python benchmarks/bench_throughput_processing.py [--quick]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from datetime import timedelta
from pathlib import Path

from repro.analysis.columnar import load_samples as columnar_load_samples
from repro.analysis.loads import collect_load_samples
from repro.constants import REFERENCE_DATE, MapName, SNAPSHOT_INTERVAL
from repro.dataset.engine import process_map_parallel
from repro.parsing.pipeline import ParseOptions, StageTimings
from repro.dataset.handles import resolve_read_handle
from repro.dataset.loader import load_all
from repro.dataset.processor import process_map
from repro.dataset.query import ScanPredicate
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import DatasetStore
from repro.dataset.workers import resolve_workers
from repro.layout.renderer import MapRenderer
from repro.simulation.network import BackboneSimulator
from repro.telemetry import MetricsRegistry, NullRegistry, use_registry

REPO_ROOT = Path(__file__).resolve().parents[1]


def generate_corpus(store: DatasetStore, map_name: MapName, files: int) -> None:
    """Render one map at the 5-minute cadence until ``files`` SVGs exist."""
    simulator = BackboneSimulator()
    renderer = MapRenderer()
    when = REFERENCE_DATE - files * SNAPSHOT_INTERVAL
    for _ in range(files):
        svg = renderer.render(simulator.snapshot(map_name, when))
        store.write(map_name, when, "svg", svg)
        when += SNAPSHOT_INTERVAL


def yaml_tree_digest(store: DatasetStore, map_name: MapName) -> str:
    """One hash over every YAML file name + content, in timestamp order."""
    digest = hashlib.sha256()
    for ref in store.iter_refs(map_name, "yaml"):
        digest.update(ref.path.name.encode())
        digest.update(ref.path.read_bytes())
    return digest.hexdigest()


def reset_outputs(store: DatasetStore, map_name: MapName) -> None:
    """Drop the YAML twins, manifest, and shard indexes, keeping the SVG corpus."""
    shutil.rmtree(store.root / map_name.value / "yaml", ignore_errors=True)
    store.manifest_path(map_name).unlink(missing_ok=True)
    shutil.rmtree(store.shards_root(map_name), ignore_errors=True)


def timed(label: str, files: int, fn):
    """Run ``fn``, print and return (result, files/sec)."""
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    fps = files / elapsed if elapsed > 0 else float("inf")
    print(f"  {label:<28} {elapsed:>7.2f} s   {fps:>8.1f} files/s")
    return result, fps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--files", type=int, default=520, help="corpus size")
    parser.add_argument("--workers", type=int, default=4, help="pool width")
    parser.add_argument(
        "--map", default=MapName.ASIA_PACIFIC.value, help="map to generate"
    )
    parser.add_argument(
        "--quick", action="store_true", help="small corpus (120 files) for CI"
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_throughput.json"),
        help="where to write the JSON artifact",
    )
    args = parser.parse_args(argv)
    files = 120 if args.quick else args.files
    map_name = MapName(args.map)

    print(
        f"corpus: {files} {map_name.value} SVGs, "
        f"{args.workers} workers, {os.cpu_count()} CPUs"
    )
    workdir = Path(tempfile.mkdtemp(prefix="bench-throughput-"))
    try:
        store = DatasetStore(workdir)
        _, gen_fps = timed(
            "generate", files, lambda: generate_corpus(store, map_name, files)
        )

        stage_timings = StageTimings()
        serial_stats, serial_fps = timed(
            "process serial (fast path)",
            files,
            lambda: process_map(store, map_name, timings=stage_timings),
        )
        serial_digest = yaml_tree_digest(store, map_name)

        reset_outputs(store, map_name)
        dom_stats, dom_fps = timed(
            "process serial (DOM path)",
            files,
            lambda: process_map(
                store, map_name, options=ParseOptions(fast_path=False)
            ),
        )
        dom_digest = yaml_tree_digest(store, map_name)

        # Telemetry overhead: the same serial fast-path run under a live
        # registry vs. a NullRegistry sink.  Both runs are cold (outputs
        # reset), so the only variable is the metrics subsystem.
        reset_outputs(store, map_name)
        with use_registry(MetricsRegistry()):
            _, telemetry_fps = timed(
                "process serial (telemetry)",
                files,
                lambda: process_map(store, map_name),
            )
        telemetry_digest = yaml_tree_digest(store, map_name)
        reset_outputs(store, map_name)
        with use_registry(NullRegistry()):
            _, no_telemetry_fps = timed(
                "process serial (null sink)",
                files,
                lambda: process_map(store, map_name),
            )
        no_telemetry_digest = yaml_tree_digest(store, map_name)
        telemetry_overhead_pct = (
            (no_telemetry_fps - telemetry_fps) / no_telemetry_fps * 100.0
            if no_telemetry_fps > 0
            else 0.0
        )

        reset_outputs(store, map_name)
        # update_index=False isolates the processing cost being measured;
        # the compaction is timed on its own below.
        parallel_stats, parallel_fps = timed(
            f"process parallel x{args.workers}",
            files,
            lambda: process_map_parallel(
                store, map_name, workers=args.workers, update_index=False
            ),
        )
        parallel_digest = yaml_tree_digest(store, map_name)

        identical = (
            serial_digest == parallel_digest
            and serial_digest == dom_digest
            and serial_digest == telemetry_digest
            and serial_digest == no_telemetry_digest
            and serial_stats.processed == parallel_stats.processed
            and serial_stats.processed == dom_stats.processed
            and serial_stats.unprocessed == parallel_stats.unprocessed
            and serial_stats.yaml_bytes == parallel_stats.yaml_bytes
            and serial_stats.failure_causes == parallel_stats.failure_causes
        )
        if not identical:
            print(
                "ERROR: fast/DOM/parallel outputs differ", file=sys.stderr
            )

        _, incremental_fps = timed(
            "process incremental (warm)",
            files,
            lambda: process_map_parallel(
                store, map_name, workers=args.workers, update_index=False
            ),
        )

        serial_snapshots, load_serial_fps = timed(
            "load serial (YAML)",
            files,
            lambda: load_all(store, map_name, use_index=False),
        )
        # A pool that resolve_workers collapses to one worker would rerun
        # the serial path and report noise as "parallel speedup"; skip it.
        effective_load_workers = resolve_workers(args.workers)
        load_parallel_fps = None
        if effective_load_workers > 1:
            _, load_parallel_fps = timed(
                f"load parallel x{args.workers} (YAML)",
                files,
                lambda: load_all(
                    store, map_name, workers=args.workers, use_index=False
                ),
            )
        else:
            print("  load parallel (YAML)          skipped: pool collapses "
                  "to one worker on this host")

        _, index_build_fps = timed(
            "index build (cold)",
            files,
            lambda: compact_map_shards(store, map_name, workers=args.workers),
        )
        indexed_snapshots, load_index_fps = timed(
            "load via index", files, lambda: load_all(store, map_name)
        )
        if indexed_snapshots != serial_snapshots:
            identical = False
            print("ERROR: index-served snapshots differ from YAML", file=sys.stderr)

        # The zero-copy path: whole-series scans through the mapped query
        # engine, repeated to out-run timer resolution.  One pass =
        # the full-corpus load aggregate consumed straight off the scan
        # batches plus a pushed-down hot-link filter — the work load_all
        # pays object construction for, so fps is directly comparable
        # with load_index_fps.
        def scan_pass(engine):
            total = 0.0
            matched = 0
            for batch in engine.scan().batches():
                total += float(batch.a_loads.sum()) + float(batch.b_loads.sum())
                matched += len(batch)
            hot = len(engine.scan(ScanPredicate(min_load=90.0)))
            return matched, hot, total

        engine = resolve_read_handle(store, map_name)
        scan_series_fps = 0.0
        if engine is None:
            identical = False
            print("ERROR: query engine found no fresh index", file=sys.stderr)
        else:
            with engine:
                repeats = 20 if args.quick else 10
                scan_pass(engine)  # warm the mapping outside the clock
                (matched, hot, total), scan_series_fps = timed(
                    f"scan via query engine x{repeats}",
                    files * repeats,
                    lambda: [scan_pass(engine) for _ in range(repeats)][-1],
                )
                # Shards partition time: per-shard samples, concatenated
                # in shard order, are the whole series' samples.
                shard_samples = [
                    columnar_load_samples(shard) for shard in engine.iter_engines()
                ]
            # The scan aggregates must equal a brute-force object walk...
            expected_matched = sum(len(s.links) for s in serial_snapshots)
            expected_hot = sum(
                max(link.a.load, link.b.load) >= 90.0
                for s in serial_snapshots
                for link in s.links
            )
            expected_total = sum(
                link.a.load + link.b.load
                for s in serial_snapshots
                for link in s.links
            )
            if (
                matched != expected_matched
                or hot != expected_hot
                or abs(total - expected_total) > 1e-6 * max(1.0, expected_total)
            ):
                identical = False
                print(
                    "ERROR: scan aggregates differ from the object path",
                    file=sys.stderr,
                )
            # ...and so must the scan-served Figure 5 sample set.
            expected_samples = collect_load_samples(serial_snapshots)
            if any(
                [value for samples in shard_samples for value in getattr(samples, field)]
                != getattr(expected_samples, field)
                for field in ("all_loads", "internal", "external")
            ):
                identical = False
                print(
                    "ERROR: scan-derived load samples differ from the "
                    "object path",
                    file=sys.stderr,
                )
            del shard_samples, expected_samples
        del serial_snapshots, indexed_snapshots
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    single_core_host = (os.cpu_count() or 1) <= 1
    report = {
        "benchmark": "bulk SVG→YAML processing throughput",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "map": map_name.value,
        "corpus_files": files,
        "workers": args.workers,
        "cpu_count": os.cpu_count(),
        # Flags speedup_parallel and telemetry_overhead_pct as noise: on
        # one core the "parallel" runs are serial reruns and the overhead
        # delta is run-to-run jitter.  check_bench_regression.py skips
        # those keys when this is set.
        "single_core_host": single_core_host,
        "generate_fps": round(gen_fps, 2),
        "process_serial_fps": round(serial_fps, 2),
        "process_serial_dom_fps": round(dom_fps, 2),
        "process_serial_no_telemetry_fps": round(no_telemetry_fps, 2),
        "telemetry_overhead_pct": round(telemetry_overhead_pct, 2),
        "process_parallel_fps": round(parallel_fps, 2),
        "process_incremental_fps": round(incremental_fps, 2),
        "load_serial_fps": round(load_serial_fps, 2),
        "index_build_fps": round(index_build_fps, 2),
        "load_index_fps": round(load_index_fps, 2),
        "scan_series_fps": round(scan_series_fps, 2),
        "speedup_fast_path": round(serial_fps / dom_fps, 2),
        "speedup_parallel": round(parallel_fps / serial_fps, 2),
        "speedup_incremental": round(incremental_fps / serial_fps, 2),
        "speedup_index": round(load_index_fps / load_serial_fps, 2),
        "speedup_scan": round(scan_series_fps / load_index_fps, 2)
        if load_index_fps > 0
        else 0.0,
        "outputs_identical": identical,
        "stage_breakdown": stage_timings.as_dict(),
    }
    speedup_load_ok = True
    if load_parallel_fps is not None:
        report["load_parallel_fps"] = round(load_parallel_fps, 2)
        report["speedup_load"] = round(load_parallel_fps / load_serial_fps, 2)
        # The pool ran for real, so it must actually win; anything under
        # 1.0 means the load path regressed into its parallel overhead.
        speedup_load_ok = report["speedup_load"] >= 1.0
        if not speedup_load_ok:
            print(
                f"ERROR: parallel load is slower than serial "
                f"(speedup_load = {report['speedup_load']})",
                file=sys.stderr,
            )
    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    stages = report["stage_breakdown"]["seconds"]
    print("\nfast-path stage breakdown (serial run):")
    for stage, seconds in stages.items():
        print(f"  {stage:<10} {seconds:>8.2f} s")
    if single_core_host:
        print("single-core host: parallel speedup and telemetry overhead "
              "are noise here; omitted from this summary")
    else:
        print(f"telemetry overhead {report['telemetry_overhead_pct']}% "
              f"(live registry vs. null sink)")
    claims = [
        f"fast path speedup {report['speedup_fast_path']}x over DOM",
        f"incremental {report['speedup_incremental']}x",
        f"indexed load {report['speedup_index']}x",
        f"zero-copy scan {report['speedup_scan']}x over indexed load",
    ]
    if not single_core_host:
        claims.insert(1, f"parallel {report['speedup_parallel']}x")
        if "speedup_load" in report:
            claims.insert(2, f"load {report['speedup_load']}x")
    print(", ".join(claims))
    print(f"wrote {output}")
    return 0 if identical and speedup_load_ok else 1


if __name__ == "__main__":
    sys.exit(main())
