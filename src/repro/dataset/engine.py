"""Parallel + incremental bulk-processing engine for the SVG→YAML corpus.

The paper's central workload is embarrassingly parallel: 542,049 collected
SVG files extracted into 541,813 YAML snapshots (Table 2), every file
independent of every other.  This module scales that workload in two
orthogonal ways while reproducing the serial accounting *exactly*:

* **Process-pool fan-out** — SVG refs are cut into equal batches and
  dispatched to a :class:`~concurrent.futures.ProcessPoolExecutor`.  The
  worker side is the pure function
  :func:`repro.dataset.processor.process_svg_bytes` (bytes → YAML text or
  typed failure), so every result is picklable.  The parent consumes
  batches in submission order and writes the YAML files itself, which
  makes serial and parallel runs produce byte-identical YAML trees and
  identical :class:`~repro.dataset.processor.ProcessingStats` (including
  the ``failure_causes`` Counter the Table 2 breakdown needs).

* **Telemetry fan-in** — each pool task runs under a private
  :class:`~repro.telemetry.MetricsRegistry` and ships its snapshot back
  alongside the batch results; the parent merges every snapshot into the
  active registry, so a parallel run's counters (files processed/failed,
  fast-path hits, per-stage histograms) total exactly what a serial run
  over the same corpus produces.  Parent-side work adds its own series:
  ``repro_manifest_lookups_total{map,outcome}`` for the skip cache,
  ``repro_engine_batch_seconds`` for worker batch wall time, and
  ``repro_process_run_seconds{mode="parallel"}`` for the whole map.

* **Incremental manifest** — a per-map ``manifest.json`` in the
  :class:`~repro.dataset.store.DatasetStore` records, per processed SVG,
  the content hash, a cheap ``(size, mtime_ns)`` fast key, the parser
  version, and the outcome (YAML size, or the typed failure cause).
  Re-runs skip unchanged files with one dict lookup and one ``stat()`` on
  the SVG — no per-file ``exists()``/``stat()`` round-trips on the YAML
  twin — while still reporting the same stats the original run did.
  ``overwrite=True`` and :data:`~repro.constants.PARSER_VERSION`
  bumps invalidate the whole manifest; an edited SVG invalidates just its
  own entry.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from datetime import datetime
from pathlib import Path
from typing import Sequence

from repro.constants import PARSER_VERSION, MapName
from repro.dataset import shards
from repro.dataset.processor import ProcessingStats, file_metrics, process_svg_bytes
from repro.dataset.store import (
    DatasetStore,
    SnapshotRef,
    atomic_write_text,
    format_timestamp,
)
from repro.dataset.workers import (
    AUTO_WORKERS,
    call_with_metrics,
    contiguous_batches,
    default_workers,
    resolve_workers,
)
from repro.errors import DatasetError
from repro.parsing.pipeline import ParseOptions
from repro.telemetry import get_registry

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "Manifest",
    "ManifestEntry",
    "default_workers",
    "process_all_parallel",
    "process_map_parallel",
    "resolve_workers",
]

logger = logging.getLogger(__name__)

#: The most SVGs one pool task carries; amortises pickling and dispatch
#: overhead without starving workers at the tail of a run.
DEFAULT_CHUNK_SIZE = 16


@dataclass(slots=True)
class ManifestEntry:
    """What the manifest remembers about one processed SVG."""

    sha256: str
    size: int
    mtime_ns: int
    yaml_bytes: int | None = None
    failure: str | None = None

    def matches_stat(self, stat: os.stat_result) -> bool:
        """Cheap unchanged check — no file read, no hashing."""
        return stat.st_size == self.size and stat.st_mtime_ns == self.mtime_ns


class Manifest:
    """The per-map incremental-processing ledger.

    Serialised as JSON next to the map's ``svg/`` and ``yaml/`` subtrees::

        {
          "parser_version": 1,
          "entries": {
            "europe-20220912T000000Z": {
              "sha256": "...", "size": 126526, "mtime_ns": ...,
              "yaml_bytes": 14836, "failure": null
            }
          }
        }

    A stored ``parser_version`` different from the current
    :data:`~repro.constants.PARSER_VERSION` discards every entry,
    so parser changes reprocess the whole corpus cleanly.
    """

    def __init__(self, parser_version: int = PARSER_VERSION) -> None:
        self.parser_version = parser_version
        self.entries: dict[str, ManifestEntry] = {}

    @classmethod
    def load(cls, path: Path) -> "Manifest":
        """Read a manifest, tolerating absence, corruption, and version skew."""
        manifest = cls()
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return manifest
        if not isinstance(document, dict):
            return manifest
        if document.get("parser_version") != manifest.parser_version:
            logger.info(
                "manifest %s has parser version %r (current %r); reprocessing",
                path,
                document.get("parser_version"),
                manifest.parser_version,
            )
            return manifest
        for key, raw in document.get("entries", {}).items():
            try:
                manifest.entries[key] = ManifestEntry(
                    sha256=raw["sha256"],
                    size=raw["size"],
                    mtime_ns=raw["mtime_ns"],
                    yaml_bytes=raw.get("yaml_bytes"),
                    failure=raw.get("failure"),
                )
            except (KeyError, TypeError):
                continue  # one bad entry just loses its skip, not the run
        return manifest

    def save(self, path: Path) -> None:
        """Write the manifest atomically and durably.

        Write-aside + fsync + ``os.replace`` (via
        :func:`~repro.dataset.store.atomic_write_text`), so a mid-write
        kill leaves either the previous manifest or the new one — never a
        truncated file that would poison the skip cache.
        """
        document = {
            "parser_version": self.parser_version,
            "entries": {key: asdict(entry) for key, entry in self.entries.items()},
        }
        atomic_write_text(path, json.dumps(document, sort_keys=True))


@dataclass(frozen=True, slots=True)
class _WorkerResult:
    """One SVG's outcome coming back from a worker — pure data, picklable."""

    yaml_text: str | None
    failure_cause: str | None
    failure_message: str
    sha256: str
    size: int
    mtime_ns: int


def _process_batch(
    map_value: str,
    strict: bool,
    items: Sequence[tuple[str, str]],
    options: ParseOptions | None = None,
) -> list[_WorkerResult]:
    """Pool worker: read, hash, and extract one batch of SVG files.

    ``items`` are ``(timestamp_iso, path)`` pairs; results come back in the
    same order, which is what lets the parent merge deterministically.
    The parent runs each batch through
    :func:`~repro.dataset.workers.call_with_metrics`, so nothing the
    workers observe (stage timings, fast-path hits, failure causes) is
    lost to process isolation.
    """
    map_name = MapName(map_value)
    results: list[_WorkerResult] = []
    with get_registry().span(
        "repro_engine_batch", "Worker batch wall time", map=map_value
    ):
        for stamp_iso, path_text in items:
            path = Path(path_text)
            data = path.read_bytes()
            stat = path.stat()
            outcome = process_svg_bytes(
                data,
                map_name,
                datetime.fromisoformat(stamp_iso),
                strict=strict,
                options=options,
            )
            results.append(
                _WorkerResult(
                    yaml_text=outcome.yaml_text,
                    failure_cause=outcome.failure_cause,
                    failure_message=outcome.failure_message,
                    sha256=hashlib.sha256(data).hexdigest(),
                    size=stat.st_size,
                    mtime_ns=stat.st_mtime_ns,
                )
            )
    return results


def _batches(
    refs: Sequence[SnapshotRef], chunk_size: int, workers: int
) -> list[Sequence[SnapshotRef]]:
    """Equal batches of at most ``chunk_size``, one per worker per round."""
    rounds = -(-len(refs) // (chunk_size * workers))
    return contiguous_batches(refs, rounds * workers)


def _apply_result(
    store: DatasetStore,
    manifest: Manifest,
    stats: ProcessingStats,
    ref: SnapshotRef,
    result: _WorkerResult,
) -> None:
    """Fold one worker result into the stats, the store, and the manifest."""
    entry = ManifestEntry(
        sha256=result.sha256, size=result.size, mtime_ns=result.mtime_ns
    )
    if result.yaml_text is None:
        stats.unprocessed += 1
        stats.failure_causes[result.failure_cause] += 1
        entry.failure = result.failure_cause
        logger.warning(
            "unprocessable %s (%s: %s)",
            ref.path.name,
            result.failure_cause,
            result.failure_message,
        )
    else:
        written = store.write(ref.map_name, ref.timestamp, "yaml", result.yaml_text)
        stats.processed += 1
        stats.yaml_bytes += written.size_bytes
        entry.yaml_bytes = written.size_bytes
        _, _, yaml_bytes_counter = file_metrics()
        yaml_bytes_counter.inc(written.size_bytes, map=ref.map_name.value)
    manifest.entries[format_timestamp(ref.timestamp)] = entry


def _skip_from_manifest(stats: ProcessingStats, entry: ManifestEntry) -> None:
    """Account one unchanged file without touching its YAML twin."""
    if entry.failure is not None:
        stats.unprocessed += 1
        stats.failure_causes[entry.failure] += 1
    else:
        stats.processed += 1
        stats.yaml_bytes += entry.yaml_bytes or 0


def process_map_parallel(
    store: DatasetStore,
    map_name: MapName,
    workers: int | str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    strict: bool = False,
    overwrite: bool = False,
    use_manifest: bool = True,
    update_index: bool = True,
    options: ParseOptions | None = None,
) -> ProcessingStats:
    """Process one map's SVGs into YAML twins — in parallel, incrementally.

    Produces byte-identical YAML files and identical
    :class:`~repro.dataset.processor.ProcessingStats` to the serial
    :func:`~repro.dataset.processor.process_map` run over the same corpus.

    Args:
        store: dataset directory to read SVGs from and write YAMLs into.
        map_name: which map to process.
        workers: worker process count; ``None``/``"auto"``/``0`` mean one
            per core.  Requests resolve through
            :func:`~repro.dataset.workers.resolve_workers`, so one
            effective worker (including any request on a single-core
            machine) degenerates to an in-process loop — no pool spawned.
        chunk_size: most SVGs per pool task; the pending files are cut
            into equal batches, one per worker per round.
        strict: apply the whole-map sanity checks strictly.
        overwrite: ignore the manifest and re-process every file.
        use_manifest: maintain the incremental ``manifest.json``; disable
            to mimic a stateless one-shot run.
        update_index: after processing, compact the map's per-day shard
            indexes (only changed shards are rebuilt, incrementally, like
            the manifest); ``overwrite`` rebuilds them from scratch, and
            a :data:`~repro.constants.PARSER_VERSION` bump discards
            them — exactly the YAML skip-cache's invalidation rules.
        options: parse configuration shipped (pickled) to every worker.

    Returns:
        Per-map counts mirroring a Table 2 row.
    """
    workers = resolve_workers(workers, default=AUTO_WORKERS)
    if chunk_size < 1:
        raise DatasetError(f"chunk_size must be >= 1, got {chunk_size}")

    registry = get_registry()
    files, _, _ = file_metrics(registry)
    manifest_lookups = registry.counter(
        "repro_manifest_lookups_total",
        "Manifest skip-cache lookups by outcome (hit = file skipped)",
    )
    registry.histogram("repro_engine_batch_seconds", "Worker batch wall time")
    run_span = registry.span(
        "repro_process_run",
        "Whole-map SVG→YAML run wall time",
        map=map_name.value,
        mode="parallel",
    )
    # Materialise both outcomes so a fully-cached (or cache-less) run still
    # exports the family with explicit zeros.
    manifest_lookups.inc(0, map=map_name.value, outcome="hit")
    manifest_lookups.inc(0, map=map_name.value, outcome="miss")

    manifest_path = store.manifest_path(map_name)
    manifest = Manifest.load(manifest_path) if use_manifest else Manifest()
    if overwrite:
        manifest.entries.clear()

    stats = ProcessingStats(map_name=map_name)
    with run_span:
        pending: list[SnapshotRef] = []
        for ref in store.iter_refs(map_name, "svg"):
            entry = manifest.entries.get(format_timestamp(ref.timestamp))
            if entry is not None and entry.matches_stat(ref.path.stat()):
                _skip_from_manifest(stats, entry)
                manifest_lookups.inc(1, map=map_name.value, outcome="hit")
                files.inc(1, map=map_name.value, outcome="skipped")
                continue
            manifest_lookups.inc(1, map=map_name.value, outcome="miss")
            pending.append(ref)
        skipped = stats.total

        if pending:
            batches = _batches(pending, chunk_size, workers)
            tasks = [
                (
                    map_name.value,
                    strict,
                    [(ref.timestamp.isoformat(), str(ref.path)) for ref in batch],
                    options,
                )
                for batch in batches
            ]
            if workers == 1:
                result_batches = (
                    call_with_metrics(_process_batch, *task) for task in tasks
                )
            else:
                executor = ProcessPoolExecutor(max_workers=min(workers, len(batches)))
                futures = [
                    executor.submit(call_with_metrics, _process_batch, *task)
                    for task in tasks
                ]
                result_batches = (future.result() for future in futures)
            try:
                # Submission order == ref order, so the merge is deterministic.
                for batch, (results, worker_snapshot) in zip(batches, result_batches):
                    registry.merge(worker_snapshot)
                    for ref, result in zip(batch, results):
                        _apply_result(store, manifest, stats, ref, result)
            finally:
                if workers != 1:
                    executor.shutdown()

    if use_manifest:
        manifest.save(manifest_path)
    if update_index and any(True for _ in store.iter_refs(map_name, "yaml")):
        shards.compact_map_shards(
            store,
            map_name,
            rebuild=overwrite,
            workers=workers,
            on_error=lambda ref, exc: logger.warning(
                "not indexing unreadable %s: %s", ref.path.name, exc
            ),
        )
    logger.info(
        "processed %s: %d ok, %d unprocessable (%d skipped via manifest, "
        "%d workers)",
        map_name.value,
        stats.processed,
        stats.unprocessed,
        skipped,
        workers,
    )
    return stats


def process_all_parallel(
    store: DatasetStore,
    maps: Sequence[MapName] | None = None,
    workers: int | str | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    strict: bool = False,
    overwrite: bool = False,
    update_index: bool = True,
    options: ParseOptions | None = None,
) -> dict[MapName, ProcessingStats]:
    """Run :func:`process_map_parallel` over several maps, one shared config."""
    results: dict[MapName, ProcessingStats] = {}
    for map_name in maps if maps is not None else list(MapName):
        results[map_name] = process_map_parallel(
            store,
            map_name,
            workers=workers,
            chunk_size=chunk_size,
            strict=strict,
            overwrite=overwrite,
            update_index=update_index,
            options=options,
        )
    return results
