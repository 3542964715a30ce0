"""The incremental manifest and the bulk entry points over the ingest daemon.

The paper's central workload is embarrassingly parallel: 542,049 collected
SVG files extracted into 541,813 YAML snapshots (Table 2), every file
independent of every other.  One writer produces every YAML twin: the
:class:`~repro.dataset.ingest.IngestDaemon`.  This module holds what the
daemon and its bulk callers share:

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

* **Balanced batches** — :func:`_batches` cuts the pending SVGs into
  equal batches of at most :data:`DEFAULT_CHUNK_SIZE`, one per worker per
  round, which is how the daemon feeds its parse pool.

* **Bulk entry points** — :func:`process_map_parallel` and
  :func:`process_all_parallel` (and the serial
  :func:`~repro.dataset.processor.process_map`) are each one daemon run,
  so ``repro-weather process`` and ``repro-weather ingest run`` leave the
  same YAML tree, manifest, shard indexes and Table 2 counts.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

from repro.constants import PARSER_VERSION, MapName
from repro.dataset.processor import ProcessingStats
from repro.dataset.store import DatasetStore, SnapshotRef, atomic_write_text
from repro.dataset.workers import (
    AUTO_WORKERS,
    contiguous_batches,
    default_workers,
    resolve_workers,
)
from repro.parsing.pipeline import ParseOptions

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

#: The most SVGs one parse batch carries; amortises pickling and dispatch
#: overhead without starving workers at the tail of a run.  A map with no
#: more pending files than this parses in-process.
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


def _batches(
    refs: Sequence[SnapshotRef], chunk_size: int, workers: int
) -> list[Sequence[SnapshotRef]]:
    """Equal batches of at most ``chunk_size``, one per worker per round."""
    rounds = -(-len(refs) // (chunk_size * workers))
    return contiguous_batches(refs, rounds * workers)


def _skip_from_manifest(stats: ProcessingStats, entry: ManifestEntry) -> None:
    """Account one unchanged file without touching its YAML twin."""
    if entry.failure is not None:
        stats.unprocessed += 1
        stats.failure_causes[entry.failure] += 1
    else:
        stats.processed += 1
        stats.yaml_bytes += entry.yaml_bytes or 0


def _daemon_run(
    store: DatasetStore,
    maps: Sequence[MapName],
    workers: int | str | None,
    chunk_size: int,
    strict: bool,
    *,
    rebuild: bool,
    update_index: bool,
    options: ParseOptions | None,
) -> dict[MapName, ProcessingStats]:
    """One :class:`~repro.dataset.ingest.IngestDaemon` run; its Table 2 rows."""
    from repro.dataset.ingest import IngestConfig, IngestDaemon

    config = IngestConfig(
        workers=resolve_workers(workers, default=AUTO_WORKERS),
        chunk_size=chunk_size,
        strict=strict,
        update_index=update_index,
        options=options,
    )
    per_map = IngestDaemon(store, config).run(maps, rebuild=rebuild).per_map
    return {map_name: per_map[map_name] for map_name in maps}


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
    """Process one map's SVGs into YAML twins: one ingest-daemon run.

    The run is :class:`~repro.dataset.ingest.IngestDaemon`'s, so the YAML
    tree, the manifest and the :class:`ProcessingStats` are the ones
    ``repro-weather ingest run`` leaves, whatever ``workers`` is.

    Args:
        store: dataset directory to read SVGs from and write YAMLs into.
        map_name: which map to process.
        workers: worker process count; ``None``/``"auto"``/``0`` mean one
            per core.  Requests resolve through
            :func:`~repro.dataset.workers.resolve_workers`; the daemon
            parses in-process when one worker is left or the map has at
            most ``chunk_size`` pending files.
        chunk_size: most SVGs per parse batch; the pending files are cut
            into equal batches, one per worker per round.
        strict: apply the whole-map sanity checks strictly.
        overwrite: ignore the manifest, re-process every file and rebuild
            the map's shard indexes from scratch.
        use_manifest: keep the incremental ``manifest.json``; disable to
            leave no manifest behind (every file is re-processed).
        update_index: compact the map's per-day shard indexes as the run
            goes (only changed shards are rebuilt).
        options: parse configuration shared by every file.

    Returns:
        Per-map counts mirroring a Table 2 row.
    """
    stats = _daemon_run(
        store,
        [map_name],
        workers,
        chunk_size,
        strict,
        rebuild=overwrite or not use_manifest,
        update_index=update_index,
        options=options,
    )
    if not use_manifest:
        store.manifest_path(map_name).unlink(missing_ok=True)
    return stats[map_name]


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
    """:func:`process_map_parallel` over several maps: one daemon run."""
    return _daemon_run(
        store,
        list(maps) if maps is not None else list(MapName),
        workers,
        chunk_size,
        strict,
        rebuild=overwrite,
        update_index=update_index,
        options=options,
    )
