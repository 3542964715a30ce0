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

from dataclasses import dataclass
from typing import Any, Sequence

from repro.constants import MapName
from repro.dataset.processor import ProcessingStats
from repro.dataset.store import DatasetStore, Ledger, SnapshotRef
from repro.dataset.workers import (
    AUTO_WORKERS,
    contiguous_batches,
    default_workers,
    resolve_workers,
)
from repro.errors import DatasetError
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

#: The most SVGs one parse batch carries; amortises pickling and dispatch
#: overhead without starving workers at the tail of a run.  Whether the
#: batches run in a pool is the pool's call: a lone batch, or any batch
#: of a one-worker run, parses in-process.
DEFAULT_CHUNK_SIZE = 16


@dataclass(slots=True)
class ManifestEntry:
    """One processed SVG's durable fact: source stat, hash, outcome.

    The manifest stores one per file, and each journal record carries
    one; both read theirs back through :meth:`coerce`.
    """

    sha256: str
    size: int
    mtime_ns: int
    yaml_bytes: int | None = None
    failure: str | None = None

    @classmethod
    def coerce(cls, raw: Any) -> "ManifestEntry":
        """A decoded JSON object as an entry (extra keys are ignored).

        Raises:
            DatasetError: *raw* is not an object.
            KeyError, TypeError, ValueError: a field is missing or mistyped.
        """
        if not isinstance(raw, dict):
            raise DatasetError(f"entry is a {type(raw).__name__}, not an object")
        yaml_bytes = raw.get("yaml_bytes")
        failure = raw.get("failure")
        return cls(
            sha256=str(raw["sha256"]),
            size=int(raw["size"]),
            mtime_ns=int(raw["mtime_ns"]),
            yaml_bytes=None if yaml_bytes is None else int(yaml_bytes),
            failure=None if failure is None else str(failure),
        )


class Manifest(Ledger[ManifestEntry]):
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

    section = "entries"

    @staticmethod
    def coerce(key: str, raw: Any) -> ManifestEntry:
        return ManifestEntry.coerce(raw)


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
            parses in-process when one worker is left or the map's
            pending files make one batch.
        chunk_size: most SVGs per parse batch; the pending files are cut
            into equal batches, one per worker per round.
        strict: apply the whole-map sanity checks strictly.
        overwrite: ignore the manifest, re-process every file and rebuild
            the map's shard indexes from scratch.
        update_index: compact the map's per-day shard indexes as the run
            goes (only changed shards are rebuilt).
        options: parse configuration shared by every file.

    Returns:
        Per-map counts mirroring a Table 2 row.
    """
    return _daemon_run(
        store,
        [map_name],
        workers,
        chunk_size,
        strict,
        rebuild=overwrite,
        update_index=update_index,
        options=options,
    )[map_name]


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
