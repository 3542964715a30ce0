"""The incremental manifest, the parse batches and the one bulk call.

The paper's central workload is embarrassingly parallel: 542,049 collected
SVG files extracted into 541,813 YAML snapshots (Table 2), every file
independent of every other.  One writer produces every YAML twin: the
:class:`~repro.dataset.ingest.IngestDaemon`, reached from the shell as
``repro-weather ingest run`` and from Python as
:func:`process_map_parallel` (or the daemon itself).  This module holds
what the daemon and that call share:

* **Incremental manifest** — a per-map ``manifest.json`` in the
  :class:`~repro.dataset.store.DatasetStore` records, per processed SVG,
  the content hash, a cheap ``(size, mtime_ns)`` fast key, the parser
  version, and the outcome (YAML size, or the typed failure cause).
  Re-runs skip unchanged files with one dict lookup and one ``stat()`` on
  the SVG — no per-file ``exists()``/``stat()`` round-trips on the YAML
  twin — while still reporting the same stats the original run did.
  A rebuild (``ingest run --overwrite``) and
  :data:`~repro.constants.PARSER_VERSION` bumps invalidate the whole
  manifest; an edited SVG invalidates just its own entry.

* **Balanced batches** — :func:`_batches` cuts the pending SVGs into
  equal batches of at most :data:`DEFAULT_CHUNK_SIZE`, one per worker per
  round, which is how the daemon feeds its parse pool of
  :data:`DEFAULT_WORKERS` workers unless asked otherwise.

* **The bulk call** — :func:`process_map_parallel` is one daemon run over
  one map, so it leaves the YAML tree, manifest, shard indexes and
  Table 2 counts that ``ingest run`` leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.constants import MapName
from repro.dataset.processor import ProcessingStats
from repro.dataset.store import DatasetStore, Ledger, SnapshotRef
from repro.dataset.workers import contiguous_batches, resolve_workers
from repro.errors import DatasetError

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_WORKERS",
    "Manifest",
    "ManifestEntry",
    "process_map_parallel",
]

#: The most SVGs one parse batch carries; amortises pickling and dispatch
#: overhead without starving workers at the tail of a run.  Whether the
#: batches run in a pool is the pool's call: a lone batch, or any batch
#: of a one-worker run, parses in-process.
DEFAULT_CHUNK_SIZE = 16

#: The parse pool's width when a run does not ask for one.
DEFAULT_WORKERS = 2


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


def process_map_parallel(
    store: DatasetStore,
    map_name: MapName,
    *,
    workers: int | str = DEFAULT_WORKERS,
    overwrite: bool = False,
) -> ProcessingStats:
    """Process one map's SVGs into YAML twins: one ingest-daemon run.

    ``IngestDaemon(store, IngestConfig(workers=...)).run([map_name])``,
    so the YAML tree, the manifest, the shard indexes and the
    :class:`ProcessingStats` are the ones ``repro-weather ingest run``
    leaves, whatever ``workers`` is.  Batch size, strict checks, index
    maintenance and parse options are
    :class:`~repro.dataset.ingest.IngestConfig` fields.

    Args:
        store: dataset directory to read SVGs from and write YAMLs into.
        map_name: which map to process.
        workers: parse pool width (``0``/``"auto"``: one per core),
            resolved through :func:`~repro.dataset.workers.resolve_workers`;
            the daemon parses in-process when one worker is left or the
            map's pending files make one batch.
        overwrite: ignore the manifest, re-process every file and rebuild
            the map's shard indexes from scratch.

    Returns:
        Per-map counts mirroring a Table 2 row.
    """
    from repro.dataset.ingest import IngestConfig, IngestDaemon

    daemon = IngestDaemon(store, IngestConfig(workers=resolve_workers(workers)))
    return daemon.run([map_name], rebuild=overwrite).per_map[map_name]
