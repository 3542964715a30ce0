"""The OVH Weather dataset substrate: collection, storage, cataloguing.

The paper's dataset is a directory tree of timestamped SVG snapshots (one
per map every five minutes) and their processed YAML counterparts.  This
package provides:

* :mod:`repro.dataset.store` — the on-disk layout and snapshot naming,
* :mod:`repro.dataset.gaps` — the availability model behind Figures 2/3
  (per-map collection segments, short gaps, the May 2022 collector fix),
* :mod:`repro.dataset.corruption` — injection of the malformed files the
  paper observed in the wild,
* :mod:`repro.dataset.collector` — the simulated collection campaign,
* :mod:`repro.dataset.processor` — per-file SVG→YAML extraction with the
  paper's unprocessable-file accounting,
* :mod:`repro.dataset.engine` — the per-map ``manifest.json`` skip cache
  and the bulk entry points, each one ingest-daemon run,
* :mod:`repro.dataset.ingest` — the ingestion daemon, the only YAML
  writer: in-process or pooled parsing, a write-ahead journal,
  crash-safe resume,
* :mod:`repro.dataset.index` — the columnar snapshot index format each
  map's YAML series is compacted into, so analyses never re-parse the
  corpus,
* :mod:`repro.dataset.shards` — one such index per map and UTC day, so
  maintenance costs O(new shard) rather than O(archive),
* :mod:`repro.dataset.query` — the zero-copy ``mmap`` query engine over
  that index: predicate-pushdown scans with no object materialisation,
* :mod:`repro.dataset.handles` — read handles over the shard indexes and
  the tokens that name their generations,
* :mod:`repro.dataset.workers` — worker-count resolution shared by every
  pool user (skips the pool where it cannot win),
* :mod:`repro.dataset.loader` — stored datasets read back as
  :class:`~repro.topology.model.MapSnapshot` streams (index first, YAML
  otherwise),
* :mod:`repro.dataset.validate` — schema, consistency and re-extraction
  checks over a collected dataset,
* :mod:`repro.dataset.archive` — per-map, per-month ``.tar.gz``
  distribution bundles,
* :mod:`repro.dataset.catalog` — index of what was collected (time frames,
  inter-snapshot distances),
* :mod:`repro.dataset.summary` — the Table 1 and Table 2 builders.

The names below import lazily (see :mod:`repro._lazy`): importing one
submodule, such as the ingest daemon's, loads only what that submodule
needs.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS: dict[str, str] = {
    "DatasetStore": "repro.dataset.store",
    "SnapshotRef": "repro.dataset.store",
    "AvailabilityModel": "repro.dataset.gaps",
    "CollectionSegment": "repro.dataset.gaps",
    "CorruptionInjector": "repro.dataset.corruption",
    "CollectionStats": "repro.dataset.collector",
    "SimulatedCollector": "repro.dataset.collector",
    "ProcessingStats": "repro.dataset.processor",
    "process_map": "repro.dataset.processor",
    "process_svg_bytes": "repro.dataset.processor",
    "Manifest": "repro.dataset.engine",
    "process_all_parallel": "repro.dataset.engine",
    "process_map_parallel": "repro.dataset.engine",
    "IndexBuildStats": "repro.dataset.index",
    "SnapshotIndex": "repro.dataset.index",
    "build_index": "repro.dataset.index",
    "ColumnBatch": "repro.dataset.query",
    "LinkRecord": "repro.dataset.query",
    "MappedIndex": "repro.dataset.query",
    "ReadHandle": "repro.dataset.handles",
    "ScanPredicate": "repro.dataset.query",
    "ScanResult": "repro.dataset.query",
    "read_generation": "repro.dataset.handles",
    "resolve_read_handle": "repro.dataset.handles",
    "default_workers": "repro.dataset.workers",
    "resolve_workers": "repro.dataset.workers",
    "DatasetCatalog": "repro.dataset.catalog",
    "TimeFrame": "repro.dataset.catalog",
    "time_frames_from": "repro.dataset.catalog",
    "iter_snapshots": "repro.dataset.loader",
    "latest_snapshot": "repro.dataset.loader",
    "load_all": "repro.dataset.loader",
    "ValidationReport": "repro.dataset.validate",
    "validate_dataset": "repro.dataset.validate",
    "validate_map": "repro.dataset.validate",
    "Table1Row": "repro.dataset.summary",
    "Table2Row": "repro.dataset.summary",
    "build_table1": "repro.dataset.summary",
    "build_table2": "repro.dataset.summary",
    "format_table1": "repro.dataset.summary",
    "format_table2": "repro.dataset.summary",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
