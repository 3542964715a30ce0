"""Load stored datasets back as snapshot streams.

Everything in :mod:`repro.analysis` works on iterables of
:class:`~repro.topology.model.MapSnapshot`; this module supplies those
iterables from a collected dataset directory, so an analysis runs
identically on simulator output and on data read back from disk — the
workflow of a downstream user of the released dataset.

The Section 5 analyses re-read thousands of YAML files per figure, so the
loaders are tiered:

1. **Columnar index** — when the map's per-day shard indexes
   (:mod:`repro.dataset.shards`) are fresh, snapshots are reconstructed
   from their interned columns without parsing any YAML; shards
   partition time, so chaining them keeps global order.  Results are
   equal to the YAML path, well over an order of magnitude faster.
2. **Process pool** — without an index, ``load_all(workers=N)`` fans the
   YAML deserialisation out, one contiguous batch per worker, while
   keeping the returned list in time order; each worker's metrics are
   merged back into the caller's registry.  Worker requests go through
   :func:`repro.dataset.workers.resolve_workers`, so the pool is skipped
   whenever it cannot win (one effective worker, single-core machine).
3. **Serial YAML** — the always-correct fallback.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from typing import Callable, Iterator, Sequence

from repro.constants import MapName
from repro.dataset.index import SnapshotIndex
from repro.dataset.shards import fresh_shard_indexes
from repro.dataset.store import DatasetStore, SnapshotRef
from repro.dataset.workers import call_with_metrics, contiguous_batches, resolve_workers
from repro.errors import SchemaError
from repro.telemetry import get_registry
from repro.topology.model import MapSnapshot
from repro.yamlio.deserialize import try_read_snapshot

logger = logging.getLogger(__name__)


def _loaded_counter():
    """Snapshots served to callers, labelled by map and serving tier."""
    return get_registry().counter(
        "repro_snapshots_loaded_total",
        "Snapshots served to callers by source tier (index or yaml)",
    )


def iter_snapshots(
    store: DatasetStore,
    map_name: MapName,
    start: datetime | None = None,
    end: datetime | None = None,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None = None,
    use_index: bool = True,
) -> Iterator[MapSnapshot]:
    """Stream the stored YAML snapshots of one map, in time order.

    Args:
        store: the dataset directory.
        map_name: which map to read.
        start: inclusive lower bound on snapshot time.
        end: exclusive upper bound on snapshot time.
        on_error: called for unreadable files; they are skipped.  Without
            a handler, schema errors propagate.
        use_index: serve from the map's shard indexes when they are fresh
            (identical results, no YAML parsing); set ``False`` to force
            the YAML path.

    Yields:
        One :class:`MapSnapshot` per readable YAML file, stamped with the
        file's timestamp (authoritative over the document's own field).
    """
    loaded = _loaded_counter()
    if use_index and store.persistent:
        indexes = fresh_shard_indexes(store, map_name)
        if indexes is not None:
            for index in indexes:
                for snapshot in _iter_from_index(store, index, start, end, on_error):
                    loaded.inc(1, map=map_name.value, source="index")
                    yield snapshot
            return
    for ref in _refs_in_window(store, map_name, start, end):
        snapshot, message = try_read_snapshot(ref.path)
        if snapshot is None:
            exc = SchemaError(message)
            if on_error is None:
                raise exc
            on_error(ref, exc)
            continue
        snapshot.timestamp = ref.timestamp
        loaded.inc(1, map=map_name.value, source="yaml")
        yield snapshot


def latest_snapshot(
    store: DatasetStore, map_name: MapName, use_index: bool = True
) -> MapSnapshot | None:
    """The most recent *readable* stored snapshot of one map, or ``None``.

    A collection campaign can die mid-write, so the newest file on disk is
    the likeliest one to be truncated.  Matching ``iter_snapshots``'s
    ``on_error`` philosophy, unreadable trailing files are skipped (with a
    warning) and the loader walks back to the newest snapshot that parses.
    """
    loaded = _loaded_counter()
    if use_index and store.persistent:
        indexes = fresh_shard_indexes(store, map_name)
        if indexes is not None:
            for index in reversed(indexes):
                if len(index) == 0:
                    continue  # a shard of nothing but unreadable sources
                loaded.inc(1, map=map_name.value, source="index")
                return index.snapshot(len(index) - 1)
            return None
    refs = list(store.iter_refs(map_name, "yaml"))
    for ref in reversed(refs):
        snapshot, message = try_read_snapshot(ref.path)
        if snapshot is None:
            logger.warning("skipping unreadable %s: %s", ref.path.name, message)
            continue
        snapshot.timestamp = ref.timestamp
        loaded.inc(1, map=map_name.value, source="yaml")
        return snapshot
    return None


def load_all(
    store: DatasetStore,
    map_name: MapName,
    start: datetime | None = None,
    end: datetime | None = None,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None = None,
    workers: int | str | None = None,
    use_index: bool = True,
) -> list[MapSnapshot]:
    """Materialise a snapshot list (for analyses that need several passes).

    Args:
        workers: deserialise YAML files over this many worker processes
            (``"auto"``/``0`` = one per core); requests resolve through
            :func:`~repro.dataset.workers.resolve_workers`, so the pool
            is skipped when only one worker is worth running.  The
            returned list is in time order either way, and ``on_error``
            fires in that order too (with the error rebuilt from the
            worker's message).
        use_index: serve from the map's shard indexes when they are fresh;
            the index path ignores ``workers`` (it is faster than any
            pool).  Results are equal to the YAML path's.
    """
    registry = get_registry()
    loaded = _loaded_counter()
    with registry.span(
        "repro_load_all", "load_all wall time", map=map_name.value
    ):
        if use_index and store.persistent:
            indexes = fresh_shard_indexes(store, map_name)
            if indexes is not None:
                snapshots = [
                    snapshot
                    for index in indexes
                    for snapshot in _iter_from_index(store, index, start, end, on_error)
                ]
                loaded.inc(len(snapshots), map=map_name.value, source="index")
                return snapshots
        effective_workers = resolve_workers(workers)
        if effective_workers <= 1:
            return list(
                iter_snapshots(
                    store, map_name, start=start, end=end, on_error=on_error,
                    use_index=False,
                )
            )
        refs = list(_refs_in_window(store, map_name, start, end))
        if not refs:
            return []
        snapshots = []
        batches = contiguous_batches(refs, effective_workers)
        with ProcessPoolExecutor(max_workers=len(batches)) as executor:
            futures = [
                executor.submit(
                    call_with_metrics, _read_batch, [str(ref.path) for ref in batch]
                )
                for batch in batches
            ]
            # Batches are consumed in submission order, so the output stays
            # sorted and worker metrics merge deterministically.
            for batch, future in zip(batches, futures):
                outcomes, worker_metrics = future.result()
                registry.merge(worker_metrics)
                for ref, (snapshot, error_message) in zip(batch, outcomes):
                    if snapshot is None:
                        exc = SchemaError(error_message)
                        if on_error is None:
                            raise exc
                        on_error(ref, exc)
                        continue
                    snapshot.timestamp = ref.timestamp
                    snapshots.append(snapshot)
        loaded.inc(len(snapshots), map=map_name.value, source="yaml")
        return snapshots


def _read_batch(paths: Sequence[str]) -> list[tuple[MapSnapshot | None, str]]:
    """Pool task: :func:`try_read_snapshot` over one batch of files, in order."""
    return [try_read_snapshot(path) for path in paths]


def _iter_from_index(
    store: DatasetStore,
    index: SnapshotIndex,
    start: datetime | None,
    end: datetime | None,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None,
) -> Iterator[MapSnapshot]:
    """Replay the YAML path's exact behaviour from index columns.

    Skipped sources (files the index build could not parse) surface in
    time order just as the YAML walk would surface them: through
    ``on_error`` when a handler is given, as a raised
    :class:`~repro.errors.SchemaError` otherwise.
    """
    skipped = [
        epoch
        for epoch in sorted(index.skipped)
        if (start is None or epoch >= int(start.timestamp()))
        and (end is None or epoch < int(end.timestamp()))
    ]
    cursor = 0
    for row in index.rows_in_window(start, end):
        row_epoch = index.timestamps[row]
        while cursor < len(skipped) and skipped[cursor] < row_epoch:
            _report_skipped(store, index, skipped[cursor], on_error)
            cursor += 1
        yield index.snapshot(row)
    while cursor < len(skipped):
        _report_skipped(store, index, skipped[cursor], on_error)
        cursor += 1


def _report_skipped(
    store: DatasetStore,
    index: SnapshotIndex,
    epoch: int,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None,
) -> None:
    entry = index.skipped[epoch]
    exc = SchemaError(entry.message)
    if on_error is None:
        raise exc
    timestamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    ref = SnapshotRef(
        map_name=index.map_name,
        timestamp=timestamp,
        kind="yaml",
        path=store.path_for(index.map_name, timestamp, "yaml"),
    )
    on_error(ref, exc)


def _refs_in_window(
    store: DatasetStore,
    map_name: MapName,
    start: datetime | None,
    end: datetime | None,
) -> Iterator[SnapshotRef]:
    """The map's YAML refs inside the half-open ``[start, end)`` window."""
    for ref in store.iter_refs(map_name, "yaml"):
        if start is not None and ref.timestamp < start:
            continue
        if end is not None and ref.timestamp >= end:
            continue
        yield ref
