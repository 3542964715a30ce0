"""Layout-agnostic read handles over a map's columnar indexes.

Every consumer that wants "the queryable form of this map" used to make
the flat-vs-sharded decision itself: the CLI ``query`` dispatch switched
on ``isinstance(store, ShardedDatasetStore)``, and the HTTP serving
layer would have had to repeat the same dance.  This module owns that
dispatch once:

* :func:`resolve_read_handle` — open the right engine for the store's
  layout (:class:`~repro.dataset.query.MappedIndex` for a flat store,
  :class:`~repro.dataset.shards.ShardedMappedIndex` for a sharded one),
  with the same ``None``-on-staleness contract both openers share.
* :func:`read_generation` — a stat-cheap token that changes whenever
  the map's serving index changes on disk.  For a flat store that is
  the ``index.bin`` identity (PR 6's generation pinning); for a sharded
  store it is the shard *manifest* identity, which compaction rewrites
  atomically whenever any shard index changes.  Long-lived readers (the
  HTTP server's engine cache) pin one generation per handle and compare
  tokens per request to know when to hot-swap.
"""

from __future__ import annotations

from typing import Union

from repro.constants import MapName
from repro.dataset.query import MappedIndex, open_query
from repro.dataset.shards import ShardedMappedIndex, open_sharded_query
from repro.dataset.store import DatasetStore, ShardedDatasetStore

__all__ = [
    "ReadHandle",
    "read_generation",
    "resolve_read_handle",
]

#: Either layout's query engine; both expose ``scan`` / ``close`` /
#: ``check_generation`` and the context-manager protocol.
ReadHandle = Union[MappedIndex, ShardedMappedIndex]

#: ``(layout, st_ino, st_size, st_mtime_ns)`` of the file that pins a
#: map's serving generation.
GenerationToken = tuple[str, int, int, int]


def resolve_read_handle(
    store: DatasetStore,
    map_name: MapName,
    *,
    require_fresh: bool = True,
) -> ReadHandle | None:
    """Open one map's query engine with the store's own layout.

    The single place flat-vs-sharded detection lives on the read path:
    a :class:`~repro.dataset.store.ShardedDatasetStore` gets
    :func:`~repro.dataset.shards.open_sharded_query`, anything else gets
    :func:`~repro.dataset.query.open_query`.  Both return ``None``
    rather than an engine that could serve stale or corrupt data, and a
    non-persistent store (the in-memory test backend) has no index files
    to map at all, so it also reports ``None``.
    """
    if not store.persistent:
        return None
    if isinstance(store, ShardedDatasetStore):
        return open_sharded_query(store, map_name, require_fresh=require_fresh)
    return open_query(store, map_name, require_fresh=require_fresh)


def read_generation(
    store: DatasetStore, map_name: MapName
) -> GenerationToken | None:
    """A stat-cheap token naming the map's current serving generation.

    Flat stores key on ``index.bin`` (the same ``(ino, size, mtime_ns)``
    identity :attr:`MappedIndex.generation` pins); sharded stores key on
    ``shards/manifest.json``, which :func:`compact_map_shards` rewrites
    atomically whenever any shard index is built or removed — so one
    ``stat()`` answers "did anything I serve change?" without touching a
    single shard.  ``None`` means the map has no built index yet (or the
    store keeps none on disk).
    """
    if not store.persistent:
        return None
    if isinstance(store, ShardedDatasetStore):
        layout, path = "sharded", store.shards_manifest_path(map_name)
    else:
        layout, path = "flat", store.index_path(map_name)
    try:
        stat = path.stat()
    except OSError:
        return None
    return (layout, stat.st_ino, stat.st_size, stat.st_mtime_ns)
