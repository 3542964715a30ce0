"""Read handles over a map's per-day shard indexes.

* :func:`resolve_read_handle` — open the map's
  :class:`~repro.dataset.shards.ShardedMappedIndex`, or ``None`` when
  the shards cannot serve truthfully.
* :func:`read_generation` — a stat-cheap token that changes whenever
  the map's serving index changes on disk: the shard *manifest*
  identity, which compaction rewrites atomically whenever any shard
  index changes.  Long-lived readers (the HTTP server's engine cache)
  pin one generation per handle and compare tokens per request to know
  when to hot-swap.
"""

from __future__ import annotations

from repro.constants import MapName
from repro.dataset.shards import ShardedMappedIndex, open_sharded_query
from repro.dataset.store import DatasetStore

__all__ = [
    "ReadHandle",
    "read_generation",
    "resolve_read_handle",
]

#: A map's query engine: ``scan`` / ``close`` / ``check_generation``,
#: ``iter_engines`` and the context-manager protocol.
ReadHandle = ShardedMappedIndex

#: ``("sharded", st_ino, st_size, st_mtime_ns)`` of the shard manifest
#: that pins a map's serving generation.
GenerationToken = tuple[str, int, int, int]


def resolve_read_handle(
    store: DatasetStore,
    map_name: MapName,
    *,
    require_fresh: bool = True,
) -> ReadHandle | None:
    """Open one map's query engine over its shard indexes.

    Returns ``None`` rather than an engine that could serve stale or
    corrupt data (see :func:`~repro.dataset.shards.open_sharded_query`),
    and a non-persistent store (the in-memory test backend) has no index
    files to map at all, so it also reports ``None``.
    """
    if not store.persistent:
        return None
    return open_sharded_query(store, map_name, require_fresh=require_fresh)


def read_generation(
    store: DatasetStore, map_name: MapName
) -> GenerationToken | None:
    """A stat-cheap token naming the map's current serving generation.

    Keys on ``shards/manifest.json``, which :func:`compact_map_shards`
    rewrites atomically whenever any shard index is built or removed —
    so one ``stat()`` answers "did anything I serve change?" without
    touching a single shard.  ``None`` means the map has no built index
    yet (or the store keeps none on disk).
    """
    if not store.persistent:
        return None
    try:
        stat = store.shards_manifest_path(map_name).stat()
    except OSError:
        return None
    return ("sharded", stat.st_ino, stat.st_size, stat.st_mtime_ns)
