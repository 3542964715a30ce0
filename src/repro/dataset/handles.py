"""Read handles over a map's per-day shard indexes.

* :func:`resolve_read_handle` — open the map's
  :class:`~repro.dataset.shards.ShardedMappedIndex`, or ``None`` when
  the shards cannot serve truthfully.  It is the one shard opener.
* :func:`read_generation` — a stat-cheap token that changes exactly
  when the map's serving index changes on disk: the shard *manifest*
  identity, which compaction rewrites atomically when a shard index is
  built or removed, and only then.  Long-lived readers (the HTTP
  server's engine cache) pin one generation per handle and compare
  tokens per request to know when to hot-swap.
"""

from __future__ import annotations

from repro.constants import MapName
from repro.dataset.shards import ShardedMappedIndex, ShardManifest, verify_shards
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
    """Open one map's query engine, but only if every shard is fresh.

    A map that was never compacted (no shard manifest) gets ``None``, and
    so does one whose manifest was not read whole (unparseable, another
    parser version, or a dropped entry): such a map is unavailable until
    the next compaction, never served as empty or partial.  Otherwise the
    shard manifest is verified against the live tree (skippable via
    ``require_fresh=False`` for serving layers that poll generation
    tokens themselves) and its shard list handed to a *lazy*
    :class:`~repro.dataset.shards.ShardedMappedIndex` — no shard file is
    mapped until a query's time window actually reaches it.  An unsound
    shard therefore surfaces at first touch as
    :class:`~repro.errors.SnapshotIndexError`, not here.
    """
    manifest_path = store.shards_manifest_path(map_name)
    if not manifest_path.exists():
        return None  # never compacted
    if require_fresh:
        entries = verify_shards(store, map_name)
        if entries is None:
            return None
    else:
        manifest = ShardManifest.load(manifest_path)
        if not manifest.whole:
            return None
        entries = sorted(manifest.entries.items())
    shards = [
        (key, store.shard_index_path(map_name, key), entry.rows)
        for key, entry in entries
    ]
    return ShardedMappedIndex(map_name, shards)


def read_generation(
    store: DatasetStore, map_name: MapName
) -> GenerationToken | None:
    """A stat-cheap token naming the map's current serving generation.

    Keys on ``shards/manifest.json``, which
    :func:`~repro.dataset.shards.compact_map_shards` rewrites atomically
    when a shard index is built or removed, or a parser-version skew or
    rebuild resets it, and never otherwise — so one ``stat()`` answers
    "did anything I serve change?" without touching a single shard, and
    a compaction that changes nothing keeps the token.  ``None`` means
    the map has no built index yet.
    """
    try:
        stat = store.shards_manifest_path(map_name).stat()
    except OSError:
        return None
    return ("sharded", stat.st_ino, stat.st_size, stat.st_mtime_ns)
