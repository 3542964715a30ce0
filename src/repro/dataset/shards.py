"""Per-day shard indexes: O(new shard) maintenance for paper-scale corpora.

An index file is rewritten whole on every refresh — even a
fully-incremental build copies every carried-over row — so one index per
map would make its maintenance cost grow linearly with the archive.  At
the paper's scale (542k snapshots over 26 months, Table 2) every
five-minute collection tick would pay for the whole corpus.  This module
partitions each map's index by UTC day, matching the ``YYYY/MM/DD`` day
directories the file tree already uses::

    <root>/<map>/shards/2022-09-12/index.bin     one day's columnar index
    <root>/<map>/shards/manifest.json            per-shard generations

Each shard index is an ordinary ``index.bin`` file (same format, same
checksums, own string tables), built by the same incremental
:func:`~repro.dataset.index.build_index` restricted to the shard's refs.
The shard manifest pins, per shard, a fingerprint of the source files'
``(epoch, size, mtime_ns)`` stats and the built index file's
``(size, mtime_ns)`` generation — the query engine's generation
pinning, one level up.  :func:`compact_map_shards` then touches only shards whose
fingerprint changed: a steady-state ingest tick compacts exactly one
day-shard no matter how many years of history sit beneath it.

Readers get one engine: :func:`~repro.dataset.handles.resolve_read_handle`
opens a :class:`ShardedMappedIndex` fanning one
:class:`~repro.dataset.query.MappedIndex` out per shard, with a chaining
:class:`ShardedScanResult`.  The server scans it; the loaders
(``load_all`` / ``iter_snapshots`` / ``latest_snapshot``) walk its
:meth:`~ShardedMappedIndex.iter_engines` and rebuild snapshots row by
row.  Interned ids are shard-local, so records, loads and snapshots are
resolved per shard before being chained.

The module has a write half and a read half.  The write half — the
shard manifest, :func:`compact_map_shards` and :func:`verify_shards` —
is all the ingest daemon and the engine use.  The read half —
:class:`ShardedMappedIndex` and :class:`ShardedScanResult` — builds
:mod:`repro.dataset.query` objects, and that module imports numpy.  So
the read half imports ``query`` where it first builds one (opening a
shard, defaulting a scan predicate), not at module level: the daemon,
which never reads through this module, never loads numpy.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
import threading
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path
from time import perf_counter
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.constants import PARSER_VERSION, MapName
from repro.dataset.index import build_index
from repro.dataset.store import (
    DatasetStore,
    SnapshotRef,
    atomic_write_text,
    parse_shard_key,
)
from repro.dataset.workers import OrderedPool, lend_pool
from repro.errors import DatasetError, SnapshotIndexError
from repro.telemetry import get_registry

if TYPE_CHECKING:
    from repro.dataset.query import (
        ColumnBatch,
        LinkRecord,
        MappedIndex,
        ScanPredicate,
        ScanResult,
    )

logger = logging.getLogger(__name__)

__all__ = [
    "ShardCompactionStats",
    "ShardEntry",
    "ShardManifest",
    "ShardedMappedIndex",
    "ShardedScanResult",
    "compact_map_shards",
    "shard_fingerprint",
    "verify_shards",
]


def shard_fingerprint(refs: Sequence[SnapshotRef]) -> str:
    """SHA-256 over one shard's source ``(epoch, size, mtime_ns)`` stats.

    Parsing is deterministic, so unchanged source stats mean an unchanged
    shard index; this is the same freshness contract the index file's
    own fingerprint makes, computed *before* any build.
    """
    digest = hashlib.sha256()
    for ref in refs:
        size, mtime_ns = ref.stat_key()
        digest.update(
            b"%d %d %d;" % (int(ref.timestamp.timestamp()), size, mtime_ns)
        )
    return digest.hexdigest()


@dataclass(slots=True)
class ShardEntry:
    """What the shard manifest pins about one built shard index."""

    fingerprint: str
    rows: int
    skipped: int
    index_size: int
    index_mtime_ns: int

    def matches_index(self, path: Path) -> bool:
        """Cheap check that the built index file is still the pinned one."""
        try:
            stat = path.stat()
        except OSError:
            return False
        return (
            stat.st_size == self.index_size
            and stat.st_mtime_ns == self.index_mtime_ns
        )


class ShardManifest:
    """The per-map ledger of shard index generations.

    Serialised as JSON under ``<map>/shards/manifest.json``::

        {
          "parser_version": 2,
          "shards": {
            "2022-09-12": {
              "fingerprint": "...", "rows": 288, "skipped": 0,
              "index_size": 123456, "index_mtime_ns": ...
            }
          }
        }

    Version skew discards every entry, mirroring the processing manifest:
    a parser bump recompacts the whole archive cleanly.
    """

    def __init__(self, parser_version: int = PARSER_VERSION) -> None:
        self.parser_version = parser_version
        self.shards: dict[str, ShardEntry] = {}

    @classmethod
    def load(cls, path: Path) -> "ShardManifest":
        """Read a shard manifest, tolerating absence, corruption, and skew."""
        manifest = cls()
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return manifest
        if not isinstance(document, dict):
            return manifest
        if document.get("parser_version") != manifest.parser_version:
            logger.info(
                "shard manifest %s has parser version %r (current %r); recompacting",
                path,
                document.get("parser_version"),
                manifest.parser_version,
            )
            return manifest
        raw_shards = document.get("shards", {})
        if not isinstance(raw_shards, dict):
            return manifest
        for key, raw in raw_shards.items():
            try:
                parse_shard_key(key)
                manifest.shards[key] = ShardEntry(
                    fingerprint=str(raw["fingerprint"]),
                    rows=int(raw["rows"]),
                    skipped=int(raw["skipped"]),
                    index_size=int(raw["index_size"]),
                    index_mtime_ns=int(raw["index_mtime_ns"]),
                )
            except (KeyError, TypeError, ValueError, DatasetError):
                continue  # one bad entry just loses its skip, not the run
        return manifest

    def save(self, path: Path) -> None:
        """Write the shard manifest atomically and durably."""
        document = {
            "parser_version": self.parser_version,
            "shards": {
                key: {
                    "fingerprint": entry.fingerprint,
                    "rows": entry.rows,
                    "skipped": entry.skipped,
                    "index_size": entry.index_size,
                    "index_mtime_ns": entry.index_mtime_ns,
                }
                for key, entry in self.shards.items()
            },
        }
        atomic_write_text(path, json.dumps(document, sort_keys=True))


@dataclass
class ShardCompactionStats:
    """What one :func:`compact_map_shards` run did."""

    map_name: MapName
    built: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    rows: int = 0
    parsed: int = 0
    reused: int = 0
    seconds: float = 0.0


def compact_map_shards(
    store: DatasetStore,
    map_name: MapName,
    *,
    rebuild: bool = False,
    workers: int | str | None | OrderedPool = None,
    on_error: Callable[[SnapshotRef, Exception], None] | None = None,
    only: Sequence[str] | None = None,
) -> ShardCompactionStats:
    """Bring one map's shard indexes up to date — O(changed shards).

    Walks the day shards the YAML tree currently holds, fingerprints each
    shard's source stats (one ``stat()`` per file, no reads), and rebuilds
    only shards whose fingerprint or pinned index generation changed.
    Steady-state ingestion therefore pays for one shard per tick, however
    large the archive behind it has grown.  Shards whose last YAML file
    vanished are removed, index directory and manifest entry both.

    ``only`` restricts the walk to the named shard keys — the ingestion
    daemon passes the shards it touched since its last checkpoint, which
    drops even the fingerprint walk from O(corpus) to O(new shard).
    Other shards' manifest entries are left untouched and the
    removed-shard sweep is skipped (a later full compaction handles it).

    ``workers`` is a worker request, which opens one pool for every shard
    rebuilt here, or an open :class:`~repro.dataset.workers.OrderedPool`.
    """
    registry = get_registry()
    compactions = registry.counter(
        "repro_shard_compactions_total",
        "Shard-compaction decisions by outcome (built, skipped, removed)",
    )
    compact_seconds = registry.histogram(
        "repro_shard_compact_seconds", "Whole-map shard compaction wall time"
    )
    started = perf_counter()
    manifest_path = store.shards_manifest_path(map_name)
    manifest = ShardManifest.load(manifest_path)
    manifest.parser_version = PARSER_VERSION
    if rebuild:
        manifest.shards.clear()
    stats = ShardCompactionStats(map_name=map_name)

    if only is not None:
        for key in only:
            parse_shard_key(key)
    live_keys = store.shard_keys(map_name, "yaml") if only is None else only
    with lend_pool(workers) as pool:
        for key in live_keys:
            refs = list(store.iter_shard_refs(map_name, "yaml", key))
            if not refs:
                continue  # the day's files are gone; nothing to index
            fingerprint = shard_fingerprint(refs)
            index_path = store.shard_index_path(map_name, key)
            entry = manifest.shards.get(key)
            if (
                not rebuild
                and entry is not None
                and entry.fingerprint == fingerprint
                and entry.matches_index(index_path)
            ):
                stats.skipped.append(key)
                stats.rows += entry.rows
                continue
            index, build_stats = build_index(
                map_name,
                refs,
                index_path,
                rebuild=rebuild,
                workers=pool,
                on_error=on_error,
            )
            index_stat = index_path.stat()
            manifest.shards[key] = ShardEntry(
                fingerprint=fingerprint,
                rows=len(index),
                skipped=len(index.skipped),
                index_size=index_stat.st_size,
                index_mtime_ns=index_stat.st_mtime_ns,
            )
            stats.built.append(key)
            stats.rows += len(index)
            stats.parsed += build_stats.parsed
            stats.reused += build_stats.reused

    if only is None:
        for key in sorted(set(manifest.shards) - set(live_keys)):
            del manifest.shards[key]
            shutil.rmtree(
                store.shard_index_path(map_name, key).parent, ignore_errors=True
            )
            stats.removed.append(key)

    manifest.save(manifest_path)
    stats.seconds = perf_counter() - started
    compact_seconds.observe(stats.seconds, map=map_name.value)
    for outcome, keys in (
        ("built", stats.built),
        ("skipped", stats.skipped),
        ("removed", stats.removed),
    ):
        compactions.inc(len(keys), map=map_name.value, outcome=outcome)
    logger.info(
        "compacted %s: %d shards built, %d skipped, %d removed (%d rows)",
        map_name.value,
        len(stats.built),
        len(stats.skipped),
        len(stats.removed),
        stats.rows,
    )
    return stats


def verify_shards(
    store: DatasetStore, map_name: MapName
) -> list[tuple[str, ShardEntry]] | None:
    """The manifest's shard list iff it exactly covers the live YAML tree.

    One directory walk plus one ``stat()`` per file, no reads.  Any skew
    (missing shard, extra shard, changed fingerprint, replaced index
    file, parser-version mismatch) reports unfresh.
    """
    cache = get_registry().counter(
        "repro_shard_cache_total",
        "Sharded-index freshness checks by outcome (hit = shards served)",
    )
    manifest = ShardManifest.load(store.shards_manifest_path(map_name))
    live_keys = store.shard_keys(map_name, "yaml")
    fresh = manifest.parser_version == PARSER_VERSION and set(live_keys) == set(
        manifest.shards
    )
    entries: list[tuple[str, ShardEntry]] = []
    if fresh:
        for key in live_keys:
            entry = manifest.shards[key]
            refs = list(store.iter_shard_refs(map_name, "yaml", key))
            if entry.fingerprint != shard_fingerprint(refs) or not entry.matches_index(
                store.shard_index_path(map_name, key)
            ):
                fresh = False
                break
            entries.append((key, entry))
    cache.inc(1, map=map_name.value, outcome="hit" if fresh else "miss")
    return entries if fresh else None


@dataclass
class _ShardSlot:
    """One shard's place in a sharded engine, opened on first demand."""

    key: str
    path: Path
    start_epoch: int  #: UTC midnight the shard key names
    end_epoch: int  #: start of the next UTC day (half-open)
    rows: int  #: row count pinned by the shard manifest
    engine: MappedIndex | None = None


class ShardedMappedIndex:
    """One map's shard indexes served as a single query engine.

    Fans a :class:`~repro.dataset.query.MappedIndex` out per shard, in
    time order.  Interned ids are shard-local, so cross-shard results
    are chained at the record/load level, never by concatenating id
    columns.

    Shards open **lazily**: a scan binds its time window to the shard
    keys first (each ``YYYY-MM-DD`` shard covers exactly one half-open
    UTC day, because shard membership is derived from the snapshot
    filename timestamps), and only the overlapping shards are ever
    mapped.  A window that touches two days of a two-year archive opens
    two files, not seven hundred.  Opening is thread-safe, so server
    worker threads can share one instance.
    """

    def __init__(
        self,
        map_name: MapName,
        shards: Sequence[tuple[str, Path, int]],
    ) -> None:
        self.map_name = map_name
        self._slots: list[_ShardSlot] = []
        for key, path, rows in shards:
            start = int(parse_shard_key(key).timestamp())
            self._slots.append(
                _ShardSlot(
                    key=key,
                    path=path,
                    start_epoch=start,
                    end_epoch=start + 86400,
                    rows=rows,
                )
            )
        self._open_lock = threading.Lock()
        self.closed = False

    @property
    def mapped(self) -> bool:
        """Whether every *opened* shard engine is serving from an mmap."""
        opened = [slot.engine for slot in self._slots if slot.engine is not None]
        return bool(opened) and all(engine.mapped for engine in opened)

    @property
    def shard_keys(self) -> list[str]:
        """The shard keys served, in time order (no shard is opened)."""
        return [slot.key for slot in self._slots]

    @property
    def opened_shard_keys(self) -> list[str]:
        """The shard keys actually mapped so far — the prune's witness."""
        return [slot.key for slot in self._slots if slot.engine is not None]

    def __len__(self) -> int:
        """Total rows served, from manifest hints where still unopened."""
        return sum(
            len(slot.engine) if slot.engine is not None else slot.rows
            for slot in self._slots
        )

    def check_generation(self) -> None:
        """Raise :class:`StaleIndexError` if any opened shard was superseded.

        Unopened slots have nothing mapped to go stale; callers that
        need whole-set freshness use the shard manifest (see
        :func:`repro.dataset.handles.read_generation`).
        """
        for slot in self._slots:
            if slot.engine is not None:
                slot.engine.check_generation()

    def _engine(self, slot: _ShardSlot) -> MappedIndex:
        """The slot's engine, mapping the shard on first use (thread-safe)."""
        self._require_open()
        engine = slot.engine
        if engine is not None:
            return engine
        with self._open_lock:
            if slot.engine is None:
                from repro.dataset.query import MappedIndex

                opened = MappedIndex.open(slot.path)
                if (
                    opened.map_name != self.map_name
                    or opened.parser_version != PARSER_VERSION
                ):
                    mismatch = (
                        f"shard {slot.key} index {slot.path} belongs to "
                        f"{opened.map_name.value} parser v{opened.parser_version}, "
                        f"not {self.map_name.value} parser v{PARSER_VERSION}"
                    )
                    opened.close()
                    raise SnapshotIndexError(mismatch)
                slot.engine = opened
            return slot.engine

    def _require_open(self) -> None:
        if self.closed:
            raise SnapshotIndexError("sharded query engine is closed")

    def _overlapping(
        self, start: datetime | None, end: datetime | None
    ) -> list[_ShardSlot]:
        """Slots whose UTC day intersects the half-open ``[start, end)``."""
        selected = []
        for slot in self._slots:
            if start is not None and int(start.timestamp()) >= slot.end_epoch:
                continue
            if end is not None and int(end.timestamp()) <= slot.start_epoch:
                continue
            selected.append(slot)
        return selected

    def iter_engines(
        self,
        start: datetime | None = None,
        end: datetime | None = None,
        *,
        reverse: bool = False,
    ) -> Iterator[MappedIndex]:
        """Shard engines overlapping the window, opened as consumed.

        ``reverse=True`` walks newest-first — a latest-row lookup opens
        one shard and stops instead of mapping the whole archive.
        """
        slots = self._overlapping(start, end)
        for slot in reversed(slots) if reverse else slots:
            yield self._engine(slot)

    def scan(self, predicate: ScanPredicate | None = None) -> "ShardedScanResult":
        """Scan the shards the predicate's window touches, in time order.

        Shards partition time, so per-shard window bisection composes to
        exactly the global window and chained results keep global time
        order; shards wholly outside the window are pruned from the
        shard-key span without ever being opened.
        """
        if predicate is None:
            from repro.dataset.query import ScanPredicate

            predicate = ScanPredicate()
        selected = self._overlapping(predicate.start, predicate.end)
        pruning = get_registry().counter(
            "repro_shard_scan_shards_total",
            "Per-scan shard decisions (scanned vs pruned by the time window)",
        )
        pruning.inc(len(selected), map=self.map_name.value, outcome="scanned")
        pruning.inc(
            len(self._slots) - len(selected),
            map=self.map_name.value,
            outcome="pruned",
        )
        return ShardedScanResult(
            index=self,
            results=[self._engine(slot).scan(predicate) for slot in selected],
        )

    def close(self) -> None:
        """Close every opened shard engine."""
        if self.closed:
            return
        self.closed = True
        for slot in self._slots:
            if slot.engine is not None:
                slot.engine.close()

    def __enter__(self) -> "ShardedMappedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class ShardedScanResult:
    """Per-shard scan results chained into one, in time order.

    Mirrors the :class:`~repro.dataset.query.ScanResult` surface the CLI
    and analyses consume: sizes sum, record and load accessors chain.
    ``batches()`` yields each shard's column batches unchanged — loads
    and timestamps are physical values and safe to mix, but the interned
    id columns are only meaningful against the *owning* shard's tables,
    which is why :meth:`records` resolves strings before chaining.
    """

    index: ShardedMappedIndex
    results: list[ScanResult]

    def __len__(self) -> int:
        return sum(len(result) for result in self.results)

    @property
    def snapshot_count(self) -> int:
        """Snapshot rows the scan covered across all shards."""
        return sum(result.snapshot_count for result in self.results)

    def batches(self, size: int = 65536) -> Iterator[ColumnBatch]:
        """Every shard's column batches, in shard (time) order."""
        for result in self.results:
            yield from result.batches(size)

    def directed_loads(self) -> list[float]:
        """Every matching load sample across shards, both directions."""
        out: list[float] = []
        for result in self.results:
            out.extend(result.directed_loads())
        return out

    def records(self) -> Iterator[LinkRecord]:
        """The matches resolved to strings, chained in time order."""
        for result in self.results:
            yield from result.records()
