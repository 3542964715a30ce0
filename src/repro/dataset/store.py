"""The snapshot dataset's on-disk store.

The dataset is a directory: one directory per map with ``svg/`` and
``yaml/`` subtrees, files named by UTC timestamp, plus per-day shard
indexes::

    <root>/<map>/svg/2022/09/12/europe-20220912T000000Z.svg
    <root>/<map>/yaml/2022/09/12/europe-20220912T000000Z.yaml
    <root>/<map>/shards/2022-09-12/index.bin
    <root>/<map>/shards/manifest.json

Timestamps are recoverable from file names alone, which is how the catalog
indexes half a million files without opening any.  The ``YYYY/MM/DD`` day
directories already partition snapshots by map/day, so index maintenance
is O(new shard) instead of O(corpus).

:class:`DatasetStore` reads and writes that tree; it is the only store.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, ClassVar, Generic, Iterable, Iterator, TypeVar

from repro.constants import PARSER_VERSION, MapName
from repro.errors import DatasetError, SnapshotNotFoundError

logger = logging.getLogger(__name__)

_TIMESTAMP_FORMAT = "%Y%m%dT%H%M%SZ"
_FILE_PATTERN = re.compile(
    r"^(?P<map>[a-z-]+)-(?P<stamp>\d{8}T\d{6}Z)\.(?P<kind>svg|yaml)$"
)
_SHARD_KEY_PATTERN = re.compile(r"^\d{4}-\d{2}-\d{2}$")

LAYOUT_FILE_NAME = "layout.json"
SHARDED_LAYOUT = "sharded"


def format_timestamp(when: datetime) -> str:
    """UTC compact timestamp used in snapshot file names."""
    return when.astimezone(timezone.utc).strftime(_TIMESTAMP_FORMAT)


def parse_timestamp(stamp: str) -> datetime:
    """Inverse of :func:`format_timestamp`."""
    try:
        return datetime.strptime(stamp, _TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError as exc:
        raise DatasetError(f"bad snapshot timestamp {stamp!r}") from exc


def shard_key(when: datetime) -> str:
    """The UTC-day shard a snapshot belongs to, e.g. ``"2022-09-12"``."""
    utc = when.astimezone(timezone.utc)
    return f"{utc.year:04d}-{utc.month:02d}-{utc.day:02d}"


def parse_shard_key(key: str) -> datetime:
    """The UTC midnight a shard key names; rejects malformed keys."""
    if _SHARD_KEY_PATTERN.match(key) is None:
        raise DatasetError(f"bad shard key {key!r}")
    try:
        return datetime.strptime(key, "%Y-%m-%d").replace(tzinfo=timezone.utc)
    except ValueError as exc:
        raise DatasetError(f"bad shard key {key!r}") from exc


def fsync_directory(path: Path) -> None:
    """Flush a directory entry to disk; a no-op where unsupported."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(
    path: Path, data: bytes | Iterable[bytes | memoryview], *, durable: bool = True
) -> int:
    """Write *data* so readers never observe a partial file.

    *data* is the file's bytes, or its pieces in order: buffer views need
    no copy to be joined first, and an iterator's pieces are written as
    it makes them.  The bytes land in a sibling temp file which is
    fsync'd and then ``os.replace``'d over *path*; with ``durable`` the
    parent directory entry is flushed too, so a mid-write kill leaves
    either the old file or the new one — never a truncated hybrid.
    Returns the byte count.
    """
    pieces = [data] if isinstance(data, bytes) else data
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_name(path.name + ".tmp")
    written = 0
    with open(scratch, "wb") as handle:
        for piece in pieces:
            written += handle.write(piece)
        handle.flush()
        if durable:
            os.fsync(handle.fileno())
    os.replace(scratch, path)
    if durable:
        fsync_directory(path.parent)
    return written


def atomic_write_text(path: Path, text: str, *, durable: bool = True) -> int:
    """UTF-8 variant of :func:`atomic_write_bytes`."""
    return atomic_write_bytes(path, text.encode("utf-8"), durable=durable)


EntryT = TypeVar("EntryT")
LedgerT = TypeVar("LedgerT", bound="Ledger[Any]")


class Ledger(Generic[EntryT]):
    """A map's version-gated JSON side-car of per-key facts.

    Serialised with sorted keys as ``{"parser_version": N, <section>:
    {key: {field: value}}}``, each fact a dataclass.  :meth:`load`
    reads an absent or corrupt file, or one a different
    :data:`~repro.constants.PARSER_VERSION` wrote, as empty, and drops
    each entry :meth:`coerce` rejects, so one bad entry only loses its
    skip; :attr:`whole` tells a reader which of those it got.
    :meth:`save` writes atomically and durably, and only when the
    document differs from the one on disk.
    """

    #: The document key the entries sit under.
    section: ClassVar[str]

    def __init__(self) -> None:
        self.entries: dict[str, EntryT] = {}
        #: SHA-256 of the file as last read or written (``None``: absent or
        #: unreadable) — a digest, so a large ledger is not held twice.
        self.digest: bytes | None = None
        #: Whether :meth:`load` read an existing file whole: it parsed, had
        #: the current parser version and an object section, and no entry
        #: was dropped.  ``False`` for an absent file.
        self.whole = False

    @staticmethod
    def coerce(key: str, raw: Any) -> EntryT:
        """One stored entry as a typed fact.

        Raises:
            KeyError, TypeError, ValueError, DatasetError: the entry is
                malformed.
        """
        raise NotImplementedError

    @classmethod
    def load(cls: type[LedgerT], path: Path) -> LedgerT:
        """Read a ledger, tolerating absence, corruption, and version skew."""
        ledger = cls()
        try:
            data = path.read_bytes()
            ledger.digest = hashlib.sha256(data).digest()
            document = json.loads(data.decode("utf-8"))
        except (OSError, ValueError):
            return ledger
        if not isinstance(document, dict):
            return ledger
        if document.get("parser_version") != PARSER_VERSION:
            logger.info(
                "%s has parser version %r (current %r); discarding it",
                path,
                document.get("parser_version"),
                PARSER_VERSION,
            )
            return ledger
        raw_entries = document.get(cls.section)
        if not isinstance(raw_entries, dict):
            return ledger
        for key, raw in raw_entries.items():
            try:
                ledger.entries[key] = cls.coerce(key, raw)
            except (KeyError, TypeError, ValueError, DatasetError):
                continue
        ledger.whole = len(ledger.entries) == len(raw_entries)
        return ledger

    def save(self, path: Path) -> bool:
        """Write the ledger if its document changed; whether it wrote.

        Write-aside + fsync + ``os.replace`` (via
        :func:`atomic_write_bytes`), so a mid-write kill leaves either the
        previous file or the new one.  An unchanged document leaves the
        file, and so its identity, alone.
        """
        document = {
            "parser_version": PARSER_VERSION,
            self.section: {key: asdict(entry) for key, entry in self.entries.items()},
        }
        data = json.dumps(document, sort_keys=True).encode("utf-8")
        digest = hashlib.sha256(data).digest()
        if digest == self.digest:
            return False
        atomic_write_bytes(path, data)
        self.digest = digest
        return True


@dataclass(frozen=True, slots=True)
class SnapshotRef:
    """A reference to one stored snapshot file.

    ``size`` is an optional stat hint (:meth:`DatasetStore.write` fills it
    in) so consumers can avoid a per-file ``stat()``.
    """

    map_name: MapName
    timestamp: datetime
    kind: str  # "svg" or "yaml"
    path: Path
    size: int | None = None

    @property
    def size_bytes(self) -> int:
        """File size in bytes (from the hint, else one ``stat()``)."""
        if self.size is not None:
            return self.size
        return self.path.stat().st_size

    def stat_key(self) -> tuple[int, int]:
        """``(size, mtime_ns)`` freshness key: one ``stat()``."""
        stat = self.path.stat()
        return stat.st_size, stat.st_mtime_ns


class DatasetStore:
    """Reads and writes the local-dir dataset tree and names its side-cars.

    :mod:`repro.dataset.engine` owns the manifest, :mod:`repro.dataset.ingest`
    the journal, and :mod:`repro.dataset.shards` the shard manifest and
    compaction; the store only names their paths and enumerates shard
    members (both manifests are :class:`Ledger` files).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, map_name: MapName, when: datetime, kind: str) -> Path:
        """Where a snapshot file lives (whether or not it exists yet)."""
        if kind not in ("svg", "yaml"):
            raise DatasetError(f"unknown snapshot kind {kind!r}")
        utc = when.astimezone(timezone.utc)
        return (
            self.root
            / map_name.value
            / kind
            / f"{utc.year:04d}"
            / f"{utc.month:02d}"
            / f"{utc.day:02d}"
            / f"{map_name.value}-{format_timestamp(when)}.{kind}"
        )

    def manifest_path(self, map_name: MapName) -> Path:
        """Where the incremental-processing manifest of one map lives.

        The manifest sits next to the ``svg/`` and ``yaml/`` subtrees and is
        owned by :mod:`repro.dataset.engine`; the store only names it.
        """
        return self.root / map_name.value / "manifest.json"

    def journal_path(self, map_name: MapName) -> Path:
        """Where the ingestion write-ahead journal of one map lives."""
        return self.root / map_name.value / "journal.wal"

    def write(self, map_name: MapName, when: datetime, kind: str, data: str | bytes) -> SnapshotRef:
        """Write one snapshot file, creating directories as needed."""
        path = self.path_for(map_name, when, kind)
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, str):
            data = data.encode("utf-8")
        path.write_bytes(data)
        return SnapshotRef(
            map_name=map_name, timestamp=when, kind=kind, path=path, size=len(data)
        )

    def read_bytes(self, map_name: MapName, when: datetime, kind: str) -> bytes:
        """Read one snapshot file's raw contents."""
        path = self.path_for(map_name, when, kind)
        if not path.exists():
            raise SnapshotNotFoundError(
                f"no {kind} snapshot of {map_name.value} at {when.isoformat()}"
            )
        return path.read_bytes()

    def read_ref(self, ref: SnapshotRef) -> bytes:
        """Read the raw contents a :class:`SnapshotRef` points at."""
        try:
            return ref.path.read_bytes()
        except FileNotFoundError as exc:
            raise SnapshotNotFoundError(
                f"no {ref.kind} snapshot of {ref.map_name.value} at "
                f"{ref.timestamp.isoformat()}"
            ) from exc

    def iter_refs(self, map_name: MapName, kind: str) -> Iterator[SnapshotRef]:
        """All stored snapshots of one map and kind, in timestamp order:
        each day shard's listing, day by day.  A file outside its
        ``YYYY/MM/DD`` directory is not listed."""
        for key in self.shard_keys(map_name, kind):
            yield from self.iter_shard_refs(map_name, kind, key)

    def timestamps(self, map_name: MapName, kind: str = "svg") -> list[datetime]:
        """Sorted snapshot timestamps of one map."""
        return [ref.timestamp for ref in self.iter_refs(map_name, kind)]

    def file_stats(self, map_name: MapName, kind: str) -> tuple[int, int]:
        """(file count, total bytes) for one map and kind — Table 2 inputs."""
        count = 0
        total = 0
        for ref in self.iter_refs(map_name, kind):
            count += 1
            total += ref.size_bytes
        return count, total

    def mark(self) -> None:
        """Write ``layout.json``, the marker 2.x readers pick shards by.

        Every 3.x store is sharded and :func:`open_store` ignores the
        marker; the dataset-creating commands still write it so that an
        older install reads a dataset created here through its shards.
        """
        payload = json.dumps({"layout": SHARDED_LAYOUT, "version": 1}, indent=2)
        atomic_write_text(self.root / LAYOUT_FILE_NAME, payload + "\n")

    def shards_root(self, map_name: MapName) -> Path:
        """The directory holding one map's shard indexes and manifest."""
        return self.root / map_name.value / "shards"

    def shards_manifest_path(self, map_name: MapName) -> Path:
        """Where the per-shard generation manifest of one map lives."""
        return self.shards_root(map_name) / "manifest.json"

    def shard_index_path(self, map_name: MapName, key: str) -> Path:
        """Where one shard's columnar index lives."""
        parse_shard_key(key)
        return self.shards_root(map_name) / key / "index.bin"

    def shard_day_dir(self, map_name: MapName, kind: str, key: str) -> Path:
        """The snapshot day directory a shard key maps onto."""
        if kind not in ("svg", "yaml"):
            raise DatasetError(f"unknown snapshot kind {kind!r}")
        day = parse_shard_key(key)
        return (
            self.root
            / map_name.value
            / kind
            / f"{day.year:04d}"
            / f"{day.month:02d}"
            / f"{day.day:02d}"
        )

    def shard_keys(self, map_name: MapName, kind: str = "yaml") -> list[str]:
        """Sorted shard keys that currently hold at least one snapshot."""
        base = self.root / map_name.value / kind
        if not base.exists():
            return []
        keys: set[str] = set()
        for year_dir in base.iterdir():
            if not year_dir.is_dir() or not year_dir.name.isdigit():
                continue
            for month_dir in year_dir.iterdir():
                if not month_dir.is_dir() or not month_dir.name.isdigit():
                    continue
                for day_dir in month_dir.iterdir():
                    if not day_dir.is_dir() or not day_dir.name.isdigit():
                        continue
                    if any(day_dir.glob(f"*.{kind}")):
                        keys.add(
                            f"{year_dir.name}-{month_dir.name}-{day_dir.name}"
                        )
        return sorted(keys)

    def iter_shard_refs(
        self, map_name: MapName, kind: str, key: str
    ) -> Iterator[SnapshotRef]:
        """One shard's snapshots in timestamp order — an O(shard) listing."""
        day_dir = self.shard_day_dir(map_name, kind, key)
        if day_dir.exists():
            yield from _sorted_refs(map_name, kind, day_dir.glob(f"*.{kind}"))


def _sorted_refs(
    map_name: MapName, kind: str, paths: Iterable[Path]
) -> list[SnapshotRef]:
    """The snapshot files of one map among *paths*, in timestamp order."""
    refs: list[SnapshotRef] = []
    for path in paths:
        match = _FILE_PATTERN.match(path.name)
        if match is None or match.group("map") != map_name.value:
            continue
        refs.append(
            SnapshotRef(
                map_name=map_name,
                timestamp=parse_timestamp(match.group("stamp")),
                kind=kind,
                path=path,
            )
        )
    refs.sort(key=lambda ref: ref.timestamp)
    return refs


#: The 2.x name of the sharded store, which is now the only one.
ShardedDatasetStore = DatasetStore


def open_store(root: str | Path) -> DatasetStore:
    """Open a dataset directory.

    Any dataset opens the same way: the snapshot tree is the same for
    every layout a release has written, and reads are served from the
    per-day shard indexes.  A 2.x dataset without them serves from YAML
    until ``repro-weather index build`` compacts it.
    """
    return DatasetStore(root)
