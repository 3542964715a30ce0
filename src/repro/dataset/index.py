"""Columnar on-disk snapshot index — parse each map's YAML series once.

The paper's Section 5 analyses re-read an entire map's ~174k YAML
snapshots per figure.  At the measured serial rate that is hours of YAML
parsing repeated for every figure, so this module compacts a map's
processed series into binary files the analyses can be served from —
the same move time-series databases make when they compact write-ahead
samples into immutable columnar blocks.  :mod:`repro.dataset.shards`
keeps one such file per map and UTC day.

Layout of an index file (``<root>/<map>/shards/<YYYY-MM-DD>/index.bin``)::

    magic "RWIX" | format version | header length      (struct, fixed)
    header                                             (JSON, small)
    columns                                            (array module dumps)
    SHA-256 over everything above                      (32 bytes)

The header carries the format version's companion metadata: map name,
:data:`~repro.constants.PARSER_VERSION` at build time, byte order,
the interned **string tables** (router/peering names and link-end labels),
the per-section element counts, any *skipped* sources (unreadable YAML
files, kept so the index can still answer for a corpus with corrupt
members), and a fingerprint of the source files' ``(timestamp, size,
mtime_ns)`` stats.

The columns are flat :mod:`array` dumps, one per field, in file order:

========================  ======  =====================================
column                    type    one element per
========================  ======  =====================================
``timestamps``            ``q``   snapshot (epoch seconds, UTC)
``source_sizes``          ``q``   snapshot (YAML file size)
``source_mtimes``         ``q``   snapshot (YAML file mtime_ns)
``router_counts``         ``I``   snapshot
``peering_counts``        ``I``   snapshot
``link_counts``           ``I``   snapshot
``router_ids``            ``I``   router membership (concatenated)
``peering_ids``           ``I``   peering membership (concatenated)
``link_a_nodes``          ``I``   link (concatenated)
``link_a_labels``         ``I``   link
``link_b_nodes``          ``I``   link
``link_b_labels``         ``I``   link
``link_a_loads``          ``d``   link (egress load a→b, percent)
``link_b_loads``          ``d``   link (egress load b→a, percent)
========================  ======  =====================================

Everything is stdlib; floats are stored as binary doubles, so an indexed
load is the *same* ``float`` the YAML parser produced and reconstruction
is exact — :func:`repro.dataset.loader.load_all` returns equal
:class:`~repro.topology.model.MapSnapshot` objects from either path.

This module is the write half.  :class:`SnapshotIndex` is the in-heap
builder the ingest daemon runs without numpy; every read of a built
file — the loaders' and the server's — goes through
:class:`~repro.dataset.query.MappedIndex`, and both check integrity
through :func:`verify_index`.

:func:`build_index` is incremental the same way the engine's
``manifest.json`` is — unchanged rows are carried over wholesale, only
new or modified files are parsed — and the index is discarded outright
on ``rebuild=True`` or a ``PARSER_VERSION`` bump.  Freshness against
the live YAML tree is the shard manifest's job
(:func:`repro.dataset.shards.verify_shards`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import struct
import sys
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from itertools import accumulate
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.constants import PARSER_VERSION, MapName
from repro.dataset.store import SnapshotRef, atomic_write_bytes
from repro.dataset.workers import OrderedPool, contiguous_batches, lend_pool
from repro.errors import SchemaError, SnapshotIndexError
from repro.telemetry import get_registry
from repro.topology.model import MapSnapshot, NodeKind

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"RWIX"
INDEX_FORMAT_VERSION = 1

_PREFIX = struct.Struct("<4sII")  # magic, format version, header byte length
_DIGEST_BYTES = 32

#: (column attribute, array typecode) in file order.
_COLUMNS: tuple[tuple[str, str], ...] = (
    ("timestamps", "q"),
    ("source_sizes", "q"),
    ("source_mtimes", "q"),
    ("router_counts", "I"),
    ("peering_counts", "I"),
    ("link_counts", "I"),
    ("router_ids", "I"),
    ("peering_ids", "I"),
    ("link_a_nodes", "I"),
    ("link_a_labels", "I"),
    ("link_b_nodes", "I"),
    ("link_b_labels", "I"),
    ("link_a_loads", "d"),
    ("link_b_loads", "d"),
)


def _epoch(when: datetime) -> int:
    """Epoch seconds of a snapshot timestamp (always whole seconds)."""
    return int(when.timestamp())


@dataclass(frozen=True, slots=True)
class ColumnSpec:
    """Where one column's elements sit inside an ``index.bin`` file."""

    attribute: str
    typecode: str
    itemsize: int
    offset: int
    count: int

    @property
    def end(self) -> int:
        """Byte offset one past the column's last element."""
        return self.offset + self.count * self.itemsize


@dataclass(frozen=True)
class IndexLayout:
    """The byte layout of one ``index.bin`` — the mapping contract.

    This is what lets :mod:`repro.dataset.query` expose the columns as
    zero-copy views over a shared read-only mapping: every column's byte
    span is known from the prefix and JSON header alone, so no column
    data needs to be read (or copied) to locate any other.  The same
    parse backs :meth:`SnapshotIndex.load`, which *does* then copy the
    spans into :mod:`array` columns.
    """

    map_name: MapName
    parser_version: int
    byteorder: str
    names: list[str]
    labels: list[str]
    skipped: dict[int, SkippedSource]
    fingerprint: str
    #: attribute → spec, in file order.
    columns: dict[str, ColumnSpec]
    #: Bytes covered by the trailing SHA-256 (prefix + header + columns).
    payload_length: int


def parse_index_layout(buffer, source: str = "index") -> IndexLayout:
    """Parse an index file's prefix and header into its byte layout.

    Args:
        buffer: the whole file as any buffer object (``bytes``,
            ``memoryview``, ``mmap``) — only the prefix and header bytes
            are materialised, never the columns.
        source: how to name the file in error messages.

    Raises:
        SnapshotIndexError: truncation, bad magic, unknown format
            version, a malformed header, or column spans that do not
            tile the payload exactly.
    """
    # No memoryview is held: an exception's traceback would keep it, and
    # with it an export that stops the caller closing an mmap buffer.
    if len(buffer) < _PREFIX.size + _DIGEST_BYTES:
        raise SnapshotIndexError(f"index {source} is truncated")
    magic, version, header_length = _PREFIX.unpack_from(buffer)
    if magic != INDEX_MAGIC:
        raise SnapshotIndexError(f"index {source} has bad magic {magic!r}")
    if version != INDEX_FORMAT_VERSION:
        raise SnapshotIndexError(
            f"index {source} has format version {version}, "
            f"expected {INDEX_FORMAT_VERSION}"
        )
    payload_length = len(buffer) - _DIGEST_BYTES
    offset = _PREFIX.size
    if offset + header_length > payload_length:
        raise SnapshotIndexError(f"index {source} header is truncated")
    try:
        header = json.loads(bytes(buffer[offset : offset + header_length]))
        map_name = MapName(header["map"])
        parser_version = int(header["parser_version"])
        byteorder = str(header["byteorder"])
        names = [str(name) for name in header["names"]]
        labels = [str(label) for label in header["labels"]]
        counts = dict(header["counts"])
        skipped = {
            int(epoch): SkippedSource(
                size=int(size), mtime_ns=int(mtime_ns), message=str(message)
            )
            for epoch, size, mtime_ns, message in header.get("skipped", [])
        }
        fingerprint = str(header.get("fingerprint", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotIndexError(f"index {source} has a bad header: {exc}") from exc
    offset += header_length
    columns: dict[str, ColumnSpec] = {}
    for attribute, typecode in _COLUMNS:
        itemsize = array(typecode).itemsize
        try:
            count = int(counts.get(attribute, -1))
        except (TypeError, ValueError) as exc:
            raise SnapshotIndexError(
                f"index {source} has a bad count for {attribute}"
            ) from exc
        span = count * itemsize
        if count < 0 or offset + span > payload_length:
            raise SnapshotIndexError(f"index {source} column {attribute} truncated")
        columns[attribute] = ColumnSpec(
            attribute=attribute,
            typecode=typecode,
            itemsize=itemsize,
            offset=offset,
            count=count,
        )
        offset += span
    if offset != payload_length:
        raise SnapshotIndexError(f"index {source} has trailing bytes")
    return IndexLayout(
        map_name=map_name,
        parser_version=parser_version,
        byteorder=byteorder,
        names=names,
        labels=labels,
        skipped=skipped,
        fingerprint=fingerprint,
        columns=columns,
        payload_length=payload_length,
    )


def verify_index(
    buffer: Any,
    layout: IndexLayout,
    columns: Mapping[str, Sequence[Any]],
    source: str = "index",
) -> None:
    """Check one index file's trailing SHA-256 and its column cross-checks.

    The integrity check both readers share: :meth:`SnapshotIndex.load`
    runs it on every carry-over, :meth:`repro.dataset.query.MappedIndex.verify`
    wherever the loaders read a shard.

    Args:
        buffer: the whole file (``bytes`` or a mapping).
        layout: its parsed layout.
        columns: every column attribute's elements in host byte order —
            :mod:`array` columns or memoryviews over the mapping.
        source: how to name the file in error messages.

    Raises:
        SnapshotIndexError: checksum mismatch, section lengths that
            disagree with the per-row counts, interned ids outside the
            string tables, or an unsorted timestamp column.
    """
    # Views are released before raising, so a caller can still close an
    # mmap buffer on its error path.
    with memoryview(buffer) as view:
        with view[: layout.payload_length] as payload:
            digest = hashlib.sha256(payload).digest()
        with view[layout.payload_length :] as trailer:
            recorded = bytes(trailer)
    if digest != recorded:
        raise SnapshotIndexError(f"index {source} fails its checksum")
    timestamps = columns["timestamps"]
    rows = len(timestamps)
    for attribute in ("source_sizes", "source_mtimes", "router_counts",
                      "peering_counts", "link_counts"):
        if len(columns[attribute]) != rows:
            raise SnapshotIndexError(f"column {attribute} length mismatch")
    if len(columns["router_ids"]) != sum(columns["router_counts"]):
        raise SnapshotIndexError("router id column length mismatch")
    if len(columns["peering_ids"]) != sum(columns["peering_counts"]):
        raise SnapshotIndexError("peering id column length mismatch")
    links = sum(columns["link_counts"])
    for attribute in ("link_a_nodes", "link_a_labels", "link_b_nodes",
                      "link_b_labels", "link_a_loads", "link_b_loads"):
        if len(columns[attribute]) != links:
            raise SnapshotIndexError(f"column {attribute} length mismatch")
    names = len(layout.names)
    labels = len(layout.labels)
    for attribute, bound in (
        ("router_ids", names),
        ("peering_ids", names),
        ("link_a_nodes", names),
        ("link_b_nodes", names),
        ("link_a_labels", labels),
        ("link_b_labels", labels),
    ):
        column = columns[attribute]
        if len(column) and max(column) >= bound:
            raise SnapshotIndexError("interned id out of table bounds")
    if any(b < a for a, b in zip(timestamps, timestamps[1:])):
        raise SnapshotIndexError("timestamp column is not sorted")


def _when(epoch: int) -> datetime:
    """Inverse of :func:`_epoch`, always UTC-aware."""
    return datetime.fromtimestamp(epoch, tz=timezone.utc)


def _remapped(ids: array, remap: Sequence[int] | None) -> Iterable[int]:
    """Interned ids translated through ``remap`` (verbatim without one)."""
    return ids if remap is None else [remap[i] for i in ids]


@dataclass(frozen=True, slots=True)
class SkippedSource:
    """A source YAML file the index could not parse, remembered by stat.

    Keeping these lets the index stay *fresh* for a corpus that contains
    corrupt members: the reader replays the recorded failure exactly where
    the YAML path would have hit it.
    """

    size: int
    mtime_ns: int
    message: str


class SnapshotIndex:
    """One map's snapshot series in columnar, interned form."""

    timestamps: array
    source_sizes: array
    source_mtimes: array
    router_counts: array
    peering_counts: array
    link_counts: array
    router_ids: array
    peering_ids: array
    link_a_nodes: array
    link_a_labels: array
    link_b_nodes: array
    link_b_labels: array
    link_a_loads: array
    link_b_loads: array

    def __init__(
        self, map_name: MapName, parser_version: int = PARSER_VERSION
    ) -> None:
        self.map_name = map_name
        self.parser_version = parser_version
        self.names: list[str] = []
        self.labels: list[str] = []
        #: Unreadable sources by epoch second, part of the indexed universe.
        self.skipped: dict[int, SkippedSource] = {}
        for attribute, typecode in _COLUMNS:
            setattr(self, attribute, array(typecode))
        self._name_ids: dict[str, int] = {}
        self._label_ids: dict[str, int] = {}
        self._offsets: tuple[list[int], list[int], list[int]] | None = None

    # -- building ----------------------------------------------------------

    def _intern_name(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _intern_label(self, label: str) -> int:
        index = self._label_ids.get(label)
        if index is None:
            index = self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return index

    def adopt_tables(self, other: "SnapshotIndex") -> None:
        """Share another index's string tables (prefix-compatible ids).

        Required before :meth:`append_row_from` so the donor's ids stay
        valid verbatim; only callable on an empty index.
        """
        if len(self) or self.names or self.labels:
            raise SnapshotIndexError("can only adopt tables into an empty index")
        self.names = list(other.names)
        self.labels = list(other.labels)
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._label_ids = {label: i for i, label in enumerate(self.labels)}

    def append_snapshot(self, snapshot: MapSnapshot, size: int, mtime_ns: int) -> None:
        """Intern and append one parsed snapshot (rows stay in time order)."""
        self.timestamps.append(_epoch(snapshot.timestamp))
        self.source_sizes.append(size)
        self.source_mtimes.append(mtime_ns)
        routers = peerings = 0
        for node in snapshot.nodes.values():
            if node.kind is NodeKind.ROUTER:
                self.router_ids.append(self._intern_name(node.name))
                routers += 1
            else:
                self.peering_ids.append(self._intern_name(node.name))
                peerings += 1
        self.router_counts.append(routers)
        self.peering_counts.append(peerings)
        self.link_counts.append(len(snapshot.links))
        for link in snapshot.links:
            self.link_a_nodes.append(self._intern_name(link.a.node))
            self.link_a_labels.append(self._intern_label(link.a.label))
            self.link_b_nodes.append(self._intern_name(link.b.node))
            self.link_b_labels.append(self._intern_label(link.b.label))
            self.link_a_loads.append(link.a.load)
            self.link_b_loads.append(link.b.load)
        self._offsets = None

    def append_row_from(
        self,
        other: "SnapshotIndex",
        row: int,
        names: Sequence[int] | None = None,
        labels: Sequence[int] | None = None,
    ) -> None:
        """Copy one row of another index into this one.

        ``names`` and ``labels`` map ``other``'s interned ids to this
        index's.  Without them the ids are copied verbatim, which needs
        the string tables adopted from ``other`` — the reuse path for an
        unchanged row of a previous generation, pure array slicing with
        no YAML and no hashing.
        """
        r0, r1, p0, p1, l0, l1 = other._row_bounds(row)
        self.timestamps.append(other.timestamps[row])
        self.source_sizes.append(other.source_sizes[row])
        self.source_mtimes.append(other.source_mtimes[row])
        self.router_counts.append(r1 - r0)
        self.peering_counts.append(p1 - p0)
        self.link_counts.append(l1 - l0)
        self.router_ids.extend(_remapped(other.router_ids[r0:r1], names))
        self.peering_ids.extend(_remapped(other.peering_ids[p0:p1], names))
        self.link_a_nodes.extend(_remapped(other.link_a_nodes[l0:l1], names))
        self.link_a_labels.extend(_remapped(other.link_a_labels[l0:l1], labels))
        self.link_b_nodes.extend(_remapped(other.link_b_nodes[l0:l1], names))
        self.link_b_labels.extend(_remapped(other.link_b_labels[l0:l1], labels))
        self.link_a_loads.extend(other.link_a_loads[l0:l1])
        self.link_b_loads.extend(other.link_b_loads[l0:l1])
        self._offsets = None

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

    def _row_bounds(self, row: int) -> tuple[int, int, int, int, int, int]:
        if self._offsets is None:
            self._offsets = (
                [0, *accumulate(self.router_counts)],
                [0, *accumulate(self.peering_counts)],
                [0, *accumulate(self.link_counts)],
            )
        routers, peerings, links = self._offsets
        return (
            routers[row],
            routers[row + 1],
            peerings[row],
            peerings[row + 1],
            links[row],
            links[row + 1],
        )

    # -- freshness ---------------------------------------------------------

    def source_fingerprint(self) -> str:
        """SHA-256 over the indexed universe's ``(epoch, size, mtime_ns)``."""
        digest = hashlib.sha256()
        for row in range(len(self)):
            digest.update(
                b"row %d %d %d;"
                % (self.timestamps[row], self.source_sizes[row], self.source_mtimes[row])
            )
        for epoch in sorted(self.skipped):
            entry = self.skipped[epoch]
            digest.update(b"skip %d %d %d;" % (epoch, entry.size, entry.mtime_ns))
        return digest.hexdigest()

    # -- serialisation -----------------------------------------------------

    def save(self, path: Path) -> int:
        """Write the index atomically; returns the byte count."""
        header = {
            "map": self.map_name.value,
            "parser_version": self.parser_version,
            "byteorder": sys.byteorder,
            "names": self.names,
            "labels": self.labels,
            "counts": {
                attribute: len(getattr(self, attribute))
                for attribute, _ in _COLUMNS
            },
            "skipped": [
                [epoch, entry.size, entry.mtime_ns, entry.message]
                for epoch, entry in sorted(self.skipped.items())
            ],
            "fingerprint": self.source_fingerprint(),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
        parts = [_PREFIX.pack(INDEX_MAGIC, INDEX_FORMAT_VERSION, len(header_bytes))]
        parts.append(header_bytes)
        for attribute, _ in _COLUMNS:
            parts.append(getattr(self, attribute).tobytes())
        payload = b"".join(parts)
        data = payload + hashlib.sha256(payload).digest()
        # Write-aside + fsync + replace: a mid-write kill leaves either the
        # previous index generation or the new one, never a truncated file.
        return atomic_write_bytes(path, data)

    @classmethod
    def load(cls, path: Path) -> "SnapshotIndex":
        """Read an index file into the heap, verifying it end to end.

        Only :func:`build_index` calls this, to carry a previous
        generation's unchanged rows over without loading numpy; readers
        map the file through :class:`~repro.dataset.query.MappedIndex`.
        A foreign-endian file is byte-swapped here, so it can still be
        carried over and rewritten in this host's order.

        Raises:
            SnapshotIndexError: missing file, bad magic, unknown format
                version, checksum mismatch, truncation, or inconsistent
                section counts — callers treat all of these as "no index".
        """
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise SnapshotIndexError(f"cannot read index {path}: {exc}") from exc
        layout = parse_index_layout(data, source=str(path))
        index = cls(layout.map_name, parser_version=layout.parser_version)
        index.names = layout.names
        index.labels = layout.labels
        index.skipped = dict(layout.skipped)
        swap = layout.byteorder != sys.byteorder
        for spec in layout.columns.values():
            column: array = getattr(index, spec.attribute)
            column.frombytes(data[spec.offset : spec.end])
            if swap:
                column.byteswap()
        verify_index(
            data,
            layout,
            {attribute: getattr(index, attribute) for attribute, _ in _COLUMNS},
            source=str(path),
        )
        index._name_ids = {name: i for i, name in enumerate(index.names)}
        index._label_ids = {label: i for i, label in enumerate(index.labels)}
        return index


# ---------------------------------------------------------------------------
# Build / load
# ---------------------------------------------------------------------------


@dataclass
class IndexBuildStats:
    """What one :func:`build_index` run did."""

    map_name: MapName
    parsed: int = 0
    reused: int = 0
    unreadable: int = 0
    removed: int = 0
    bytes_written: int = 0

    @property
    def total(self) -> int:
        """Rows in the resulting index."""
        return self.parsed + self.reused


def _index_batch(
    map_name: MapName, items: Sequence[tuple[str, int, int, int]]
) -> tuple[SnapshotIndex, list[int | str]]:
    """Parse one batch of YAML twins into a private part index.

    ``items`` are ``(path, epoch, size, mtime_ns)``.  Each gets one
    outcome, in order: its row in the part, or the schema error message.
    Serial and pooled builds both run this; a pool worker returns only the
    part's flat columns and string tables, never snapshot objects.
    """
    from repro.yamlio.deserialize import try_read_snapshot

    part = SnapshotIndex(map_name)
    outcomes: list[int | str] = []
    for path, epoch, size, mtime_ns in items:
        snapshot, message = try_read_snapshot(path)
        if snapshot is None:
            outcomes.append(message)
            continue
        # The file name's stamp is authoritative over the document's own.
        snapshot.timestamp = _when(epoch)
        outcomes.append(len(part))
        part.append_snapshot(snapshot, size, mtime_ns)
    return part, outcomes


def build_index(
    map_name: MapName,
    refs: Sequence[SnapshotRef],
    index_path: Path,
    rebuild: bool = False,
    workers: int | str | None | OrderedPool = None,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None = None,
) -> tuple[SnapshotIndex, IndexBuildStats]:
    """Build or refresh the columnar index of ``refs`` at ``index_path``.

    Incremental by default: rows whose source file is unchanged (same
    ``size`` and ``mtime_ns``) are carried over from the existing index
    without touching the YAML; new and modified files are parsed, in one
    contiguous batch per worker, each batch into a part index whose rows
    are then merged in time order; rows whose source vanished are
    dropped.  An existing index built at a different
    ``PARSER_VERSION`` is discarded, mirroring the engine's manifest.

    Args:
        refs: the source universe to index, in time order; shard
            compaction passes one shard's YAML refs.
        index_path: where to load the previous generation from and save
            the result; shard compaction passes the per-shard path.
        rebuild: ignore any existing index and parse everything.
        workers: worker request, resolved via
            :func:`repro.dataset.workers.resolve_workers` (default serial),
            or an open :class:`~repro.dataset.workers.OrderedPool` to
            borrow — how shard compaction lends one pool to every shard.
        on_error: called for unreadable YAML files, which are recorded as
            skipped sources; without a handler, schema errors propagate.

    Returns:
        The saved index and the build accounting.
    """
    registry = get_registry()
    rows_counter = registry.counter(
        "repro_index_rows_total",
        "Index build rows by outcome (parsed, reused, unreadable, removed)",
    )
    build_seconds = registry.histogram(
        "repro_index_build_seconds", "Index build wall time"
    )
    build_started = perf_counter()
    previous: SnapshotIndex | None = None
    if not rebuild and index_path.exists():
        # The previous generation, carried over in-heap: the daemon builds
        # here and never loads numpy, so this is not a MappedIndex.
        try:
            with registry.span(
                "repro_index_load", "Columnar index file load wall time",
                map=map_name.value,
            ):
                previous = SnapshotIndex.load(index_path)
        except SnapshotIndexError as exc:
            logger.warning("ignoring unusable snapshot index: %s", exc)
        if previous is not None and previous.map_name != map_name:
            logger.warning(
                "index %s claims map %s; ignoring",
                index_path,
                previous.map_name.value,
            )
            previous = None
        if previous is not None and previous.parser_version != PARSER_VERSION:
            logger.info(
                "discarding index for %s (parser version %d -> %d)",
                map_name.value,
                previous.parser_version,
                PARSER_VERSION,
            )
            previous = None

    stats = IndexBuildStats(map_name=map_name)
    index = SnapshotIndex(map_name, PARSER_VERSION)
    previous_rows: dict[int, int] = {}
    if previous is not None:
        index.adopt_tables(previous)
        previous_rows = {
            previous.timestamps[row]: row for row in range(len(previous))
        }

    # Plan in ref (time) order: reuse an unchanged row, or parse the file.
    plan: list[tuple[SnapshotRef, int | None]] = []
    #: ``(path, epoch, size, mtime_ns)`` of each file to parse, in plan order.
    items: list[tuple[str, int, int, int]] = []
    for ref in refs:
        try:
            stat = ref.path.stat()
        except OSError:
            continue  # raced with deletion; the index simply omits it
        key = _epoch(ref.timestamp)
        row = previous_rows.get(key)
        if row is not None and previous is not None and (
            previous.source_sizes[row] == stat.st_size
            and previous.source_mtimes[row] == stat.st_mtime_ns
        ):
            plan.append((ref, row))
            continue
        skip = previous.skipped.get(key) if previous is not None else None
        if (
            skip is not None
            and skip.size == stat.st_size
            and skip.mtime_ns == stat.st_mtime_ns
        ):
            index.skipped[key] = skip
            stats.unreadable += 1
            continue
        plan.append((ref, None))
        items.append((str(ref.path), key, stat.st_size, stat.st_mtime_ns))

    with lend_pool(workers) as pool:
        batches = contiguous_batches(items, pool.width) if items else []
        if len(batches) > 1:
            # Loaded before a pool forks, so workers inherit the YAML stack.
            import repro.yamlio.deserialize  # noqa: F401
        # One (item, part, outcome) per parsed file, in plan order.
        parsed = zip(
            items,
            (
                (batch_part, outcome)
                for batch_part, outcomes in pool.map(
                    partial(_index_batch, map_name), batches
                )
                for outcome in outcomes
            ),
        )
        part: SnapshotIndex | None = None
        names: list[int] = []
        labels: list[int] = []
        for ref, previous_row in plan:
            if previous_row is not None:
                index.append_row_from(previous, previous_row)
                stats.reused += 1
                continue
            (_, key, size, mtime_ns), (outcome_part, outcome) = next(parsed)
            if isinstance(outcome, str):
                exc = SchemaError(outcome)
                if on_error is None:
                    raise exc
                on_error(ref, exc)
                index.skipped[key] = SkippedSource(
                    size=size, mtime_ns=mtime_ns, message=outcome
                )
                stats.unreadable += 1
                continue
            if outcome_part is not part:
                # A part's strings are interned when the plan reaches its
                # first row.  Nothing between its rows interns (reused rows
                # carry known ids), so the tables keep the serial build's
                # first-use order.
                part = outcome_part
                names = [index._intern_name(name) for name in part.names]
                labels = [index._intern_label(label) for label in part.labels]
            index.append_row_from(part, outcome, names, labels)
            stats.parsed += 1

    if previous is not None:
        stats.removed = max(0, len(previous) - stats.reused)
    stats.bytes_written = index.save(index_path)
    build_seconds.observe(perf_counter() - build_started, map=map_name.value)
    for outcome in ("parsed", "reused", "unreadable", "removed"):
        rows_counter.inc(getattr(stats, outcome), map=map_name.value, outcome=outcome)
    logger.info(
        "indexed %s: %d rows (%d parsed, %d reused, %d unreadable, %d removed)",
        map_name.value,
        len(index),
        stats.parsed,
        stats.reused,
        stats.unreadable,
        stats.removed,
    )
    return index, stats
