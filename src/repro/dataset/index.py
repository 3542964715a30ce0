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

:class:`SnapshotIndex` is the in-heap builder the ingest daemon runs
without numpy.  Every built file is opened one way, :func:`open_index`:
it maps the file and trusts it only in this host's byte order, for the
expected map and at the current ``PARSER_VERSION``.  The builder streams
a previous generation's unchanged rows from that mapping into the new
file, a chunk at a time; the loaders and the server read through
:class:`~repro.dataset.query.MappedIndex`, which lays numpy views over
it.  Both check integrity through :meth:`IndexFile.verify`.

:func:`build_index` is incremental the same way the engine's
``manifest.json`` is — unchanged rows are carried over wholesale, only
new or modified files are read — and every twin is read again on
``rebuild=True`` or when :func:`open_index` refuses the previous
generation (damaged, foreign-endian, another map or parser version).
Freshness against the live YAML tree is the shard manifest's job
(:func:`repro.dataset.shards.verify_shards`).

A file it reads is decoded straight into the new index's columns
(``_TwinDecoder``), from the tokens of the fast YAML reader
(:func:`repro.yamlio.deserialize.read_layout`), with no document and no
snapshot in between.  A twin outside the decoder's rules goes the
object way, ``try_read_snapshot`` then :meth:`SnapshotIndex.append_snapshot`,
which owns every error; both ways give the same bytes.  One build runs
in one process: :func:`~repro.dataset.shards.compact_map_shards` fans
builds out, one pool task per stale shard.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
import sys
from array import array
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import import_module
from itertools import accumulate, chain
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator, Sequence

from repro.constants import LOAD_MAX, LOAD_MIN, PARSER_VERSION, MapName
from repro.dataset.store import SnapshotRef, atomic_write_bytes
from repro.errors import IndexSkewError, SchemaError, SnapshotIndexError
from repro.telemetry import get_registry
from repro.topology.model import MapSnapshot, NodeKind

try:  # pragma: no cover - exercised only on mmap-less platforms
    _mmap: Any = import_module("mmap")
except ImportError:  # pragma: no cover
    _mmap = None

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"RWIX"
INDEX_FORMAT_VERSION = 1

_PREFIX = struct.Struct("<4sII")  # magic, format version, header byte length
_DIGEST_BYTES = 32
#: Bytes a pass over a mapped file hashes, checks or copies per step.
_CHUNK_BYTES = 1 << 18
_DONTNEED = getattr(_mmap, "MADV_DONTNEED", None)

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
#: Each per-element column's section: 0 routers, 1 peerings, 2 links.
_SECTIONS = {
    "router_ids": 0,
    "peering_ids": 1,
    **{attribute: 2 for attribute, _ in _COLUMNS[8:]},
}
#: The per-row columns: one element per snapshot.
_ROW_COLUMNS = tuple(attribute for attribute, _ in _COLUMNS[:6])
#: One run of rows' elements: ``(source, starts, ends)``, see ``SnapshotIndex._write``.
_Run = tuple["IndexFile | None", Sequence[int], Sequence[int]]


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
    data needs to be read (or copied) to locate any other.
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


class IndexFile:
    """One ``index.bin`` opened for reading (see :func:`open_index`).

    ``columns`` maps each column attribute to a typed :class:`memoryview`
    over the file's bytes — the mapping, or one buffered read where
    ``mmap`` is missing or fails — so nothing is copied until a caller
    copies it.
    """

    def __init__(
        self,
        buffer: Any,
        layout: IndexLayout,
        *,
        path: Path | None = None,
        generation: tuple[int, int, int] | None = None,
        mapped: bool = False,
    ) -> None:
        self.buffer = buffer
        self.layout = layout
        self.path = path
        #: ``(st_ino, st_size, st_mtime_ns)`` of the file when opened.
        self.generation = generation
        self.mapped = mapped
        with memoryview(buffer) as view:
            self.columns: dict[str, memoryview] = {
                spec.attribute: view[spec.offset : spec.end].cast(spec.typecode)
                for spec in layout.columns.values()
            }
        self._offsets: tuple[list[int], ...] | None = None

    def verify(self, *, release: bool = False) -> None:
        """Check the trailing SHA-256 and the column cross-checks: one full
        pass, which :func:`build_index` makes before every carry-over and
        the loaders (:meth:`repro.dataset.query.MappedIndex.verify`) before
        reading a shard.  The checksum and the id bounds read the file in
        :meth:`chunks`; ``release`` drops the mapping's pages after each.

        Raises:
            SnapshotIndexError: checksum mismatch, section lengths that
                disagree with the per-row counts, interned ids outside the
                string tables, or an unsorted timestamp column.
        """
        # Views are released before raising, so a caller can still close an
        # mmap buffer on its error path.
        digest = hashlib.sha256()
        for chunk in self.chunks(0, self.layout.payload_length, release=release):
            digest.update(chunk)
        with memoryview(self.buffer) as view:
            with view[self.layout.payload_length :] as trailer:
                recorded = bytes(trailer)
        if digest.digest() != recorded:
            raise SnapshotIndexError(f"index {self.path or 'index'} fails its checksum")
        columns = self.columns
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
        names = len(self.layout.names)
        labels = len(self.layout.labels)
        for attribute, bound in (
            ("router_ids", names),
            ("peering_ids", names),
            ("link_a_nodes", names),
            ("link_b_nodes", names),
            ("link_a_labels", labels),
            ("link_b_labels", labels),
        ):
            count = len(columns[attribute])
            if any(
                max(ids) >= bound
                for ids in self.column_chunks(attribute, 0, count, release=release)
            ):
                raise SnapshotIndexError("interned id out of table bounds")
        if any(b < a for a, b in zip(timestamps, timestamps[1:])):
            raise SnapshotIndexError("timestamp column is not sorted")

    def chunks(self, start: int, end: int, *, release: bool = False) -> Iterator[memoryview]:
        """The file's bytes ``[start, end)`` as views of at most
        ``_CHUNK_BYTES``.  With ``release``, a mapping drops its resident
        pages (``MADV_DONTNEED``, where ``mmap`` has it) each time the
        caller asks for the next chunk, so a pass over the file keeps about
        one chunk resident; a page read again faults back from the page
        cache.  The whole mapping is released, not just the chunk: a fault
        also maps the chunk's neighbours.
        """
        with memoryview(self.buffer) as view:
            for offset in range(start, end, _CHUNK_BYTES):
                with view[offset : min(end, offset + _CHUNK_BYTES)] as chunk:
                    yield chunk
                if release and self.mapped and _DONTNEED is not None:
                    with suppress(OSError):  # advice only
                        self.buffer.madvise(_DONTNEED)

    def column_chunks(
        self, attribute: str, start: int, end: int, *, release: bool = False
    ) -> Iterator[memoryview]:
        """Elements ``[start, end)`` of one column as typed :meth:`chunks`."""
        spec = self.layout.columns[attribute]
        offset, size = spec.offset, spec.itemsize
        for chunk in self.chunks(offset + start * size, offset + end * size, release=release):
            with chunk.cast(spec.typecode) as typed:
                yield typed

    def row_bounds(self, row: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """One row's starts and ends in the router, peering and link columns."""
        if self._offsets is None:
            self._offsets = tuple(
                [0, *accumulate(self.columns[attribute])]
                for attribute in ("router_counts", "peering_counts", "link_counts")
            )
        return tuple(o[row] for o in self._offsets), tuple(o[row + 1] for o in self._offsets)

    def close(self) -> None:
        """Release the column views and close the mapping.

        A mapping that other views (numpy's, say) still export stays
        alive until they are garbage collected, so closing is always safe.
        """
        for column in self.columns.values():
            column.release()
        self.columns = {}
        self._offsets = None
        buffer, self.buffer = self.buffer, None
        if self.mapped and buffer is not None:
            try:
                buffer.close()
            except BufferError:
                pass


def open_index(path: Path, map_name: MapName) -> IndexFile:
    """Open one of ``map_name``'s ``index.bin`` files, if it can be trusted.

    The one opener of built index files: :func:`build_index` carries a
    previous generation's rows over from it, and
    :meth:`repro.dataset.query.MappedIndex.open` lays numpy views over
    it.  The file is mapped (one buffered read where ``mmap`` is missing
    or fails) and its layout parsed; it is trusted only in this host's
    byte order — its columns are viewed in place — for ``map_name`` and
    at the current ``PARSER_VERSION``.  The columns are not read here;
    :meth:`IndexFile.verify` is the full pass.

    Raises:
        SnapshotIndexError: unreadable file, malformed layout, or a file
            the trust rule refuses (an :class:`IndexSkewError`); any of
            these means "rebuild from the twins".
    """
    buffer: Any
    try:
        with path.open("rb") as handle:
            stat = os.fstat(handle.fileno())
            mapped = False
            if _mmap is not None and stat.st_size > 0:
                try:
                    buffer = _mmap.mmap(handle.fileno(), 0, access=_mmap.ACCESS_READ)
                    mapped = True
                except (OSError, ValueError, OverflowError):
                    buffer = handle.read()
            else:
                buffer = handle.read()
    except OSError as exc:
        raise SnapshotIndexError(f"cannot read index {path}: {exc}") from exc
    try:
        layout = parse_index_layout(buffer, source=str(path))
        found = (layout.byteorder, layout.map_name, layout.parser_version)
        if found != (sys.byteorder, map_name, PARSER_VERSION):
            raise IndexSkewError(
                f"index {path} is {layout.byteorder}-endian {layout.map_name.value} "
                f"parser v{layout.parser_version}, not {sys.byteorder}-endian "
                f"{map_name.value} parser v{PARSER_VERSION}: rebuild it on this host"
            )
    except SnapshotIndexError:
        if mapped:
            buffer.close()
        raise
    return IndexFile(
        buffer,
        layout,
        path=path,
        generation=(stat.st_ino, stat.st_size, stat.st_mtime_ns),
        mapped=mapped,
    )


def _when(epoch: int) -> datetime:
    """Inverse of :func:`_epoch`, always UTC-aware."""
    return datetime.fromtimestamp(epoch, tz=timezone.utc)


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
    """One map's snapshot series in columnar, interned form.

    The index :func:`build_index` returns holds every row's per-row
    columns but only the elements of the rows it decoded: a carried row's
    went from the previous file straight into the new one.
    """

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

    def __init__(self, map_name: MapName) -> None:
        self.map_name = map_name
        self.parser_version = PARSER_VERSION
        self.names: list[str] = []
        self.labels: list[str] = []
        #: Unreadable sources by epoch second, part of the indexed universe.
        self.skipped: dict[int, SkippedSource] = {}
        for attribute, typecode in _COLUMNS:
            setattr(self, attribute, array(typecode))
        self._name_ids: dict[str, int] = {}
        self._label_ids: dict[str, int] = {}

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

    def adopt_tables(self, other: IndexLayout) -> None:
        """Take a built file's string tables (prefix-compatible ids).

        Required before carrying the file's rows over, so their ids stay
        valid verbatim; only callable on an empty index.
        """
        if len(self) or self.names or self.labels:
            raise SnapshotIndexError("can only adopt tables into an empty index")
        self.names = list(other.names)
        self.labels = list(other.labels)
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._label_ids = {label: i for i, label in enumerate(self.labels)}

    def append_snapshot(self, snapshot: MapSnapshot, size: int, mtime_ns: int) -> None:
        """Intern and append one parsed snapshot (rows stay in time order).

        Nodes go in the order its YAML twin lists them — routers, then
        peerings, each sorted by name — so this object path and
        ``_TwinDecoder`` give a twin the same row and intern its names in
        the same order.
        """
        self.timestamps.append(_epoch(snapshot.timestamp))
        self.source_sizes.append(size)
        self.source_mtimes.append(mtime_ns)
        routers = sorted(
            name for name, node in snapshot.nodes.items() if node.kind is NodeKind.ROUTER
        )
        peerings = sorted(
            name for name, node in snapshot.nodes.items() if node.kind is not NodeKind.ROUTER
        )
        self.router_ids.extend(map(self._intern_name, routers))
        self.peering_ids.extend(map(self._intern_name, peerings))
        self.router_counts.append(len(routers))
        self.peering_counts.append(len(peerings))
        self.link_counts.append(len(snapshot.links))
        for link in snapshot.links:
            self.link_a_nodes.append(self._intern_name(link.a.node))
            self.link_a_labels.append(self._intern_label(link.a.label))
            self.link_b_nodes.append(self._intern_name(link.b.node))
            self.link_b_labels.append(self._intern_label(link.b.label))
            self.link_a_loads.append(link.a.load)
            self.link_b_loads.append(link.b.load)

    def _mark(self) -> tuple[int, ...]:
        """The string tables' and columns' lengths, for :meth:`_rewind`."""
        return (
            len(self.names),
            len(self.labels),
            *(len(getattr(self, attribute)) for attribute, _ in _COLUMNS),
        )

    def _rewind(self, mark: tuple[int, ...]) -> bool:
        """Cut the tables and columns back to ``mark``; whether a string went."""
        names, labels, *lengths = mark
        for (attribute, _), length in zip(_COLUMNS, lengths):
            del getattr(self, attribute)[length:]
        if len(self.names) == names and len(self.labels) == labels:
            return False
        for name in self.names[names:]:
            del self._name_ids[name]
        for label in self.labels[labels:]:
            del self._label_ids[label]
        del self.names[names:]
        del self.labels[labels:]
        return True

    # -- reading -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.timestamps)

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
        return self._write(path, [(None, (0, 0, 0), self._section_ends())])

    def _section_ends(self) -> tuple[int, int, int]:
        """The router, peering and link element columns' lengths."""
        return len(self.router_ids), len(self.peering_ids), len(self.link_a_nodes)

    def _write(self, path: Path, runs: Sequence[_Run]) -> int:
        """Write this index's rows atomically: the per-row columns from the
        heap, each section's elements from ``runs`` in order.  A run is
        ``(source, starts, ends)``, the router, peering and link elements'
        ``[start, end)`` in ``source``'s columns, ``None`` meaning this
        index's own.  A built file's spans are read in chunks whose pages
        are released once written and hashed."""
        spans = {
            attribute: [(source, starts[section], ends[section]) for source, starts, ends in runs]
            for attribute, section in _SECTIONS.items()
        }
        counts = {
            attribute: sum(end - start for _, start, end in spans[attribute])
            if attribute in spans else len(self)
            for attribute, _ in _COLUMNS
        }
        header = {
            "map": self.map_name.value,
            "parser_version": self.parser_version,
            "byteorder": sys.byteorder,
            "names": self.names,
            "labels": self.labels,
            "counts": counts,
            "skipped": [
                [epoch, entry.size, entry.mtime_ns, entry.message]
                for epoch, entry in sorted(self.skipped.items())
            ],
            "fingerprint": self.source_fingerprint(),
        }
        header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")

        def columns() -> Iterator[bytes | memoryview]:
            # Byte views of the arrays and the file: the payload is never copied.
            for attribute, _ in _COLUMNS:
                column = getattr(self, attribute)
                for source, start, end in spans.get(attribute, [(None, 0, len(self))]):
                    if source is None:
                        yield memoryview(column)[start:end]
                    else:
                        yield from source.column_chunks(attribute, start, end, release=True)

        def pieces() -> Iterator[bytes | memoryview]:
            digest = hashlib.sha256()
            prefix = _PREFIX.pack(INDEX_MAGIC, INDEX_FORMAT_VERSION, len(header_bytes))
            for piece in chain([prefix, header_bytes], columns()):
                digest.update(piece)
                yield piece
            yield digest.digest()

        # Write-aside + fsync + replace: a mid-write kill leaves either the
        # previous index generation or the new one, never a truncated file.
        return atomic_write_bytes(path, pieces())


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


class _TwinDecoder:
    """Decodes YAML twins straight into one build's columns.

    The object path (``try_read_snapshot``, then
    :meth:`SnapshotIndex.append_snapshot`) builds a
    :class:`~repro.topology.model.MapSnapshot` only to flatten it back
    into ids and doubles.  This reads a twin with the fast reader's
    grammar (:func:`repro.yamlio.deserialize.read_layout`) and appends its
    row directly, holding it to the rules the object path applies:

    * a known map name, and a timestamp ``datetime.fromisoformat`` takes;
    * no name that is both a router and a peering;
    * link ends that name a node of the twin, are not empty and are not
      both the same node;
    * loads in [0, 100].

    Each distinct token is checked once per build: a link end's or
    label's token is cached with its interned id, a load's with its
    float.  The caches are cleared past
    :data:`~repro.yamlio.deserialize._CACHE_LIMIT` entries.  A twin
    outside the layout or the rules is handed back (:meth:`append`
    returns ``False``) with the index as it was, string tables included;
    the caller then reads it the object way, which owns every error
    type and message.  Rows and tables come out as the object path's:
    routers, then peerings, each sorted, then each link's labels.
    """

    def __init__(self, index: SnapshotIndex) -> None:
        from repro.yamlio import deserialize

        self._reader = deserialize
        self._index = index
        self._nodes: dict[str, int] = {}
        self._labels: dict[str, int] = {}
        self._loads: dict[str, float] = {}
        registry = get_registry()
        self._docs = registry.counter("repro_yaml_docs_total", "YAML documents by operation")
        self._fast_path = registry.counter(
            "repro_yaml_fast_path_total",
            "YAML documents the fast reader built (hit) or left to yaml.load (fallback)",
        )

    def append(self, path: Path, epoch: int, size: int, mtime_ns: int) -> bool:
        """Append the twin at ``path`` as a row, or leave the index as it was.

        Raises:
            SchemaError: the file is not UTF-8 (``read_twin``).
        """
        text = self._reader.read_twin(path)
        index = self._index
        mark = index._mark()
        if self._append(text, epoch, size, mtime_ns):
            self._fast_path.inc(1, outcome="hit")
            self._docs.inc(1, op="deserialize")
            return True
        if index._rewind(mark):
            # Cached ids may name strings the rewind just dropped.
            self._nodes.clear()
            self._labels.clear()
        return False

    def _cached(self, cache: dict, token: str, value: Any) -> Any:
        if value is not None:
            if len(cache) > self._reader._CACHE_LIMIT:
                cache.clear()
            cache[token] = value
        return value

    def _node_id(self, token: str) -> int | None:
        """A link end's name id, if it names a node already interned."""
        name = self._reader.scalar_value(token)
        node_id = self._index._name_ids.get(name) if name else None
        return self._cached(self._nodes, token, node_id)

    def _label_id(self, token: str) -> int | None:
        label = self._reader.scalar_value(token)
        label_id = None if label is None else self._index._intern_label(label)
        return self._cached(self._labels, token, label_id)

    def _load(self, token: str) -> float | None:
        load = self._reader.load_value(token)
        in_range = load is not None and LOAD_MIN <= load <= LOAD_MAX
        return self._cached(self._loads, token, load if in_range else None)

    def _learn(self, tokens: tuple[str, ...]) -> tuple | None:
        """One link's ids and loads from its tokens, caching each; ``None``
        if a token breaks a rule."""
        fills = (self._node_id, self._label_id, self._load) * 2
        ends = tuple(fill(token) for fill, token in zip(fills, tokens))
        return None if None in ends else ends

    def _names(self, tokens: list[str]) -> set[str] | None:
        names = set(map(self._reader.scalar_value, tokens))
        return None if None in names else names

    def _append(self, text: str, epoch: int, size: int, mtime_ns: int) -> bool:
        reader = self._reader
        layout = reader.read_layout(text)
        if layout is None:
            return False
        map_token, timestamp_token, router_tokens, peering_tokens, links = layout
        try:
            MapName(reader.scalar_value(map_token))
            datetime.fromisoformat(reader.scalar_value(timestamp_token) or "")
        except ValueError:
            return False
        routers = self._names(router_tokens)
        peerings = self._names(peering_tokens)
        if routers is None or peerings is None or not routers.isdisjoint(peerings):
            return False

        index = self._index
        router_ids = [index._intern_name(name) for name in sorted(routers)]
        peering_ids = [index._intern_name(name) for name in sorted(peerings)]
        members = {*router_ids, *peering_ids}
        nodes, labels, loads = self._nodes, self._labels, self._loads
        a_nodes, a_labels, a_loads = index.link_a_nodes, index.link_a_labels, index.link_a_loads
        b_nodes, b_labels, b_loads = index.link_b_nodes, index.link_b_labels, index.link_b_loads
        first = len(a_nodes)
        for tokens in links:
            if tokens is None:
                return False
            a_node, a_label, a_load, b_node, b_label, b_load = tokens
            try:
                a, a_label_id, a_value = nodes[a_node], labels[a_label], loads[a_load]
                b, b_label_id, b_value = nodes[b_node], labels[b_label], loads[b_load]
            except KeyError:
                ends = self._learn(tokens)
                if ends is None:
                    return False
                a, a_label_id, a_value, b, b_label_id, b_value = ends
            if a == b or a not in members or b not in members:
                return False
            a_nodes.append(a)
            a_labels.append(a_label_id)
            a_loads.append(a_value)
            b_nodes.append(b)
            b_labels.append(b_label_id)
            b_loads.append(b_value)
        index.timestamps.append(epoch)
        index.source_sizes.append(size)
        index.source_mtimes.append(mtime_ns)
        index.router_counts.append(len(router_ids))
        index.peering_counts.append(len(peering_ids))
        index.link_counts.append(len(a_nodes) - first)
        index.router_ids.extend(router_ids)
        index.peering_ids.extend(peering_ids)
        return True


def build_index(
    map_name: MapName,
    refs: Sequence[SnapshotRef],
    index_path: Path,
    rebuild: bool = False,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None = None,
) -> tuple[SnapshotIndex, IndexBuildStats]:
    """Build or refresh the columnar index of ``refs`` at ``index_path``.

    Incremental by default: rows whose source file is unchanged (same
    ``size`` and ``mtime_ns``) are carried over from the existing index,
    opened and verified through :func:`open_index`, without touching the
    YAML; new and modified files are decoded in time order, straight into
    the new index's columns (``_TwinDecoder``); rows whose source vanished
    are dropped.  Carried rows are never copied into the heap: each run of
    them is written as slices of the previous file's columns, a chunk at a
    time, so the build holds the per-row columns, the decoded rows and
    about one chunk of the mapping.  An existing index :func:`open_index`
    refuses — damaged, foreign-endian, another map's or another
    ``PARSER_VERSION``'s — is ignored and every twin read, so the bytes
    written are those of ``rebuild=True``.  The build runs in the calling
    process: shard compaction fans out by shard, one build per pool task.

    Args:
        refs: the source universe to index, in time order; shard
            compaction passes one shard's YAML refs.
        index_path: where to load the previous generation from and save
            the result; shard compaction passes the per-shard path.
        rebuild: ignore any existing index and read everything.
        on_error: called, in time order, for unreadable YAML files, which
            are recorded as skipped sources; without a handler, schema
            errors propagate.

    Returns:
        The saved index — every row's per-row columns, the string tables
        and the decoded rows' elements; a carried row's elements stay in
        the file — and the build accounting.
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
    previous: IndexFile | None = None
    if not rebuild and index_path.exists():
        # The previous generation, carried over from its mapping.
        try:
            with registry.span(
                "repro_index_load", "Columnar index file load wall time",
                map=map_name.value,
            ):
                previous = open_index(index_path, map_name)
                previous.verify(release=True)
        except IndexSkewError as exc:
            logger.info("re-decoding %s from its twins: %s", map_name.value, exc)
        except SnapshotIndexError as exc:
            logger.warning("ignoring unusable snapshot index: %s", exc)
            if previous is not None:
                previous.close()
                previous = None

    stats = IndexBuildStats(map_name=map_name)
    index = SnapshotIndex(map_name)
    previous_rows: dict[int, int] = {}
    if previous is not None:
        index.adopt_tables(previous.layout)
        previous_rows = {
            epoch: row for row, epoch in enumerate(previous.columns["timestamps"])
        }
    # The new generation's element spans in row order: a carried row's stay
    # in the mapping, a decoded row's go into ``index`` (source ``None``).
    runs: list[_Run] = []

    def extend(source: IndexFile | None, starts: Sequence[int], ends: Sequence[int]) -> None:
        if runs and runs[-1][0] is source and runs[-1][2] == starts:
            runs[-1] = (source, runs[-1][1], ends)  # the row continues the run
        else:
            runs.append((source, starts, ends))

    # One pass in ref (time) order: reuse an unchanged row, or read the file.
    decoder: _TwinDecoder | None = None
    try:
        for ref in refs:
            try:
                stat = ref.path.stat()
            except OSError:
                continue  # raced with deletion; the index simply omits it
            key = _epoch(ref.timestamp)
            size, mtime_ns = stat.st_size, stat.st_mtime_ns
            row = previous_rows.get(key)
            if row is not None and previous is not None and (
                previous.columns["source_sizes"][row] == size
                and previous.columns["source_mtimes"][row] == mtime_ns
            ):
                for attribute in _ROW_COLUMNS:
                    getattr(index, attribute).append(previous.columns[attribute][row])
                extend(previous, *previous.row_bounds(row))
                stats.reused += 1
                continue
            skip = previous.layout.skipped.get(key) if previous is not None else None
            if skip is not None and skip.size == size and skip.mtime_ns == mtime_ns:
                index.skipped[key] = skip
                stats.unreadable += 1
                continue
            if decoder is None:
                from repro.yamlio import deserialize

                decoder = _TwinDecoder(index)
            starts = index._section_ends()
            try:
                decoded = decoder.append(ref.path, key, size, mtime_ns)
            except SchemaError as exc:
                snapshot, message = None, str(exc)
            else:
                if decoded:
                    extend(None, starts, index._section_ends())
                    stats.parsed += 1
                    continue
                snapshot, message = deserialize.try_read_snapshot(ref.path)
            if snapshot is None:
                exc = SchemaError(message)
                if on_error is None:
                    raise exc
                on_error(ref, exc)
                index.skipped[key] = SkippedSource(size=size, mtime_ns=mtime_ns, message=message)
                stats.unreadable += 1
                continue
            # The file name's stamp is authoritative over the document's own.
            snapshot.timestamp = _when(key)
            index.append_snapshot(snapshot, size, mtime_ns)
            extend(None, starts, index._section_ends())
            stats.parsed += 1
        stats.removed = max(0, len(previous_rows) - stats.reused)
        stats.bytes_written = index._write(index_path, runs)
    finally:
        if previous is not None:
            # Unmapped once the new generation, streamed partly out of it,
            # has replaced the file.
            previous.close()
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
