"""Zero-copy ``mmap`` query engine over the columnar snapshot index.

:mod:`repro.dataset.index` removed YAML parsing from the read path; this
module removes *object construction*.  The paper's whole-series analyses
(load distributions, ECMP imbalance, lifetimes, evolution) reduce to
column scans, yet serving them through ``load_all`` materialises one
``MapSnapshot`` — dict, ``Node`` and ``Link`` objects included — per
row, which dominates at 542k snapshots / 227.93 GiB.  Here the index
file is memory-mapped and each column is exposed *in place* (the
loaders rebuild their snapshots from these same views):

* the mapping is **shared and read-only** — many worker processes scan
  one page cache copy of ``index.bin`` with no per-process heaps, the
  design that makes an HTTP serving layer cheap under fan-out;
* every column is a **zero-copy** numpy ``frombuffer`` view over the
  mapping;
* the small **scan planner** does predicate pushdown: time ranges bind
  to a row window by bisecting the timestamp column, node / link
  identity filters compare interned ids, and load thresholds compare
  the flat double columns — no snapshot is ever constructed.

Lifecycle: :func:`repro.dataset.index.build_index` replaces the file
atomically (write-aside, then rename), so an open :class:`MappedIndex`
keeps serving its *generation* even while a newer one lands on disk —
the mapped inode stays alive until the engine is closed.
:meth:`MappedIndex.check_generation` detects the supersession and raises
:class:`~repro.errors.StaleIndexError` so long-lived readers know to
reopen.  On hosts where ``mmap`` is missing or fails the same engine
runs over one plain buffered read of the file.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Any, Iterator

import numpy

from repro.constants import MapName
from repro.dataset.index import IndexFile, _epoch, open_index
from repro.errors import QueryError, SnapshotIndexError, StaleIndexError
from repro.telemetry import get_registry

__all__ = [
    "ColumnBatch",
    "LinkRecord",
    "MappedIndex",
    "ScanPredicate",
    "ScanResult",
]

@dataclass(frozen=True, slots=True)
class ScanPredicate:
    """What a scan should keep, evaluated directly on the flat columns.

    A link row matches when **all** of the set filters hold:

    * its snapshot timestamp lies in ``[start, end)``;
    * ``node`` (if set) names either endpoint;
    * ``link`` (if set) names both endpoints, in either orientation;
    * ``max(load_a, load_b)`` is ``>= min_load`` and ``<= max_load``
      (each bound only when set) — the threshold applies to the link's
      busier direction, the quantity the congestion analyses rank by.

    Names that were never interned simply match nothing: scanning for an
    unknown router returns an empty result, not an error.
    """

    start: datetime | None = None
    end: datetime | None = None
    node: str | None = None
    link: tuple[str, str] | None = None
    min_load: float | None = None
    max_load: float | None = None

    def __post_init__(self) -> None:
        if self.start is not None and self.end is not None and self.end < self.start:
            raise QueryError(
                f"scan window ends ({self.end.isoformat()}) before it "
                f"starts ({self.start.isoformat()})"
            )
        if self.node is not None and not self.node:
            raise QueryError("node filter must be a non-empty name")
        if self.link is not None:
            if len(self.link) != 2 or not self.link[0] or not self.link[1]:
                raise QueryError(
                    f"link filter must name two endpoints, got {self.link!r}"
                )
        for bound_name in ("min_load", "max_load"):
            bound = getattr(self, bound_name)
            if bound is not None and not 0.0 <= bound <= 100.0:
                raise QueryError(
                    f"{bound_name} must lie in [0, 100], got {bound!r}"
                )
        if (
            self.min_load is not None
            and self.max_load is not None
            and self.max_load < self.min_load
        ):
            raise QueryError(
                f"max_load {self.max_load} is below min_load {self.min_load}"
            )

    @property
    def filters_links(self) -> bool:
        """Whether any per-link filter is set (beyond the time window)."""
        return (
            self.node is not None
            or self.link is not None
            or self.min_load is not None
            or self.max_load is not None
        )


@dataclass(frozen=True)
class ColumnBatch:
    """One aligned chunk of scan matches, column by column.

    Every field has one element per matching link occurrence.  Node and
    label fields carry *interned ids* — resolve them through the
    engine's ``names`` / ``labels`` tables only where strings are
    actually needed; the whole point of the batch form is that most
    consumers (histograms, thresholds, matrices) never do.
    """

    rows: Any  #: snapshot row per match
    timestamps: Any  #: epoch seconds per match
    a_nodes: Any
    a_labels: Any
    a_loads: Any
    b_nodes: Any
    b_labels: Any
    b_loads: Any

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True, slots=True)
class LinkRecord:
    """One scan match resolved to strings — the CLI/report form.

    Constructing these is the only materialising accessor on a scan
    result; the batch/column accessors stay zero-copy.
    """

    timestamp: datetime
    node_a: str
    label_a: str
    load_a: float
    node_b: str
    label_b: str
    load_b: float


class MappedIndex:
    """One map's ``index.bin`` served as zero-copy column views.

    The reader of built index files: the server's scans, the vectorised
    accessors in :mod:`repro.analysis.columnar` and the loaders' snapshot
    reconstruction all run over it.  It lays numpy views over an
    :class:`~repro.dataset.index.IndexFile`'s buffer; columns carry the
    same attribute names as the builder,
    :class:`~repro.dataset.index.SnapshotIndex`.
    """

    timestamps: Any
    source_sizes: Any
    source_mtimes: Any
    router_counts: Any
    peering_counts: Any
    link_counts: Any
    router_ids: Any
    peering_ids: Any
    link_a_nodes: Any
    link_a_labels: Any
    link_b_nodes: Any
    link_b_labels: Any
    link_a_loads: Any
    link_b_loads: Any

    def __init__(self, file: IndexFile) -> None:
        self._file = file
        layout = file.layout
        self.path = file.path
        self.generation = file.generation
        self.mapped = file.mapped
        self.map_name = layout.map_name
        self.parser_version = layout.parser_version
        self.names = layout.names
        self.labels = layout.labels
        self.skipped = layout.skipped
        self.fingerprint = layout.fingerprint
        self.closed = False
        self._name_ids: dict[str, int] | None = None
        self._link_offsets: Any = None
        for attribute, spec in layout.columns.items():
            setattr(
                self,
                attribute,
                numpy.frombuffer(
                    file.buffer,
                    dtype=numpy.dtype(spec.typecode),
                    count=spec.count,
                    offset=spec.offset,
                ),
            )

    # -- opening -----------------------------------------------------------

    @classmethod
    def open(cls, path: Path, map_name: MapName) -> "MappedIndex":
        """Open one of ``map_name``'s ``index.bin`` files as an engine.

        The file comes through :func:`repro.dataset.index.open_index`,
        which maps it (or, without a working ``mmap``, reads it once) and
        trusts only this host's byte order, ``map_name`` and the current
        parser version; the engine behaves identically over a mapping or
        a read.  :meth:`verify` is the full pass over the columns.

        Raises:
            SnapshotIndexError: unreadable file, malformed layout, or one
                the trust rule refuses.
        """
        file = open_index(path, map_name)
        get_registry().counter(
            "repro_query_opens_total",
            "Query-engine opens by data source (mmap vs buffered read)",
        ).inc(
            1,
            map=map_name.value,
            source="mmap" if file.mapped else "buffered",
        )
        return cls(file)

    def verify(self) -> None:
        """Check the trailing SHA-256 and the column cross-checks.

        One full pass over the file, so :meth:`open` leaves it to the
        caller: the loaders verify every shard they read before
        returning a snapshot from it, while the server, whose scans
        touch only the pages they need, never does.

        Raises:
            SnapshotIndexError: checksum mismatch or inconsistent
                columns (see :meth:`repro.dataset.index.IndexFile.verify`).
        """
        self._require_open()
        self._file.verify()

    def close(self) -> None:
        """Drop the column views and close the mapping.

        Views handed out by earlier scans may still reference the
        mapping; the OS keeps the pages alive until those are garbage
        collected, so closing is always safe — it just stops *new*
        scans.
        """
        if self.closed:
            return
        self.closed = True
        for attribute in self._file.layout.columns:
            setattr(self, attribute, None)
        self._link_offsets = None
        self._file.close()

    def __enter__(self) -> "MappedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- freshness / generation --------------------------------------------

    def check_generation(self) -> None:
        """Raise if the on-disk ``index.bin`` superseded this mapping.

        An incremental build replaces the file atomically; this engine
        keeps serving its own generation regardless (the mapped inode
        survives the rename), but long-lived readers poll this to know
        when to reopen.

        Raises:
            StaleIndexError: the file was replaced or removed.
            QueryError: the engine was opened from a buffer, not a path.
        """
        if self.path is None or self.generation is None:
            raise QueryError("this engine was not opened from a file path")
        try:
            stat = self.path.stat()
        except OSError as exc:
            raise StaleIndexError(
                f"index {self.path} vanished after being mapped: {exc}"
            ) from exc
        current = (stat.st_ino, stat.st_size, stat.st_mtime_ns)
        if current != self.generation:
            raise StaleIndexError(
                f"index {self.path} was rebuilt since this mapping was "
                f"opened; reopen to serve the new generation"
            )

    # -- column geometry ----------------------------------------------------

    def __len__(self) -> int:
        self._require_open()
        return len(self.timestamps)

    def _require_open(self) -> None:
        if self.closed:
            raise QueryError("query engine is closed")

    def rows_in_window(
        self, start: datetime | None = None, end: datetime | None = None
    ) -> range:
        """Row indices whose timestamps fall inside ``[start, end)``."""
        self._require_open()
        lo = 0 if start is None else bisect_left(self.timestamps, _epoch(start))
        hi = (
            len(self.timestamps)
            if end is None
            else bisect_left(self.timestamps, _epoch(end))
        )
        return range(lo, hi)

    def timestamp_at(self, row: int) -> datetime:
        """The snapshot timestamp of one row (UTC-aware)."""
        from datetime import timezone

        self._require_open()
        return datetime.fromtimestamp(int(self.timestamps[row]), tz=timezone.utc)

    def link_offsets(self) -> Any:
        """Prefix sums of ``link_counts``: row → first link element."""
        self._require_open()
        if self._link_offsets is None:
            self._link_offsets = numpy.concatenate(
                (
                    numpy.zeros(1, dtype=numpy.int64),
                    numpy.cumsum(self.link_counts, dtype=numpy.int64),
                )
            )
        return self._link_offsets

    def link_slice(self, rows: range) -> tuple[int, int]:
        """The link-element slice covering a contiguous row window."""
        offsets = self.link_offsets()
        return int(offsets[rows.start]), int(offsets[rows.stop])

    def name_id(self, name: str) -> int | None:
        """Interned id of a node name, ``None`` when never observed."""
        self._require_open()
        if self._name_ids is None:
            self._name_ids = {value: i for i, value in enumerate(self.names)}
        return self._name_ids.get(name)

    # -- scanning -----------------------------------------------------------

    def scan(self, predicate: ScanPredicate | None = None) -> "ScanResult":
        """Run one predicate-pushdown scan over the mapped columns.

        Time bounds bisect the timestamp column down to a row window,
        the window binds a contiguous link-element slice through the
        prefix offsets, and the per-link filters reduce that slice to
        the matching elements with vectorised boolean masks.
        """
        self._require_open()
        if predicate is None:
            predicate = ScanPredicate()
        registry = get_registry()
        with registry.span(
            "repro_query_scan",
            "Predicate-pushdown scan wall time",
            map=self.map_name.value,
        ):
            rows = self.rows_in_window(predicate.start, predicate.end)
            lo, hi = self.link_slice(rows)
            selected: Any
            if not predicate.filters_links:
                selected = range(lo, hi)
            else:
                selected = self._select(predicate, lo, hi)
        registry.counter(
            "repro_query_scans_total", "Scans executed by the query engine"
        ).inc(1, map=self.map_name.value)
        registry.counter(
            "repro_query_rows_scanned_total",
            "Snapshot rows covered by query-engine scans",
        ).inc(len(rows), map=self.map_name.value)
        registry.counter(
            "repro_query_links_matched_total",
            "Link occurrences matched by query-engine scans",
        ).inc(len(selected), map=self.map_name.value)
        return ScanResult(
            index=self, predicate=predicate, rows=rows, lo=lo, hi=hi,
            selected=selected,
        )

    def _select(self, predicate: ScanPredicate, lo: int, hi: int) -> Any:
        a_nodes = self.link_a_nodes[lo:hi]
        b_nodes = self.link_b_nodes[lo:hi]
        mask = numpy.ones(hi - lo, dtype=bool)
        if predicate.node is not None:
            node_id = self.name_id(predicate.node)
            if node_id is None:
                return numpy.empty(0, dtype=numpy.int64)
            mask &= (a_nodes == node_id) | (b_nodes == node_id)
        if predicate.link is not None:
            first = self.name_id(predicate.link[0])
            second = self.name_id(predicate.link[1])
            if first is None or second is None:
                return numpy.empty(0, dtype=numpy.int64)
            mask &= ((a_nodes == first) & (b_nodes == second)) | (
                (a_nodes == second) & (b_nodes == first)
            )
        if predicate.min_load is not None or predicate.max_load is not None:
            peak = numpy.maximum(self.link_a_loads[lo:hi], self.link_b_loads[lo:hi])
            if predicate.min_load is not None:
                mask &= peak >= predicate.min_load
            if predicate.max_load is not None:
                mask &= peak <= predicate.max_load
        return numpy.flatnonzero(mask).astype(numpy.int64) + lo


@dataclass(frozen=True)
class ScanResult:
    """The outcome of one scan: which rows and link elements matched.

    ``selected`` holds absolute link-element indices (a ``range`` when
    no per-link filter applied — the whole-window fast path).  The
    accessors below resolve them against the engine's columns; none of
    them reconstructs a snapshot.
    """

    index: MappedIndex
    predicate: ScanPredicate
    rows: range  #: snapshot rows inside the time window
    lo: int  #: first link element of the window
    hi: int  #: one past the last link element of the window
    selected: Any  #: matching link-element indices, ascending

    def __len__(self) -> int:
        return len(self.selected)

    @property
    def snapshot_count(self) -> int:
        """Snapshot rows the scan covered (matched or not)."""
        return len(self.rows)

    def row_of(self, element: int) -> int:
        """The snapshot row one absolute link element belongs to."""
        offsets = self.index.link_offsets()
        return int(numpy.searchsorted(offsets, element, side="right")) - 1

    def batches(self, size: int = 65536) -> Iterator[ColumnBatch]:
        """The matches as aligned column chunks of at most ``size``.

        With no per-link filter the chunks are pure slices of the
        mapped columns — zero-copy end to end; filtered scans gather
        the selected elements (the result set is what gets copied,
        never the corpus).
        """
        if size < 1:
            raise QueryError(f"batch size must be >= 1, got {size}")
        engine = self.index
        engine._require_open()
        selected = self.selected
        for begin in range(0, len(selected), size):
            chunk = selected[begin : begin + size]
            yield self._batch_for(chunk)

    def _batch_for(self, chunk: Any) -> ColumnBatch:
        engine = self.index
        gather: Any = chunk
        elements = chunk
        if isinstance(chunk, range):
            gather = slice(chunk.start, chunk.stop)
            elements = numpy.arange(chunk.start, chunk.stop, dtype=numpy.int64)
        rows = numpy.searchsorted(engine.link_offsets(), elements, side="right") - 1
        return ColumnBatch(
            rows=rows,
            timestamps=engine.timestamps[rows] if len(rows) else rows,
            a_nodes=engine.link_a_nodes[gather],
            a_labels=engine.link_a_labels[gather],
            a_loads=engine.link_a_loads[gather],
            b_nodes=engine.link_b_nodes[gather],
            b_labels=engine.link_b_labels[gather],
            b_loads=engine.link_b_loads[gather],
        )

    def directed_loads(self) -> list[float]:
        """Every matching load sample, both directions interleaved.

        Order matches the object path exactly: link order, ``a`` before
        ``b`` — what :mod:`repro.analysis.loads` feeds its CDFs.
        """
        out: list[float] = []
        for batch in self.batches():
            a_loads = batch.a_loads
            b_loads = batch.b_loads
            for i in range(len(batch)):
                out.append(a_loads[i])
                out.append(b_loads[i])
        return out

    def records(self) -> Iterator[LinkRecord]:
        """The matches resolved to strings, in element order."""
        engine = self.index
        names = engine.names
        labels = engine.labels
        for batch in self.batches():
            for i in range(len(batch)):
                yield LinkRecord(
                    timestamp=engine.timestamp_at(int(batch.rows[i])),
                    node_a=names[int(batch.a_nodes[i])],
                    label_a=labels[int(batch.a_labels[i])],
                    load_a=float(batch.a_loads[i]),
                    node_b=names[int(batch.b_nodes[i])],
                    label_b=labels[int(batch.b_labels[i])],
                    load_b=float(batch.b_loads[i]),
                )

