"""Vectorised analyses straight over columnar snapshot indexes.

The Section 5 figures reduce a map's whole history to a handful of
aggregates: directed load distributions (Figures 5a/5b), per-link series,
and appearance/disappearance times behind the evolution narratives.  Once
a :class:`~repro.dataset.index.SnapshotIndex` exists, those aggregates
fall out of its flat columns with numpy — no ``MapSnapshot`` objects are
materialised, which is what makes a full-series figure pass cheap enough
to iterate on.

The accessors mirror their object-path equivalents exactly:
:func:`load_samples` returns the same
:class:`~repro.analysis.loads.LoadSamples` (element for element) that
``collect_load_samples(load_all(...))`` would, so every downstream
figure function works unchanged.

Every accessor takes a :data:`ColumnSource` — either an in-heap
:class:`~repro.dataset.index.SnapshotIndex` or the zero-copy
:class:`~repro.dataset.query.MappedIndex` engine.  The two expose the
same column attributes; over a mapped engine nothing here copies the
corpus, so whole-series figures run directly against the shared
``index.bin`` mapping.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Union

import numpy

from repro.analysis.imbalance import MINIMUM_ACTIVE_LOAD, ImbalanceResult
from repro.analysis.infrastructure import InfrastructureEvolution
from repro.analysis.loads import LoadSamples
from repro.analysis.timeseries import TimeSeries
from repro.dataset.index import SnapshotIndex
from repro.errors import AnalysisError, ColumnarCapacityError
from repro.topology.model import NodeKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.query import MappedIndex

#: Any columnar snapshot source: the in-heap index or the mmap engine.
ColumnSource = Union["SnapshotIndex", "MappedIndex"]

__all__ = [
    "ColumnSource",
    "DirectedLoadColumns",
    "LinkLifetime",
    "LoadMatrix",
    "NodeLifetime",
    "count_series",
    "directed_load_columns",
    "imbalance_samples",
    "link_lifetimes",
    "link_load_series",
    "load_matrix",
    "load_samples",
    "node_lifetimes",
]


def _column(raw, dtype) -> numpy.ndarray:
    """Zero-copy numpy view over one columnar source column.

    ``SnapshotIndex`` columns are ``array.array`` buffers, the mapped
    engine's are already numpy views; both reach numpy without copying.
    """
    if isinstance(raw, numpy.ndarray):
        return raw
    if len(raw) == 0:
        return numpy.empty(0, dtype=dtype)
    return numpy.frombuffer(raw, dtype=dtype)


def _rows_and_bounds(
    index: ColumnSource, start: datetime | None, end: datetime | None
) -> tuple[range, int, int]:
    """Selected snapshot rows plus their link-column slice bounds."""
    rows = index.rows_in_window(start, end)
    link_counts = _column(index.link_counts, numpy.uint32)
    offsets = numpy.concatenate(
        ([0], numpy.cumsum(link_counts, dtype=numpy.int64))
    )
    return rows, int(offsets[rows.start]), int(offsets[rows.stop])


def _link_row_of(index: ColumnSource) -> numpy.ndarray:
    """For every link column element, the snapshot row it belongs to."""
    counts = _column(index.link_counts, numpy.uint32).astype(numpy.int64)
    return numpy.repeat(numpy.arange(len(counts), dtype=numpy.int64), counts)


def _external_links(index: ColumnSource) -> numpy.ndarray:
    """Boolean per link column element: does it touch a peering?

    Fast path: when no name is ever used both as a router and as a
    peering (the invariable case — kinds follow the map's naming
    convention), peering-ness is a property of the name id and one table
    lookup vectorises the whole corpus.  Otherwise each snapshot's own
    peering membership decides, row by row.
    """
    a_nodes = _column(index.link_a_nodes, numpy.uint32)
    b_nodes = _column(index.link_b_nodes, numpy.uint32)
    as_router = numpy.zeros(len(index.names), dtype=bool)
    as_peering = numpy.zeros(len(index.names), dtype=bool)
    router_ids = _column(index.router_ids, numpy.uint32)
    peering_ids = _column(index.peering_ids, numpy.uint32)
    if len(router_ids):
        as_router[router_ids] = True
    if len(peering_ids):
        as_peering[peering_ids] = True
    if not bool(numpy.any(as_router & as_peering)):
        return as_peering[a_nodes] | as_peering[b_nodes]
    # Ambiguous names: fall back to per-snapshot membership.
    external = numpy.zeros(len(a_nodes), dtype=bool)
    link_offset = peering_offset = 0
    for row in range(len(index)):
        links = index.link_counts[row]
        peerings = index.peering_counts[row]
        members = peering_ids[peering_offset : peering_offset + peerings]
        segment = slice(link_offset, link_offset + links)
        external[segment] = numpy.isin(a_nodes[segment], members) | numpy.isin(
            b_nodes[segment], members
        )
        link_offset += links
        peering_offset += peerings
    return external


@dataclass(frozen=True)
class DirectedLoadColumns:
    """Every directed load sample of a window, as aligned flat arrays.

    Samples interleave each link's two directions (a→b then b→a) in link
    order — the same order the object path walks them.
    """

    loads: numpy.ndarray  #: float64, percent
    hours: numpy.ndarray  #: int64, UTC hour of day per sample
    weekdays: numpy.ndarray  #: int64, 0=Monday .. 6=Sunday
    external: numpy.ndarray  #: bool, link touches a peering
    snapshot_rows: numpy.ndarray  #: int64, index row per sample

    def __len__(self) -> int:
        return len(self.loads)


def directed_load_columns(
    index: ColumnSource,
    start: datetime | None = None,
    end: datetime | None = None,
) -> DirectedLoadColumns:
    """All directed load samples in ``[start, end)``, fully vectorised."""
    rows, lo, hi = _rows_and_bounds(index, start, end)
    span = hi - lo
    loads = numpy.empty(2 * span, dtype=numpy.float64)
    loads[0::2] = _column(index.link_a_loads, numpy.float64)[lo:hi]
    loads[1::2] = _column(index.link_b_loads, numpy.float64)[lo:hi]

    link_rows = _link_row_of(index)[lo:hi]
    timestamps = _column(index.timestamps, numpy.int64)
    epochs = timestamps[link_rows]
    hours = (epochs // 3600) % 24
    weekdays = (epochs // 86400 + 3) % 7  # epoch day zero was a Thursday

    external = _external_links(index)[lo:hi]
    return DirectedLoadColumns(
        loads=loads,
        hours=numpy.repeat(hours, 2),
        weekdays=numpy.repeat(weekdays, 2),
        external=numpy.repeat(external, 2),
        snapshot_rows=numpy.repeat(link_rows, 2),
    )


def load_samples(
    index: ColumnSource,
    start: datetime | None = None,
    end: datetime | None = None,
) -> LoadSamples:
    """The Figure 5 sample set, identical to the object path's.

    Equivalent to ``collect_load_samples(load_all(store, map))`` — same
    values in the same order — but computed from columns, without
    reconstructing a single snapshot.
    """
    columns = directed_load_columns(index, start, end)
    samples = LoadSamples()
    external = columns.external
    samples.internal = columns.loads[~external].tolist()
    samples.external = columns.loads[external].tolist()
    samples.hours = columns.hours.tolist()
    samples.weekdays = columns.weekdays.tolist()
    samples._combined = columns.loads.tolist()
    return samples


@dataclass(frozen=True)
class NodeLifetime:
    """When one node was first and last observed, and how often."""

    name: str
    kind: NodeKind
    first_seen: datetime
    last_seen: datetime
    snapshots: int


def node_lifetimes(index: ColumnSource) -> dict[str, NodeLifetime]:
    """First/last appearance and presence count per node, vectorised.

    The evolution analyses (Figure 4, the make-before-break narratives)
    reduce to exactly these boundaries; grouping the membership columns
    answers them for a whole map history at once.
    """
    timestamps = _column(index.timestamps, numpy.int64)
    results: dict[str, NodeLifetime] = {}
    for kind, ids_raw, counts_raw in (
        (NodeKind.ROUTER, index.router_ids, index.router_counts),
        (NodeKind.PEERING, index.peering_ids, index.peering_counts),
    ):
        ids = _column(ids_raw, numpy.uint32).astype(numpy.int64)
        if not len(ids):
            continue
        counts = _column(counts_raw, numpy.uint32).astype(numpy.int64)
        rows = numpy.repeat(numpy.arange(len(counts), dtype=numpy.int64), counts)
        order = numpy.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        sorted_rows = rows[order]
        starts = numpy.flatnonzero(
            numpy.r_[True, sorted_ids[1:] != sorted_ids[:-1]]
        )
        ends = numpy.r_[starts[1:], len(sorted_ids)]
        for begin, finish in zip(starts, ends):
            name = index.names[int(sorted_ids[begin])]
            existing = results.get(name)
            first_row = int(sorted_rows[begin])
            last_row = int(sorted_rows[finish - 1])
            present = int(finish - begin)
            if existing is not None:
                # A name that switched kinds: merge, keep the later kind.
                first_row = min(first_row, _row_of(index, existing.first_seen))
                last_row = max(last_row, _row_of(index, existing.last_seen))
                present += existing.snapshots
            results[name] = NodeLifetime(
                name=name,
                kind=kind,
                first_seen=_utc(timestamps[first_row]),
                last_seen=_utc(timestamps[last_row]),
                snapshots=present,
            )
    return results


def _utc(epoch) -> datetime:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc)


def _row_of(index: ColumnSource, when: datetime) -> int:
    """Row of an exact timestamp previously read from the index."""
    return bisect.bisect_left(index.timestamps, int(when.timestamp()))


@dataclass(frozen=True)
class LinkLifetime:
    """When one link (canonical endpoint/label orientation) was observed."""

    node_a: str
    label_a: str
    node_b: str
    label_b: str
    first_seen: datetime
    last_seen: datetime
    snapshots: int


def _canonical_link_keys(
    index: ColumnSource, lo: int, hi: int
) -> tuple[numpy.ndarray, numpy.ndarray]:
    """(packed key, was-swapped) per link row in ``[lo, hi)``.

    Orientation is canonicalised on the node *ids* (stable within one
    index) so the two directions of a link share a key.  Keys pack the
    four ids into one int64 for fast grouping; id tables comfortably fit
    the packing budget (validated below).
    """
    a_nodes = _column(index.link_a_nodes, numpy.uint32)[lo:hi].astype(numpy.int64)
    b_nodes = _column(index.link_b_nodes, numpy.uint32)[lo:hi].astype(numpy.int64)
    a_labels = _column(index.link_a_labels, numpy.uint32)[lo:hi].astype(numpy.int64)
    b_labels = _column(index.link_b_labels, numpy.uint32)[lo:hi].astype(numpy.int64)
    names = max(1, len(index.names))
    labels = max(1, len(index.labels))
    if names * names * labels * labels >= 2**62:
        raise ColumnarCapacityError(
            f"string tables too large to pack link keys "
            f"({names} names, {labels} labels)"
        )
    swapped = b_nodes < a_nodes
    first_node = numpy.where(swapped, b_nodes, a_nodes)
    second_node = numpy.where(swapped, a_nodes, b_nodes)
    first_label = numpy.where(swapped, b_labels, a_labels)
    second_label = numpy.where(swapped, a_labels, b_labels)
    keys = (
        (first_node * names + second_node) * labels + first_label
    ) * labels + second_label
    return keys, swapped


def _unpack_link_key(index: ColumnSource, key: int) -> tuple[str, str, str, str]:
    names = max(1, len(index.names))
    labels = max(1, len(index.labels))
    key, second_label = divmod(key, labels)
    key, first_label = divmod(key, labels)
    first_node, second_node = divmod(key, names)
    return (
        index.names[first_node],
        index.labels[first_label],
        index.names[second_node],
        index.labels[second_label],
    )


def link_lifetimes(
    index: ColumnSource,
) -> dict[tuple[str, str, str, str], LinkLifetime]:
    """First/last observation per link identity across the whole series.

    Parallel links that share both endpoints *and* both labels (the
    paper's VODAFONE case) collapse onto one key; their presence counts
    then exceed the snapshot count, which is itself the signal that the
    key hides a parallel group.
    """
    if not len(index.link_counts):
        return {}
    keys, _ = _canonical_link_keys(index, 0, len(index.link_a_nodes))
    rows = _link_row_of(index)
    timestamps = _column(index.timestamps, numpy.int64)
    order = numpy.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    sorted_rows = rows[order]
    starts = numpy.flatnonzero(numpy.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = numpy.r_[starts[1:], len(sorted_keys)]
    results: dict[tuple[str, str, str, str], LinkLifetime] = {}
    for begin, finish in zip(starts, ends):
        node_a, label_a, node_b, label_b = _unpack_link_key(
            index, int(sorted_keys[begin])
        )
        results[(node_a, label_a, node_b, label_b)] = LinkLifetime(
            node_a=node_a,
            label_a=label_a,
            node_b=node_b,
            label_b=label_b,
            first_seen=_utc(timestamps[int(sorted_rows[begin])]),
            last_seen=_utc(timestamps[int(sorted_rows[finish - 1])]),
            snapshots=int(finish - begin),
        )
    return results


@dataclass(frozen=True)
class LoadMatrix:
    """Dense per-link load series: one row per snapshot, one column per link.

    ``forward`` holds the egress load leaving the canonical first endpoint
    (``keys[k][0]``), ``reverse`` the opposite direction; ``nan`` marks
    snapshots where the link was absent.  Where duplicate parallel links
    share a key, the last one in document order wins — the matrix is a
    per-identity view, not a parallel-group accounting.
    """

    timestamps: numpy.ndarray  #: int64 epoch seconds, one per snapshot row
    keys: tuple[tuple[str, str, str, str], ...]
    forward: numpy.ndarray  #: float64 (snapshots, links)
    reverse: numpy.ndarray  #: float64 (snapshots, links)

    def times(self) -> list[datetime]:
        """The snapshot timestamps as aware datetimes."""
        return [_utc(epoch) for epoch in self.timestamps]

    def series(
        self, key: tuple[str, str, str, str]
    ) -> tuple[numpy.ndarray, numpy.ndarray]:
        """(forward, reverse) load series of one link key."""
        column = self.keys.index(key)
        return self.forward[:, column], self.reverse[:, column]


def load_matrix(
    index: ColumnSource,
    start: datetime | None = None,
    end: datetime | None = None,
) -> LoadMatrix:
    """Materialise the windowed per-link load matrix from the columns.

    This is the input shape the upgrade detector and the TE-style studies
    want: aligned time series per link, built in one grouping pass.
    """
    rows, lo, hi = _rows_and_bounds(index, start, end)
    keys, swapped = _canonical_link_keys(index, lo, hi)
    link_rows = _link_row_of(index)[lo:hi] - rows.start
    unique_keys, columns = numpy.unique(keys, return_inverse=True)
    snapshots = len(rows)
    forward = numpy.full((snapshots, len(unique_keys)), numpy.nan)
    reverse = numpy.full((snapshots, len(unique_keys)), numpy.nan)
    a_loads = _column(index.link_a_loads, numpy.float64)[lo:hi]
    b_loads = _column(index.link_b_loads, numpy.float64)[lo:hi]
    forward[link_rows, columns] = numpy.where(swapped, b_loads, a_loads)
    reverse[link_rows, columns] = numpy.where(swapped, a_loads, b_loads)
    return LoadMatrix(
        timestamps=_column(index.timestamps, numpy.int64)[
            rows.start : rows.stop
        ].copy(),
        keys=tuple(_unpack_link_key(index, int(key)) for key in unique_keys),
        forward=forward,
        reverse=reverse,
    )


def imbalance_samples(
    index: ColumnSource,
    start: datetime | None = None,
    end: datetime | None = None,
    minimum_load: float = MINIMUM_ACTIVE_LOAD,
) -> ImbalanceResult:
    """The Figure 5c sample set, identical to the object path's.

    Equivalent to ``collect_imbalances(load_all(store, map))`` — the same
    imbalances in the same order — computed by grouping the flat link
    columns.  Group ordering follows the object path exactly: snapshots
    in time order, groups within a snapshot by their sorted endpoint
    *names* (hence the rank table below), and each group contributing
    its forward direction before its backward one.
    """
    result = ImbalanceResult()
    rows, lo, hi = _rows_and_bounds(index, start, end)
    if hi == lo:
        return result
    a_nodes = _column(index.link_a_nodes, numpy.uint32)[lo:hi].astype(numpy.int64)
    b_nodes = _column(index.link_b_nodes, numpy.uint32)[lo:hi].astype(numpy.int64)
    a_loads = _column(index.link_a_loads, numpy.float64)[lo:hi]
    b_loads = _column(index.link_b_loads, numpy.float64)[lo:hi]
    link_rows = _link_row_of(index)[lo:hi]
    external = _external_links(index)[lo:hi]

    # Rank of every name id in lexicographic name order, so id-space
    # comparisons reproduce the object path's string-sorted group keys.
    names = index.names
    count = max(1, len(names))
    order_by_name = numpy.asarray(
        sorted(range(len(names)), key=names.__getitem__), dtype=numpy.int64
    )
    rank = numpy.empty(count, dtype=numpy.int64)
    rank[order_by_name] = numpy.arange(len(names), dtype=numpy.int64)

    a_rank = rank[a_nodes]
    b_rank = rank[b_nodes]
    swapped = b_rank < a_rank
    left = numpy.where(swapped, b_rank, a_rank)
    right = numpy.where(swapped, a_rank, b_rank)
    forward = numpy.where(swapped, b_loads, a_loads)  # egress from left
    backward = numpy.where(swapped, a_loads, b_loads)  # egress from right
    if len(index) * count * count >= 2**62:
        raise ColumnarCapacityError(
            f"series too large to pack group keys "
            f"({len(index)} rows, {count} names)"
        )
    keys = (link_rows * count + left) * count + right
    order = numpy.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = numpy.flatnonzero(numpy.r_[True, sorted_keys[1:] != sorted_keys[:-1]])
    ends = numpy.r_[starts[1:], len(sorted_keys)]
    for begin, finish in zip(starts, ends):
        members = order[begin:finish]
        bucket = result.external if external[members[0]] else result.internal
        for loads in (forward[members], backward[members]):
            active = loads[loads >= minimum_load]
            if len(active) >= 2:
                bucket.append(float(active.max() - active.min()))
    return result


def count_series(
    index: ColumnSource,
    start: datetime | None = None,
    end: datetime | None = None,
) -> InfrastructureEvolution:
    """The Figure 4 evolution series, identical to the object path's.

    Equivalent to ``evolution_from_snapshots(load_all(store, map))`` —
    the router and internal/external link counts come straight from the
    count columns, the internal/external split from the membership
    columns.

    Raises:
        AnalysisError: the window selects no snapshots (the object path
            refuses an empty series the same way).
    """
    rows, lo, hi = _rows_and_bounds(index, start, end)
    if len(rows) == 0:
        raise AnalysisError("no snapshots given")
    routers = _column(index.router_counts, numpy.uint32)[rows.start : rows.stop]
    totals = _column(index.link_counts, numpy.uint32)[
        rows.start : rows.stop
    ].astype(numpy.int64)
    link_rows = _link_row_of(index)[lo:hi] - rows.start
    external = _external_links(index)[lo:hi]
    external_counts = numpy.bincount(
        link_rows, weights=external.astype(numpy.float64), minlength=len(rows)
    ).astype(numpy.int64)
    internal_counts = totals - external_counts
    times = tuple(
        _utc(epoch)
        for epoch in _column(index.timestamps, numpy.int64)[rows.start : rows.stop]
    )
    return InfrastructureEvolution(
        map_name=index.map_name,
        routers=TimeSeries(times, tuple(float(v) for v in routers)),
        internal_links=TimeSeries(times, tuple(float(v) for v in internal_counts)),
        external_links=TimeSeries(times, tuple(float(v) for v in external_counts)),
    )


def link_load_series(
    index: ColumnSource,
    key: tuple[str, str, str, str],
    start: datetime | None = None,
    end: datetime | None = None,
) -> tuple[TimeSeries, TimeSeries]:
    """(forward, reverse) load series of one link identity.

    ``key`` is ``(node_a, label_a, node_b, label_b)`` in either
    orientation; *forward* is the egress direction leaving ``key[0]``,
    matching ``link.load_from(key[0])`` on the object path.  Snapshots
    where the link is absent contribute no point (unlike
    :func:`load_matrix`, which marks them ``nan``).  A key hiding
    same-labelled parallel links yields duplicate timestamps and is
    rejected by :class:`~repro.analysis.timeseries.TimeSeries` — exactly
    as building the series from snapshots would be.
    """
    node_a, label_a, node_b, label_b = key
    try:
        ids = (
            index.names.index(node_a),
            index.labels.index(label_a),
            index.names.index(node_b),
            index.labels.index(label_b),
        )
    except ValueError:
        return TimeSeries((), ()), TimeSeries((), ())
    rows, lo, hi = _rows_and_bounds(index, start, end)
    a_nodes = _column(index.link_a_nodes, numpy.uint32)[lo:hi]
    a_labels = _column(index.link_a_labels, numpy.uint32)[lo:hi]
    b_nodes = _column(index.link_b_nodes, numpy.uint32)[lo:hi]
    b_labels = _column(index.link_b_labels, numpy.uint32)[lo:hi]
    mask = (
        (a_nodes == ids[0])
        & (a_labels == ids[1])
        & (b_nodes == ids[2])
        & (b_labels == ids[3])
    ) | (
        (a_nodes == ids[2])
        & (a_labels == ids[3])
        & (b_nodes == ids[0])
        & (b_labels == ids[1])
    )
    selected = numpy.flatnonzero(mask)
    if not len(selected):
        return TimeSeries((), ()), TimeSeries((), ())
    a_loads = _column(index.link_a_loads, numpy.float64)[lo:hi][selected]
    b_loads = _column(index.link_b_loads, numpy.float64)[lo:hi][selected]
    from_a = a_nodes[selected] == ids[0]
    forward = numpy.where(from_a, a_loads, b_loads)
    reverse = numpy.where(from_a, b_loads, a_loads)
    epochs = _column(index.timestamps, numpy.int64)[
        _link_row_of(index)[lo:hi][selected]
    ]
    times = tuple(_utc(epoch) for epoch in epochs)
    return (
        TimeSeries(times, tuple(float(v) for v in forward)),
        TimeSeries(times, tuple(float(v) for v in reverse)),
    )
