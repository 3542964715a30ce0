"""Vectorised analyses straight over the mapped columnar index.

The Section 5 figures reduce a map's whole history to a handful of
aggregates.  Two of them back the HTTP read API's ``evolution`` and
``imbalance`` endpoints: the router and internal/external link counts of
Figure 4 (:func:`count_series`) and the ECMP imbalance samples of
Figure 5c (:func:`imbalance_samples`).  Both fall out of a shard's flat
columns with numpy — no ``MapSnapshot`` objects are materialised.

Each accessor mirrors its object-path equivalent exactly (same values,
same order), and the object path stays the oracle.  Both take a
:class:`~repro.dataset.query.MappedIndex`, whose columns are zero-copy
views over the shared ``index.bin`` mapping, so nothing here copies the
corpus.
"""

from __future__ import annotations

from datetime import datetime, timezone
from typing import TYPE_CHECKING

import numpy

from repro.analysis.imbalance import MINIMUM_ACTIVE_LOAD, ImbalanceResult
from repro.analysis.infrastructure import InfrastructureEvolution
from repro.analysis.timeseries import TimeSeries
from repro.errors import AnalysisError, ColumnarCapacityError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.query import MappedIndex

__all__ = [
    "count_series",
    "imbalance_samples",
]


def _rows_and_bounds(
    index: MappedIndex, start: datetime | None, end: datetime | None
) -> tuple[range, int, int]:
    """Selected snapshot rows plus their link-column slice bounds."""
    rows = index.rows_in_window(start, end)
    lo, hi = index.link_slice(rows)
    return rows, lo, hi


def _link_row_of(index: MappedIndex) -> numpy.ndarray:
    """For every link column element, the snapshot row it belongs to."""
    counts = index.link_counts.astype(numpy.int64)
    return numpy.repeat(numpy.arange(len(counts), dtype=numpy.int64), counts)


def _external_links(index: MappedIndex) -> numpy.ndarray:
    """Boolean per link column element: does it touch a peering?

    Fast path: when no name is ever used both as a router and as a
    peering (the invariable case — kinds follow the map's naming
    convention), peering-ness is a property of the name id and one table
    lookup vectorises the whole corpus.  Otherwise each snapshot's own
    peering membership decides, row by row.
    """
    a_nodes = index.link_a_nodes
    b_nodes = index.link_b_nodes
    as_router = numpy.zeros(len(index.names), dtype=bool)
    as_peering = numpy.zeros(len(index.names), dtype=bool)
    router_ids = index.router_ids
    peering_ids = index.peering_ids
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


def _utc(epoch) -> datetime:
    return datetime.fromtimestamp(int(epoch), tz=timezone.utc)


def imbalance_samples(
    index: MappedIndex,
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
    a_nodes = index.link_a_nodes[lo:hi].astype(numpy.int64)
    b_nodes = index.link_b_nodes[lo:hi].astype(numpy.int64)
    a_loads = index.link_a_loads[lo:hi]
    b_loads = index.link_b_loads[lo:hi]
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
    index: MappedIndex,
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
    routers = index.router_counts[rows.start : rows.stop]
    totals = index.link_counts[rows.start : rows.stop].astype(numpy.int64)
    link_rows = _link_row_of(index)[lo:hi] - rows.start
    external = _external_links(index)[lo:hi]
    external_counts = numpy.bincount(
        link_rows, weights=external.astype(numpy.float64), minlength=len(rows)
    ).astype(numpy.int64)
    internal_counts = totals - external_counts
    times = tuple(_utc(epoch) for epoch in index.timestamps[rows.start : rows.stop])
    return InfrastructureEvolution(
        map_name=index.map_name,
        routers=TimeSeries(times, tuple(float(v) for v in routers)),
        internal_links=TimeSeries(times, tuple(float(v) for v in internal_counts)),
        external_links=TimeSeries(times, tuple(float(v) for v in external_counts)),
    )
