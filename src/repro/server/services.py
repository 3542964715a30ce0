"""Service layer: JSON-safe payloads computed straight off the columns.

Each builder takes an already-resolved read handle (the router never
touches storage, the services never touch HTTP) and returns a plain
dict for the app layer to render.  Nothing here constructs a
``MapSnapshot`` or imports the parsing pipeline — ``TestImportClosure``
in ``tests/test_import_closure.py`` enforces that — so every payload is
assembled from zero-copy column views:

* ``snapshot`` bisects to one row and slices that row's membership and
  link columns (the newest overlapping shard is the only one opened);
* ``series`` is a predicate-pushdown :meth:`scan` with the link filter
  bound, normalised so *a_to_b* is always the egress direction leaving
  the first requested endpoint;
* ``imbalance`` / ``evolution`` reuse the vectorised accessors from
  :mod:`repro.analysis.columnar`, fanned per shard and merged in time
  order (shards partition time, so concatenation preserves order).
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Any

import numpy

from repro.analysis.columnar import count_series, imbalance_samples
from repro.analysis.imbalance import MINIMUM_ACTIVE_LOAD, ImbalanceResult
from repro.analysis.timeseries import TimeSeries
from repro.constants import MapName
from repro.dataset.handles import ReadHandle
from repro.dataset.query import MappedIndex, ScanPredicate
from repro.errors import (
    AnalysisError,
    QueryError,
    ReproError,
    ServerError,
    SnapshotIndexError,
    SnapshotNotFoundError,
    UnknownEndpointError,
)
from repro.server.engines import EngineCache

__all__ = [
    "error_body",
    "error_status",
    "evolution_payload",
    "imbalance_payload",
    "maps_payload",
    "series_payload",
    "snapshot_payload",
]

# -- the unified error envelope -------------------------------------------
#
# Every non-2xx response the read API produces is
# ``{"error": {"code", "message", "map"?}}``, and this table is the one
# place a typed :mod:`repro.errors` class maps to an HTTP status and a
# stable machine-readable code.  Order matters: the first matching
# (most specific) entry wins, so subclasses come before their bases.

ERROR_MAPPING: tuple[tuple[type[Exception], int, str], ...] = (
    (SnapshotNotFoundError, 404, "snapshot_not_found"),
    (SnapshotIndexError, 503, "index_unavailable"),
    (UnknownEndpointError, 404, "unknown_endpoint"),
    (QueryError, 400, "bad_query"),
    (AnalysisError, 400, "empty_window"),
    (ServerError, 500, "server_error"),
    (ReproError, 500, "internal_error"),
)


def error_status(exc: BaseException) -> tuple[int, str]:
    """The ``(http_status, code)`` one typed error renders as."""
    for error_type, status, code in ERROR_MAPPING:
        if isinstance(exc, error_type):
            return status, code
    return 500, "internal_error"


def error_body(
    code: str, message: str, map_name: MapName | None = None
) -> dict:
    """The envelope every non-2xx response carries."""
    error: dict = {"code": code, "message": message}
    if map_name is not None:
        error["map"] = map_name.value
    return {"error": error}

#: Imbalance thresholds summarised per bucket — the Figure 5c x-axis
#: points the paper's discussion leans on.
IMBALANCE_THRESHOLDS = (5.0, 10.0, 25.0)


def _iso(when: datetime) -> str:
    return when.astimezone(timezone.utc).isoformat()


def _floor_second(when: datetime) -> datetime:
    """Clamp to whole seconds — index timestamps are integral epochs."""
    return datetime.fromtimestamp(int(when.timestamp()), tz=timezone.utc)


def _prefix_sum(counts: Any, row: int) -> int:
    """Sum of a count column's first ``row`` entries."""
    return int(counts[:row].sum(dtype=numpy.int64))


def _time_range(handle: ReadHandle) -> tuple[datetime, datetime] | None:
    """First and last snapshot timestamps, opening at most two shards."""
    first = last = None
    for engine in handle.iter_engines():
        if len(engine):
            first = engine.timestamp_at(0)
            break
    for engine in handle.iter_engines(reverse=True):
        if len(engine):
            last = engine.timestamp_at(len(engine) - 1)
            break
    if first is None or last is None:
        return None
    return first, last


def maps_payload(engines: EngineCache) -> dict:
    """``GET /maps`` — every map with a queryable index, with its extent."""
    maps = []
    for map_name in MapName:
        try:
            pinned = engines.handle(map_name)
        except (SnapshotNotFoundError, SnapshotIndexError):
            continue
        if len(pinned.handle) == 0:
            continue  # compacted, but no snapshots left: an empty engine
        entry: dict = {
            "name": map_name.value,
            "title": map_name.title,
            "snapshots": len(pinned.handle),
        }
        extent = _time_range(pinned.handle)
        if extent is not None:
            entry["first"] = _iso(extent[0])
            entry["last"] = _iso(extent[1])
        maps.append(entry)
    return {"maps": maps}


def _latest_row(
    handle: ReadHandle, at: datetime | None
) -> tuple[MappedIndex, int] | None:
    """The newest (engine, row) at or before ``at`` — newest shard first."""
    end = None if at is None else _floor_second(at) + timedelta(seconds=1)
    for engine in handle.iter_engines(end=end, reverse=True):
        rows = engine.rows_in_window(None, end)
        if rows.stop > 0:
            return engine, rows.stop - 1
    return None


def snapshot_payload(
    handle: ReadHandle, map_name: MapName, at: datetime | None = None
) -> dict:
    """``GET /maps/<m>/snapshot`` — one row sliced out of the columns.

    Raises:
        SnapshotNotFoundError: the map holds no snapshot at or before
            ``at`` (or none at all).
    """
    located = _latest_row(handle, at)
    if located is None:
        moment = "at all" if at is None else f"at or before {_iso(at)}"
        raise SnapshotNotFoundError(
            f"map {map_name.value!r} has no snapshot {moment}"
        )
    engine, row = located
    router_lo = _prefix_sum(engine.router_counts, row)
    peering_lo = _prefix_sum(engine.peering_counts, row)
    lo, hi = engine.link_slice(range(row, row + 1))
    names = engine.names
    labels = engine.labels
    links = [
        {
            "node_a": names[engine.link_a_nodes[j]],
            "label_a": labels[engine.link_a_labels[j]],
            "load_a": float(engine.link_a_loads[j]),
            "node_b": names[engine.link_b_nodes[j]],
            "label_b": labels[engine.link_b_labels[j]],
            "load_b": float(engine.link_b_loads[j]),
        }
        for j in range(lo, hi)
    ]
    return {
        "map": map_name.value,
        "timestamp": _iso(engine.timestamp_at(row)),
        "routers": [
            names[engine.router_ids[j]]
            for j in range(
                router_lo, router_lo + int(engine.router_counts[row])
            )
        ],
        "peerings": [
            names[engine.peering_ids[j]]
            for j in range(
                peering_lo, peering_lo + int(engine.peering_counts[row])
            )
        ],
        "links": links,
    }


def series_payload(
    handle: ReadHandle,
    map_name: MapName,
    link: tuple[str, str],
    start: datetime | None = None,
    end: datetime | None = None,
) -> dict:
    """``GET /maps/<m>/series`` — one link's directed loads over a window.

    The predicate (time window + link filter) is pushed straight into
    the engine's scan; points normalise both stored orientations so
    ``a_to_b`` is always the egress load leaving ``link[0]``.
    """
    predicate = ScanPredicate(start=start, end=end, link=link)
    result = handle.scan(predicate)
    points = []
    for record in result.records():
        if record.node_a == link[0]:
            forward, backward = record.load_a, record.load_b
        else:
            forward, backward = record.load_b, record.load_a
        points.append(
            {
                "time": _iso(record.timestamp),
                "a_to_b": forward,
                "b_to_a": backward,
            }
        )
    return {
        "map": map_name.value,
        "link": {"a": link[0], "b": link[1]},
        "points": points,
    }


def imbalance_payload(
    handle: ReadHandle,
    map_name: MapName,
    start: datetime | None = None,
    end: datetime | None = None,
    minimum_load: float = MINIMUM_ACTIVE_LOAD,
) -> dict:
    """``GET /maps/<m>/imbalance`` — the Figure 5c summary over a window."""
    merged = ImbalanceResult()
    for engine in handle.iter_engines(start, end):
        shard = imbalance_samples(engine, start, end, minimum_load)
        merged.internal.extend(shard.internal)
        merged.external.extend(shard.external)

    def bucket(values: list[float]) -> dict:
        summary: dict = {"count": len(values)}
        if values:
            summary["mean"] = sum(values) / len(values)
            summary["max"] = max(values)
            summary["fraction_within"] = {
                str(threshold): sum(
                    1 for value in values if value <= threshold
                )
                / len(values)
                for threshold in IMBALANCE_THRESHOLDS
            }
        return summary

    return {
        "map": map_name.value,
        "minimum_load": minimum_load,
        "internal": bucket(merged.internal),
        "external": bucket(merged.external),
    }


def evolution_payload(
    handle: ReadHandle,
    map_name: MapName,
    start: datetime | None = None,
    end: datetime | None = None,
) -> dict:
    """``GET /maps/<m>/evolution`` — the Figure 4 count series over a window.

    Raises:
        AnalysisError: the window selects no snapshots, matching the
            columnar accessor's own contract.
    """
    parts = []
    for engine in handle.iter_engines(start, end):
        try:
            parts.append(count_series(engine, start, end))
        except AnalysisError:
            continue  # this shard's slice of the window is empty
    if not parts:
        raise AnalysisError(
            f"map {map_name.value!r} has no snapshots in the window"
        )

    def merged(selector: str) -> dict:
        times: list[str] = []
        values: list[float] = []
        for part in parts:
            series: TimeSeries = getattr(part, selector)
            times.extend(_iso(when) for when in series.times)
            values.extend(series.values)
        return {"times": times, "values": values}

    return {
        "map": map_name.value,
        "routers": merged("routers"),
        "internal_links": merged("internal_links"),
        "external_links": merged("external_links"),
    }
