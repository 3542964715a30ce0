"""Load stored datasets back as snapshot streams.

Everything in :mod:`repro.analysis` works on iterables of
:class:`~repro.topology.model.MapSnapshot`; this module supplies those
iterables from a collected dataset directory, so an analysis runs
identically on simulator output and on data read back from disk — the
workflow of a downstream user of the released dataset.

The Section 5 analyses re-read thousands of YAML files per figure, so the
loaders have two tiers:

1. **Columnar index** — when the map's per-day shard indexes
   (:mod:`repro.dataset.shards`) are fresh, the loaders open them through
   :func:`~repro.dataset.handles.resolve_read_handle`, the same mapped
   engine the server scans.  Only the shards a window covers are mapped
   (:func:`latest_snapshot` walks newest-first and maps one), each is
   verified (checksum and column cross-checks) before anything is
   returned from it, and snapshots are rebuilt from its columns without
   parsing any YAML.  Shards partition time, so chaining them keeps
   global order; results are equal to the YAML path's.
2. **Serial YAML** — the always-correct fallback, taken whenever the
   shards are stale, missing or fail verification.
"""

from __future__ import annotations

import logging
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Callable, Iterator

from repro.constants import MapName
from repro.dataset.handles import ReadHandle, resolve_read_handle
from repro.dataset.store import DatasetStore, SnapshotRef
from repro.errors import SchemaError, SnapshotIndexError
from repro.telemetry import get_registry
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node, NodeKind
from repro.yamlio.deserialize import try_read_snapshot

if TYPE_CHECKING:
    from repro.dataset.query import MappedIndex

logger = logging.getLogger(__name__)


def _loaded_counter():
    """Snapshots served to callers, labelled by map and serving tier."""
    return get_registry().counter(
        "repro_snapshots_loaded_total",
        "Snapshots served to callers by source tier (index or yaml)",
    )


def iter_snapshots(
    store: DatasetStore,
    map_name: MapName,
    start: datetime | None = None,
    end: datetime | None = None,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None = None,
    use_index: bool = True,
) -> Iterator[MapSnapshot]:
    """Stream the stored YAML snapshots of one map, in time order.

    Args:
        store: the dataset directory.
        map_name: which map to read.
        start: inclusive lower bound on snapshot time.
        end: exclusive upper bound on snapshot time.
        on_error: called for unreadable files; they are skipped.  Without
            a handler, schema errors propagate.
        use_index: serve from the map's shard indexes when they are fresh
            and sound (identical results, no YAML parsing); set ``False``
            to force the YAML path.

    Yields:
        One :class:`MapSnapshot` per readable YAML file, stamped with the
        file's timestamp (authoritative over the document's own field).
    """
    loaded = _loaded_counter()
    handle = resolve_read_handle(store, map_name) if use_index else None
    if handle is not None:
        with handle:
            engines = _verified_engines(handle, start, end)
            if engines is not None:
                for engine in engines:
                    for snapshot in _replay(store, engine, start, end, on_error):
                        loaded.inc(1, map=map_name.value, source="index")
                        yield snapshot
                return
    for ref in _refs_in_window(store, map_name, start, end):
        snapshot, message = try_read_snapshot(ref.path)
        if snapshot is None:
            exc = SchemaError(message)
            if on_error is None:
                raise exc
            on_error(ref, exc)
            continue
        snapshot.timestamp = ref.timestamp
        loaded.inc(1, map=map_name.value, source="yaml")
        yield snapshot


def latest_snapshot(
    store: DatasetStore, map_name: MapName, use_index: bool = True
) -> MapSnapshot | None:
    """The most recent *readable* stored snapshot of one map, or ``None``.

    A collection campaign can die mid-write, so the newest file on disk is
    the likeliest one to be truncated.  Matching ``iter_snapshots``'s
    ``on_error`` philosophy, unreadable trailing files are skipped (with a
    warning) and the loader walks back to the newest snapshot that parses.
    """
    loaded = _loaded_counter()
    handle = resolve_read_handle(store, map_name) if use_index else None
    if handle is not None:
        with handle:
            try:
                for engine in handle.iter_engines(reverse=True):
                    engine.verify()
                    if len(engine) == 0:
                        continue  # a shard of nothing but unreadable sources
                    (snapshot,) = _rebuild(engine, range(len(engine) - 1, len(engine)))
                    loaded.inc(1, map=map_name.value, source="index")
                    return snapshot
                return None
            except SnapshotIndexError as exc:
                logger.warning("ignoring unusable snapshot index: %s", exc)
    refs = list(store.iter_refs(map_name, "yaml"))
    for ref in reversed(refs):
        snapshot, message = try_read_snapshot(ref.path)
        if snapshot is None:
            logger.warning("skipping unreadable %s: %s", ref.path.name, message)
            continue
        snapshot.timestamp = ref.timestamp
        loaded.inc(1, map=map_name.value, source="yaml")
        return snapshot
    return None


def load_all(
    store: DatasetStore,
    map_name: MapName,
    start: datetime | None = None,
    end: datetime | None = None,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None = None,
    use_index: bool = True,
) -> list[MapSnapshot]:
    """Materialise a snapshot list (for analyses that need several passes).

    The arguments are :func:`iter_snapshots`'s; the list is in time order
    and ``on_error`` fires in that order too.
    """
    with get_registry().span(
        "repro_load_all", "load_all wall time", map=map_name.value
    ):
        return list(
            iter_snapshots(
                store, map_name, start=start, end=end, on_error=on_error,
                use_index=use_index,
            )
        )


def _verified_engines(
    handle: ReadHandle, start: datetime | None, end: datetime | None
) -> list[MappedIndex] | None:
    """Every shard engine the window covers, each verified; ``None`` if any
    is unsound (the caller then reads YAML instead)."""
    try:
        engines = list(handle.iter_engines(start, end))
        for engine in engines:
            engine.verify()
    except SnapshotIndexError as exc:
        logger.warning("ignoring unusable snapshot index: %s", exc)
        return None
    return engines


def _rebuild(engine: MappedIndex, rows: range) -> list[MapSnapshot]:
    """Rebuild a window of one shard's rows as :class:`MapSnapshot` objects.

    Each result is equal to parsing the row's source YAML file: names and
    labels come back from the string tables, loads from the double
    columns, node kinds from which id list the node sat in.  Columns are
    read through ``tolist()``, so the snapshots hold plain Python values
    and no view keeps the mapping alive.
    """
    names = engine.names
    labels = engine.labels
    router_counts = engine.router_counts[rows.start : rows.stop].tolist()
    peering_counts = engine.peering_counts[rows.start : rows.stop].tolist()
    link_counts = engine.link_counts[rows.start : rows.stop].tolist()
    r0 = int(engine.router_counts[: rows.start].sum())
    p0 = int(engine.peering_counts[: rows.start].sum())
    l0, l1 = engine.link_slice(rows)
    router_ids = engine.router_ids[r0 : r0 + sum(router_counts)].tolist()
    peering_ids = engine.peering_ids[p0 : p0 + sum(peering_counts)].tolist()
    link_columns = [
        column[l0:l1].tolist()
        for column in (
            engine.link_a_nodes,
            engine.link_a_labels,
            engine.link_a_loads,
            engine.link_b_nodes,
            engine.link_b_labels,
            engine.link_b_loads,
        )
    ]
    # Nodes and links are immutable and identical (endpoints, labels,
    # loads) combinations recur constantly across a series — loads are
    # small percentages — so the window's snapshots share them.
    routers: dict[int, Node] = {}
    peerings: dict[int, Node] = {}
    links: dict[tuple[int, int, float, int, int, float], Link] = {}
    snapshots: list[MapSnapshot] = []
    r = p = link = 0
    for epoch, n_routers, n_peerings, n_links in zip(
        engine.timestamps[rows.start : rows.stop].tolist(),
        router_counts,
        peering_counts,
        link_counts,
    ):
        nodes: dict[str, Node] = {}
        for name_id in router_ids[r : r + n_routers]:
            node = routers.get(name_id)
            if node is None:
                node = routers[name_id] = Node(names[name_id], NodeKind.ROUTER)
            nodes[node.name] = node
        for name_id in peering_ids[p : p + n_peerings]:
            node = peerings.get(name_id)
            if node is None:
                node = peerings[name_id] = Node(names[name_id], NodeKind.PEERING)
            nodes[node.name] = node
        row_links: list[Link] = []
        for key in zip(*(column[link : link + n_links] for column in link_columns)):
            shared = links.get(key)
            if shared is None:
                shared = links[key] = Link(
                    a=LinkEnd(node=names[key[0]], label=labels[key[1]], load=key[2]),
                    b=LinkEnd(node=names[key[3]], label=labels[key[4]], load=key[5]),
                )
            row_links.append(shared)
        r += n_routers
        p += n_peerings
        link += n_links
        # Bypass add_node/add_link: rows were validated when first parsed.
        snapshots.append(
            MapSnapshot(
                map_name=engine.map_name,
                timestamp=datetime.fromtimestamp(epoch, tz=timezone.utc),
                nodes=nodes,
                links=row_links,
            )
        )
    return snapshots


def _replay(
    store: DatasetStore,
    engine: MappedIndex,
    start: datetime | None,
    end: datetime | None,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None,
) -> Iterator[MapSnapshot]:
    """Replay the YAML path's exact behaviour from one shard's columns.

    Skipped sources (files the index build could not parse) surface in
    time order just as the YAML walk would surface them: through
    ``on_error`` when a handler is given, as a raised
    :class:`~repro.errors.SchemaError` otherwise.
    """
    skipped = [
        epoch
        for epoch in sorted(engine.skipped)
        if (start is None or epoch >= int(start.timestamp()))
        and (end is None or epoch < int(end.timestamp()))
    ]
    cursor = 0
    for snapshot in _rebuild(engine, engine.rows_in_window(start, end)):
        epoch = int(snapshot.timestamp.timestamp())
        while cursor < len(skipped) and skipped[cursor] < epoch:
            _report_skipped(store, engine, skipped[cursor], on_error)
            cursor += 1
        yield snapshot
    while cursor < len(skipped):
        _report_skipped(store, engine, skipped[cursor], on_error)
        cursor += 1


def _report_skipped(
    store: DatasetStore,
    engine: MappedIndex,
    epoch: int,
    on_error: Callable[[SnapshotRef, SchemaError], None] | None,
) -> None:
    exc = SchemaError(engine.skipped[epoch].message)
    if on_error is None:
        raise exc
    timestamp = datetime.fromtimestamp(epoch, tz=timezone.utc)
    ref = SnapshotRef(
        map_name=engine.map_name,
        timestamp=timestamp,
        kind="yaml",
        path=store.path_for(engine.map_name, timestamp, "yaml"),
    )
    on_error(ref, exc)


def _refs_in_window(
    store: DatasetStore,
    map_name: MapName,
    start: datetime | None,
    end: datetime | None,
) -> Iterator[SnapshotRef]:
    """The map's YAML refs inside the half-open ``[start, end)`` window."""
    for ref in store.iter_refs(map_name, "yaml"):
        if start is not None and ref.timestamp < start:
            continue
        if end is not None and ref.timestamp >= end:
            continue
        yield ref
