"""Correctness oracles the benchmark checks before it reports anything.

Three independent views of the same archive must agree:

* the YAML twins on disk, byte for byte, with what ``process_svg_bytes``
  makes of the pool document each SVG was written from;
* the read API's ``snapshot`` and ``series`` bodies with the same values
  taken from the YAML twins through the object path
  (``snapshot_from_yaml``);
* the read API's ``evolution`` and ``imbalance`` bodies with the payload a
  freshly opened engine computes in this process.

Each function returns a list of mismatch messages; an empty list means
the view agrees.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from typing import Callable, Iterable, Sequence

from repro.constants import MapName
from repro.dataset.handles import resolve_read_handle
from repro.dataset.shards import verify_shards
from repro.dataset.store import ShardedDatasetStore
from repro.server import services
from repro.topology.model import MapSnapshot
from repro.yamlio.deserialize import snapshot_from_yaml

#: ``get(path) -> (status, body)`` through the load generator's connection.
Getter = Callable[[str], tuple[int, bytes]]


def _iso(when: datetime) -> str:
    return when.astimezone(timezone.utc).isoformat()


def _epoch(when: datetime) -> int:
    return int(when.timestamp())


def yaml_twin_mismatches(
    store: ShardedDatasetStore, files: Iterable[tuple[MapName, datetime, str]]
) -> list[str]:
    """Each ``(map, stamp, expected_yaml)`` against the twin on disk."""
    problems = []
    for map_name, when, expected in files:
        path = store.path_for(map_name, when, "yaml")
        try:
            actual = path.read_bytes()
        except OSError:
            problems.append(f"missing YAML twin {path.name}")
            continue
        if actual != expected.encode("utf-8"):
            problems.append(f"YAML twin {path.name} differs from its pool document")
    return problems


def shard_mismatches(store: ShardedDatasetStore, expected_rows: dict[MapName, int]) -> list[str]:
    """``verify_shards`` is clean and the shard rows equal the files per map."""
    problems = []
    for map_name, rows in expected_rows.items():
        entries = verify_shards(store, map_name)
        if entries is None:
            problems.append(f"verify_shards reports {map_name.value} unfresh")
            continue
        indexed = sum(entry.rows for _, entry in entries)
        if indexed != rows:
            problems.append(f"{map_name.value} indexes {indexed} rows, expected {rows}")
    return problems


def maps_mismatches(body: bytes, expected: dict[MapName, tuple[int, datetime]]) -> list[str]:
    """``/v1/maps`` lists each map's expected row count and last snapshot."""
    listed = {entry["name"]: entry for entry in json.loads(body)["maps"]}
    problems = []
    for map_name, (rows, last) in expected.items():
        entry = listed.get(map_name.value)
        if entry is None:
            problems.append(f"/v1/maps does not list {map_name.value}")
        elif entry["snapshots"] != rows or entry.get("last") != _iso(last):
            problems.append(
                f"/v1/maps shows {map_name.value} with {entry['snapshots']} rows up to "
                f"{entry.get('last')}, expected {rows} up to {_iso(last)}"
            )
    return problems


def snapshot_body(snapshot: MapSnapshot, map_name: MapName, when: datetime) -> dict:
    """What ``/snapshot`` must return for one YAML twin."""
    return {
        "map": map_name.value,
        "timestamp": _iso(when),
        "routers": [node.name for node in snapshot.routers],
        "peerings": [node.name for node in snapshot.peerings],
        "links": [
            {
                "node_a": link.a.node,
                "label_a": link.a.label,
                "load_a": link.a.load,
                "node_b": link.b.node,
                "label_b": link.b.label,
                "load_b": link.b.load,
            }
            for link in snapshot.links
        ],
    }


def series_body(
    twins: Sequence[tuple[datetime, MapSnapshot]], map_name: MapName, link: tuple[str, str]
) -> dict:
    """What ``/series`` must return over the given twins (already windowed)."""
    points = []
    for when, snapshot in twins:
        for item in snapshot.links:
            if {item.a.node, item.b.node} != set(link):
                continue
            if item.a.node == link[0]:
                forward, backward = item.a.load, item.b.load
            else:
                forward, backward = item.b.load, item.a.load
            points.append({"time": _iso(when), "a_to_b": forward, "b_to_a": backward})
    return {"map": map_name.value, "link": {"a": link[0], "b": link[1]}, "points": points}


def probe_mismatches(
    get: Getter,
    store: ShardedDatasetStore,
    map_name: MapName,
    stamps: Sequence[datetime],
) -> tuple[int, list[str]]:
    """The fixed probe set over one map; ``(probes run, mismatches)``.

    ``stamps`` are the map's snapshot times in order.  The probes are the
    latest snapshot, a snapshot at a mid-archive instant, one link's
    series over the middle half, and the evolution and imbalance
    summaries over the same window.
    """
    twins: dict[datetime, MapSnapshot] = {}

    def twin(when: datetime) -> MapSnapshot:
        if when not in twins:
            text = store.path_for(map_name, when, "yaml").read_text(encoding="utf-8")
            twins[when] = snapshot_from_yaml(text)
        return twins[when]

    slug = map_name.value
    latest, middle = stamps[-1], stamps[len(stamps) // 2]
    lo, hi = stamps[len(stamps) // 4], stamps[(3 * len(stamps)) // 4]
    start, end = _epoch(lo), _epoch(hi) + 1
    link = twin(middle).links[0]
    pair = (link.a.node, link.b.node)
    window = [when for when in stamps if start <= _epoch(when) < end]

    expected: list[tuple[str, object]] = [
        (f"/v1/maps/{slug}/snapshot", snapshot_body(twin(latest), map_name, latest)),
        (
            f"/v1/maps/{slug}/snapshot?at={_epoch(middle) + 60}",
            snapshot_body(twin(middle), map_name, middle),
        ),
        (
            f"/v1/maps/{slug}/series?link={pair[0]}:{pair[1]}&start={start}&end={end}",
            series_body([(when, twin(when)) for when in window], map_name, pair),
        ),
    ]
    handle = resolve_read_handle(store, map_name)
    if handle is None:
        return len(expected) + 2, [f"no fresh read handle for {slug}"]
    bounds = (
        datetime.fromtimestamp(start, tz=timezone.utc),
        datetime.fromtimestamp(end, tz=timezone.utc),
    )
    try:
        expected.append(
            (
                f"/v1/maps/{slug}/evolution?start={start}&end={end}",
                services.evolution_payload(handle, map_name, *bounds),
            )
        )
        expected.append(
            (
                f"/v1/maps/{slug}/imbalance?start={start}&end={end}&min_load=1.0",
                services.imbalance_payload(handle, map_name, *bounds, 1.0),
            )
        )
    finally:
        handle.close()

    problems = []
    for path, payload in expected:
        status, body = get(path)
        if status != 200:
            problems.append(f"{path} answered {status}")
        elif json.loads(body) != json.loads(json.dumps(payload)):
            problems.append(f"{path} differs from the oracle")
    return len(expected), problems
