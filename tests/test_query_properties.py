"""Property tests: predicate pushdown is exactly the object path.

For arbitrary valid snapshot series, every scan the planner can run —
any combination of time window, node filter, link filter, and load
bounds — must return precisely the link occurrences a brute-force walk
over the original snapshots returns, in the same order.  The scan plan (bisected row window + pushed-down
filters) is an optimisation, never a semantics change.
"""

from __future__ import annotations

import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.constants import MapName
from repro.dataset.index import SnapshotIndex
from repro.dataset.query import MappedIndex, ScanPredicate
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node

node_names = st.from_regex(r"[a-z]{3}-r[0-9]", fullmatch=True)
peering_names = st.from_regex(r"[A-Z]{3,6}", fullmatch=True)
labels = st.from_regex(r"#[0-9]", fullmatch=True)
loads = st.integers(min_value=0, max_value=100).map(float)

T0 = datetime(2022, 1, 1, tzinfo=timezone.utc)


@st.composite
def corpus(draw):
    """A short series of valid snapshots plus the names they may use."""
    map_name = draw(st.sampled_from(list(MapName)))
    slots = draw(st.lists(st.integers(0, 500), min_size=1, max_size=5, unique=True))
    routers = draw(st.lists(node_names, min_size=2, max_size=4, unique=True))
    peerings = draw(st.lists(peering_names, min_size=0, max_size=2, unique=True))
    pool = routers + peerings
    series = []
    for slot in sorted(slots):
        snapshot = MapSnapshot(
            map_name=map_name, timestamp=T0 + timedelta(minutes=5 * slot)
        )
        for name in pool:
            snapshot.add_node(Node.from_name(name))
        for _ in range(draw(st.integers(0, 5))):
            a = draw(st.sampled_from(routers))
            b = draw(st.sampled_from(pool))
            if a == b:
                continue
            snapshot.add_link(
                Link(
                    a=LinkEnd(a, draw(labels), draw(loads)),
                    b=LinkEnd(b, draw(labels), draw(loads)),
                )
            )
        series.append(snapshot)
    return series, pool


@st.composite
def predicate_for(draw, series, pool):
    """An arbitrary valid predicate over (roughly) the corpus's domain."""
    start = end = None
    if draw(st.booleans()):
        first, last = series[0].timestamp, series[-1].timestamp
        span = max(1, int((last - first).total_seconds() // 60))
        start = first + timedelta(minutes=draw(st.integers(-10, span)))
    if draw(st.booleans()):
        base = start if start is not None else series[0].timestamp
        end = base + timedelta(minutes=draw(st.integers(0, 500)))
    node = draw(st.none() | st.sampled_from(pool) | node_names)
    link = None
    if draw(st.booleans()):
        first_end = draw(st.sampled_from(pool))
        second_end = draw(st.sampled_from(pool) | node_names)
        if first_end != second_end:
            link = (first_end, second_end)
    min_load = draw(st.none() | st.integers(0, 100).map(float))
    max_load = None
    if draw(st.booleans()):
        floor = int(min_load) if min_load is not None else 0
        max_load = float(draw(st.integers(floor, 100)))
    return ScanPredicate(
        start=start, end=end, node=node, link=link,
        min_load=min_load, max_load=max_load,
    )


def oracle_matches(series, predicate: ScanPredicate):
    """The predicate's meaning, restated over the snapshot objects."""
    out = []
    for snapshot in series:
        if predicate.start is not None and snapshot.timestamp < predicate.start:
            continue
        if predicate.end is not None and snapshot.timestamp >= predicate.end:
            continue
        for link in snapshot.links:
            endpoints = (link.a.node, link.b.node)
            if predicate.node is not None and predicate.node not in endpoints:
                continue
            if predicate.link is not None and set(endpoints) != set(predicate.link):
                continue
            peak = max(link.a.load, link.b.load)
            if predicate.min_load is not None and peak < predicate.min_load:
                continue
            if predicate.max_load is not None and peak > predicate.max_load:
                continue
            out.append(
                (
                    snapshot.timestamp,
                    link.a.node, link.a.label, link.a.load,
                    link.b.node, link.b.label, link.b.load,
                )
            )
    return out


def scan_records(engine: MappedIndex, predicate: ScanPredicate):
    return [
        (r.timestamp, r.node_a, r.label_a, r.load_a, r.node_b, r.label_b, r.load_b)
        for r in engine.scan(predicate).records()
    ]


@st.composite
def corpus_and_predicate(draw):
    series, pool = draw(corpus())
    return series, draw(predicate_for(series, pool))


@given(corpus_and_predicate())
@settings(max_examples=60, deadline=None)
def test_scan_equals_object_path(case):
    series, predicate = case
    index = SnapshotIndex(series[0].map_name)
    for snapshot in series:
        index.append_snapshot(snapshot, size=1, mtime_ns=1)
    expected = oracle_matches(series, predicate)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "index.bin"
        index.save(path)
        with MappedIndex.open(path, series[0].map_name) as engine:
            got = scan_records(engine, predicate)
    assert got == expected


@given(corpus())
@settings(max_examples=30, deadline=None)
def test_full_scan_is_every_link_occurrence(case):
    series, _ = case
    index = SnapshotIndex(series[0].map_name)
    for snapshot in series:
        index.append_snapshot(snapshot, size=1, mtime_ns=1)
    expected = oracle_matches(series, ScanPredicate())
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "index.bin"
        index.save(path)
        with MappedIndex.open(path, series[0].map_name) as engine:
            result = engine.scan()
            assert len(result) == sum(len(s.links) for s in series)
            assert scan_records(engine, ScanPredicate()) == expected
            assert [float(v) for v in result.directed_loads()] == [
                load
                for row in expected
                for load in (row[3], row[6])
            ]
