"""Tests for the vectorised index-backed analysis accessors.

Each accessor's ground truth is the object path run over the same data:
``load_samples`` must match ``collect_load_samples(load_all(...))``
element for element, and the lifetime/matrix accessors must agree with a
brute-force walk over the reconstructed snapshots.
"""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import pytest

from repro.analysis.columnar import (
    count_series,
    directed_load_columns,
    imbalance_samples,
    link_lifetimes,
    link_load_series,
    load_matrix,
    load_samples,
    node_lifetimes,
)
from repro.analysis.imbalance import collect_imbalances
from repro.analysis.infrastructure import evolution_from_snapshots
from repro.analysis.loads import collect_load_samples
from repro.constants import MapName
from repro.dataset.index import SnapshotIndex, build_index
from repro.dataset.loader import load_all
from repro.dataset.query import MappedIndex
from repro.dataset.store import DatasetStore
from repro.errors import AnalysisError
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node, NodeKind
from repro.yamlio.serialize import snapshot_to_yaml

T0 = datetime(2022, 3, 6, 22, 0, tzinfo=timezone.utc)  # Sunday, crosses midnight
MAP = MapName.EUROPE
HOURS = 6


def _snapshot(when: datetime, step: int) -> MapSnapshot:
    """A small topology that churns: r3 and its link exist only early on."""
    snapshot = MapSnapshot(map_name=MAP, timestamp=when)
    snapshot.add_node(Node.from_name("fra-r1"))
    snapshot.add_node(Node.from_name("par-r2"))
    snapshot.add_node(Node.from_name("AMS-IX"))
    snapshot.add_link(
        Link(LinkEnd("fra-r1", "#1", float(10 + step)), LinkEnd("par-r2", "#1", float(step)))
    )
    # A second fra-r1<->par-r2 link makes the pair an ECMP parallel
    # group, so the imbalance analyses have internal samples.
    snapshot.add_link(
        Link(LinkEnd("fra-r1", "#3", float(20 + step)), LinkEnd("par-r2", "#3", 8.0))
    )
    snapshot.add_link(
        Link(LinkEnd("par-r2", "#2", 30.0), LinkEnd("AMS-IX", "#1", 2.0))
    )
    # ... and a second par-r2<->AMS-IX link provides an external group.
    snapshot.add_link(
        Link(LinkEnd("par-r2", "#4", 25.0), LinkEnd("AMS-IX", "#2", 3.0))
    )
    if step < 3:
        snapshot.add_node(Node.from_name("waw-r3"))
        snapshot.add_link(
            Link(LinkEnd("waw-r3", "#1", 5.0), LinkEnd("fra-r1", "#2", 6.0))
        )
    return snapshot


@pytest.fixture(scope="module")
def store(tmp_path_factory) -> DatasetStore:
    store = DatasetStore(tmp_path_factory.mktemp("columnar"))
    for step in range(HOURS):
        when = T0 + timedelta(hours=step)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, step)))
    return store


@pytest.fixture(scope="module")
def built(store) -> SnapshotIndex:
    built, _ = build_index(MAP, list(store.iter_refs(MAP, "yaml")), store.root / "index.bin")
    return built


@pytest.fixture(scope="module", params=["heap", "mapped"])
def index(request, store, built):
    """Every ColumnSource: the in-heap index and the mapped engine.

    Each accessor test therefore runs twice — proving the vectorised
    analyses are source-agnostic, exactly as the ``ColumnSource`` union
    promises.
    """
    if request.param == "heap":
        yield built
        return
    engine = MappedIndex.open(store.root / "index.bin")
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def snapshots(store):
    return load_all(store, MAP, use_index=False)


class TestLoadSamples:
    def test_identical_to_object_path(self, index, snapshots):
        expected = collect_load_samples(snapshots)
        got = load_samples(index)
        assert got.internal == expected.internal
        assert got.external == expected.external
        assert got.hours == expected.hours
        assert got.weekdays == expected.weekdays
        assert got.all_loads == expected.all_loads

    def test_windowed(self, index, snapshots):
        start = T0 + timedelta(hours=1)
        end = T0 + timedelta(hours=4)
        expected = collect_load_samples(
            s for s in snapshots if start <= s.timestamp < end
        )
        got = load_samples(index, start=start, end=end)
        assert got.all_loads == expected.all_loads
        assert got.internal == expected.internal
        assert got.external == expected.external

    def test_directed_columns_shape(self, index, snapshots):
        columns = directed_load_columns(index)
        total_links = sum(len(s.links) for s in snapshots)
        assert len(columns) == 2 * total_links
        # Hour/weekday derive from the snapshot timestamp (UTC).
        assert columns.hours[0] == 22
        assert columns.weekdays[0] == 6  # T0 is a Sunday
        # The series crosses midnight into Monday.
        assert 0 in columns.weekdays


class TestNodeLifetimes:
    def test_matches_brute_force(self, index, snapshots):
        lifetimes = node_lifetimes(index)
        names = {name for s in snapshots for name in s.nodes}
        assert set(lifetimes) == names
        for name in names:
            seen = [s.timestamp for s in snapshots if name in s.nodes]
            lifetime = lifetimes[name]
            assert lifetime.first_seen == min(seen)
            assert lifetime.last_seen == max(seen)
            assert lifetime.snapshots == len(seen)

    def test_kinds(self, index):
        lifetimes = node_lifetimes(index)
        assert lifetimes["fra-r1"].kind is NodeKind.ROUTER
        assert lifetimes["AMS-IX"].kind is NodeKind.PEERING

    def test_churned_node_bounded(self, index):
        lifetime = node_lifetimes(index)["waw-r3"]
        assert lifetime.first_seen == T0
        assert lifetime.last_seen == T0 + timedelta(hours=2)
        assert lifetime.snapshots == 3


class TestLinkLifetimes:
    def test_presence_accounts_for_every_link(self, index, snapshots):
        lifetimes = link_lifetimes(index)
        total_links = sum(len(s.links) for s in snapshots)
        assert sum(l.snapshots for l in lifetimes.values()) == total_links

    def test_direction_insensitive_key(self, index, snapshots):
        lifetimes = link_lifetimes(index)
        for s in snapshots:
            for link in s.links:
                forward = (link.a.node, link.a.label, link.b.node, link.b.label)
                backward = (link.b.node, link.b.label, link.a.node, link.a.label)
                assert (forward in lifetimes) != (backward in lifetimes) or (
                    forward == backward
                )

    def test_churned_link_bounded(self, index):
        lifetimes = link_lifetimes(index)
        key = next(k for k in lifetimes if "waw-r3" in (k[0], k[2]))
        assert lifetimes[key].snapshots == 3
        assert lifetimes[key].last_seen == T0 + timedelta(hours=2)


class TestLoadMatrix:
    def test_values_match_snapshots(self, index, snapshots):
        matrix = load_matrix(index)
        assert matrix.forward.shape == (len(snapshots), len(matrix.keys))
        assert matrix.times() == [s.timestamp for s in snapshots]
        for row, snapshot in enumerate(snapshots):
            for link in snapshot.links:
                forward = (link.a.node, link.a.label, link.b.node, link.b.label)
                if forward in matrix.keys:
                    expected_fwd, expected_rev = link.a.load, link.b.load
                    key = forward
                else:
                    key = (link.b.node, link.b.label, link.a.node, link.a.label)
                    expected_fwd, expected_rev = link.b.load, link.a.load
                fwd, rev = matrix.series(key)
                assert fwd[row] == expected_fwd
                assert rev[row] == expected_rev

    def test_absent_links_are_nan(self, index, snapshots):
        matrix = load_matrix(index)
        key = next(k for k in matrix.keys if "waw-r3" in (k[0], k[2]))
        fwd, _ = matrix.series(key)
        assert not math.isnan(fwd[0])
        assert math.isnan(fwd[len(snapshots) - 1])

    def test_windowed_matrix(self, index, snapshots):
        start = T0 + timedelta(hours=3)
        matrix = load_matrix(index, start=start)
        survivors = [s for s in snapshots if s.timestamp >= start]
        assert matrix.forward.shape[0] == len(survivors)
        # The churned link never appears in this window at all.
        assert all("waw-r3" not in (k[0], k[2]) for k in matrix.keys)


class TestImbalanceSamples:
    def test_identical_to_object_path(self, index, snapshots):
        expected = collect_imbalances(snapshots)
        got = imbalance_samples(index)
        assert got.internal == expected.internal
        assert got.external == expected.external
        assert len(got.all_values) > 0

    def test_windowed(self, index, snapshots):
        start = T0 + timedelta(hours=1)
        end = T0 + timedelta(hours=4)
        expected = collect_imbalances(
            s for s in snapshots if start <= s.timestamp < end
        )
        got = imbalance_samples(index, start=start, end=end)
        assert got.internal == expected.internal
        assert got.external == expected.external

    def test_minimum_load_threshold_matches(self, index, snapshots):
        for threshold in (0.0, 5.0, 50.0):
            expected = collect_imbalances(snapshots, minimum_load=threshold)
            got = imbalance_samples(index, minimum_load=threshold)
            assert got.internal == expected.internal
            assert got.external == expected.external


class TestCountSeries:
    def test_identical_to_object_path(self, index, snapshots):
        expected = evolution_from_snapshots(snapshots)
        got = count_series(index)
        assert got.map_name is expected.map_name
        for attribute in ("routers", "internal_links", "external_links"):
            assert getattr(got, attribute).times == getattr(expected, attribute).times
            assert (
                getattr(got, attribute).values == getattr(expected, attribute).values
            )

    def test_windowed(self, index, snapshots):
        start = T0 + timedelta(hours=2)
        expected = evolution_from_snapshots(
            s for s in snapshots if s.timestamp >= start
        )
        got = count_series(index, start=start)
        assert got.routers.values == expected.routers.values
        assert got.routers.times == expected.routers.times

    def test_empty_window_raises_like_the_object_path(self, index):
        with pytest.raises(AnalysisError):
            count_series(index, end=T0 - timedelta(days=1))


class TestLinkLoadSeries:
    def test_matches_object_path_both_orientations(self, index, snapshots):
        key = ("fra-r1", "#1", "par-r2", "#1")
        forward, reverse = link_load_series(index, key)

        def is_key(link):
            return (link.a.node, link.a.label, link.b.node, link.b.label) == key

        expected_times = tuple(
            s.timestamp for s in snapshots for link in s.links if is_key(link)
        )
        expected_forward = tuple(
            link.load_from("fra-r1")
            for s in snapshots
            for link in s.links
            if is_key(link)
        )
        assert forward.times == expected_times
        assert forward.values == expected_forward
        # The flipped key swaps which direction is "forward".
        flipped_forward, flipped_reverse = link_load_series(
            index, ("par-r2", "#1", "fra-r1", "#1")
        )
        assert flipped_forward.values == reverse.values
        assert flipped_reverse.values == forward.values

    def test_churned_link_contributes_only_where_present(self, index):
        forward, _ = link_load_series(index, ("waw-r3", "#1", "fra-r1", "#2"))
        assert len(forward.times) == 3
        assert forward.values == (5.0, 5.0, 5.0)

    def test_windowed(self, index):
        start = T0 + timedelta(hours=2)
        forward, _ = link_load_series(
            index, ("waw-r3", "#1", "fra-r1", "#2"), start=start
        )
        assert len(forward.times) == 1

    def test_unknown_key_yields_empty_series(self, index):
        forward, reverse = link_load_series(index, ("nope", "#1", "fra-r1", "#1"))
        assert forward.times == ()
        assert reverse.times == ()


class TestEmptyIndex:
    def test_all_accessors_tolerate_empty(self):
        index = SnapshotIndex(MAP)
        assert load_samples(index).all_loads == []
        assert node_lifetimes(index) == {}
        assert link_lifetimes(index) == {}
        matrix = load_matrix(index)
        assert matrix.forward.shape == (0, 0)
        assert imbalance_samples(index).all_values == []
