"""Tests for the vectorised index-backed analysis accessors.

Each accessor's ground truth is the object path run over the same data:
``imbalance_samples`` must match ``collect_imbalances(load_all(...))``
and ``count_series`` must match ``evolution_from_snapshots(load_all(...))``
element for element, over the mapped engine and its buffered fallback.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from repro.analysis.columnar import count_series, imbalance_samples
from repro.analysis.imbalance import collect_imbalances
from repro.analysis.infrastructure import evolution_from_snapshots
from repro.analysis.loads import collect_load_samples
from repro.constants import MapName
from repro.dataset import index as index_module
from repro.dataset.index import SnapshotIndex, build_index
from repro.dataset.loader import load_all
from repro.dataset.query import MappedIndex, ScanPredicate
from repro.dataset.store import DatasetStore
from repro.errors import AnalysisError
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
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
def built(store) -> None:
    build_index(MAP, list(store.iter_refs(MAP, "yaml")), store.root / "index.bin")


@pytest.fixture(scope="module", params=["heap", "mapped"])
def index(request, store, built):
    """The engine over an in-heap buffered read, and over an mmap.

    Each accessor test therefore runs twice — the analyses are the same
    over either of :meth:`MappedIndex.open`'s data sources.
    """
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "heap":
            patch.setattr(index_module, "_mmap", None)
        engine = MappedIndex.open(store.root / "index.bin", MAP)
    assert engine.mapped is (request.param == "mapped")
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def snapshots(store):
    return load_all(store, MAP, use_index=False)


class TestLoadSamples:
    """The Figure 5 load samples: ``scan().directed_loads()`` is the
    columnar path to ``collect_load_samples(...).all_loads``."""

    def test_identical_to_object_path(self, index, snapshots):
        expected = collect_load_samples(snapshots)
        assert index.scan().directed_loads() == expected.all_loads

    def test_windowed(self, index, snapshots):
        start = T0 + timedelta(hours=1)
        end = T0 + timedelta(hours=4)
        expected = collect_load_samples(
            s for s in snapshots if start <= s.timestamp < end
        )
        got = index.scan(ScanPredicate(start=start, end=end)).directed_loads()
        assert got == expected.all_loads


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


class TestEmptyIndex:
    def test_all_accessors_tolerate_empty(self, tmp_path):
        path = tmp_path / "index.bin"
        SnapshotIndex(MAP).save(path)
        with MappedIndex.open(path, MAP) as engine:
            assert engine.scan().directed_loads() == []
            assert imbalance_samples(engine).all_values == []
            with pytest.raises(AnalysisError):
                count_series(engine)
