"""Tests for the zero-copy mmap query engine.

The contracts under test: both data sources (the ``mmap`` mapping and
the buffered-read fallback taken where ``mmap`` is unavailable) expose
identical columns and produce identical scan selections; every
predicate-pushdown scan returns exactly what a brute-force walk over the
reconstructed snapshots returns; and the mapping's lifecycle is safe —
an open engine keeps serving its generation across an atomic index
rebuild and detects the supersession as :class:`StaleIndexError`.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest

from repro.constants import MapName
from repro.dataset.index import IndexFile, SnapshotIndex, build_index, parse_index_layout
from repro.dataset.loader import load_all
from repro.dataset import index as index_module
from repro.dataset.handles import resolve_read_handle
from repro.dataset.query import MappedIndex, ScanPredicate
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import DatasetStore
from repro.errors import (
    DatasetError,
    QueryError,
    SnapshotIndexError,
    StaleIndexError,
)
from repro.telemetry import MetricsRegistry, use_registry
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
from repro.yamlio.serialize import snapshot_to_yaml
from tests.test_dataset_index import FOREIGN, write_foreign_endian

T0 = datetime(2022, 3, 6, 22, 0, tzinfo=timezone.utc)
MAP = MapName.EUROPE
FILES = 6

#: Where an engine's bytes come from: the mapping, or (``no-mmap``) the
#: buffered read ``MappedIndex.open`` falls back to when ``mmap`` is
#: unavailable.
SOURCES = ("mmap", "no-mmap")


def _open(path, source, monkeypatch):
    with monkeypatch.context() as patch:
        if source == "no-mmap":
            patch.setattr(index_module, "_mmap", None)
        engine = MappedIndex.open(path, MAP)
    assert engine.mapped is (source == "mmap")
    return engine


def _snapshot(when: datetime, step: int) -> MapSnapshot:
    """A churning topology with load spread across the [0, 100] range."""
    snapshot = MapSnapshot(map_name=MAP, timestamp=when)
    snapshot.add_node(Node.from_name("fra-r1"))
    snapshot.add_node(Node.from_name("par-r2"))
    snapshot.add_node(Node.from_name("AMS-IX"))
    snapshot.add_link(
        Link(
            LinkEnd("fra-r1", "#1", float(10 * step)),
            LinkEnd("par-r2", "#1", float(step)),
        )
    )
    snapshot.add_link(
        Link(LinkEnd("par-r2", "#2", 30.0), LinkEnd("AMS-IX", "#1", 2.0))
    )
    if step < 3:
        snapshot.add_node(Node.from_name("waw-r3"))
        snapshot.add_link(
            Link(LinkEnd("waw-r3", "#1", 5.0), LinkEnd("fra-r1", "#2", 6.0))
        )
    return snapshot


def _object_links(snapshots):
    """Brute-force oracle: every link occurrence, fully resolved."""
    rows = []
    for snapshot in snapshots:
        for link in snapshot.links:
            rows.append(
                (
                    snapshot.timestamp,
                    link.a.node,
                    link.a.label,
                    link.a.load,
                    link.b.node,
                    link.b.label,
                    link.b.load,
                )
            )
    return rows


def _matches(
    links,
    start=None,
    end=None,
    node=None,
    link=None,
    min_load=None,
    max_load=None,
):
    """The predicate semantics, restated independently over the oracle."""
    out = []
    for row in links:
        when, node_a, _, load_a, node_b, _, load_b = row
        if start is not None and when < start:
            continue
        if end is not None and when >= end:
            continue
        if node is not None and node not in (node_a, node_b):
            continue
        if link is not None and {node_a, node_b} != set(link):
            continue
        peak = max(load_a, load_b)
        if min_load is not None and peak < min_load:
            continue
        if max_load is not None and peak > max_load:
            continue
        out.append(row)
    return out


def _records(result):
    return [
        (r.timestamp, r.node_a, r.label_a, r.load_a, r.node_b, r.label_b, r.load_b)
        for r in result.records()
    ]


def index_file(store: DatasetStore):
    """One index file over the whole series, opened directly."""
    return store.root / "index.bin"


def build(store: DatasetStore, rebuild: bool = False) -> SnapshotIndex:
    refs = list(store.iter_refs(MAP, "yaml"))
    return build_index(MAP, refs, index_file(store), rebuild=rebuild)[0]


@pytest.fixture()
def store(tmp_path) -> DatasetStore:
    store = DatasetStore(tmp_path)
    for step in range(FILES):
        when = T0 + timedelta(hours=step)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, step)))
    build(store)
    return store


@pytest.fixture()
def snapshots(store):
    return load_all(store, MAP, use_index=False)


@pytest.fixture(params=SOURCES)
def engine(request, store, monkeypatch):
    engine = _open(index_file(store), request.param, monkeypatch)
    yield engine
    engine.close()


class TestScanPredicateValidation:
    def test_inverted_window_rejected(self):
        with pytest.raises(QueryError):
            ScanPredicate(start=T0, end=T0 - timedelta(hours=1))

    def test_empty_node_rejected(self):
        with pytest.raises(QueryError):
            ScanPredicate(node="")

    def test_malformed_link_rejected(self):
        with pytest.raises(QueryError):
            ScanPredicate(link=("fra-r1", ""))
        with pytest.raises(QueryError):
            ScanPredicate(link=("fra-r1",))

    def test_load_bounds_must_be_percentages(self):
        with pytest.raises(QueryError):
            ScanPredicate(min_load=-0.1)
        with pytest.raises(QueryError):
            ScanPredicate(max_load=100.5)

    def test_inverted_load_bounds_rejected(self):
        with pytest.raises(QueryError):
            ScanPredicate(min_load=60.0, max_load=40.0)

    def test_query_error_is_a_dataset_value_error(self):
        with pytest.raises(DatasetError):
            ScanPredicate(node="")
        with pytest.raises(ValueError):
            ScanPredicate(node="")

    def test_filters_links_property(self):
        assert not ScanPredicate(start=T0).filters_links
        assert ScanPredicate(node="fra-r1").filters_links
        assert ScanPredicate(min_load=10.0).filters_links


class TestBackendsAgree:
    """The mapped and the buffered engine are the same data."""

    def test_columns_identical_to_loaded_index(self, store, monkeypatch):
        reference = build(store, rebuild=True)  # every twin decoded again
        for source in SOURCES:
            with _open(index_file(store), source, monkeypatch) as engine:
                assert engine.names == reference.names
                assert engine.labels == reference.labels
                assert engine.map_name is MAP
                for attribute in (
                    "timestamps",
                    "link_counts",
                    "router_counts",
                    "link_a_nodes",
                    "link_b_nodes",
                    "link_a_loads",
                    "link_b_loads",
                ):
                    assert list(getattr(engine, attribute)) == list(
                        getattr(reference, attribute)
                    ), f"{source}:{attribute}"

    def test_scans_select_the_same_elements(self, store, monkeypatch):
        predicates = [
            ScanPredicate(),
            ScanPredicate(node="fra-r1"),
            ScanPredicate(link=("fra-r1", "par-r2")),
            ScanPredicate(min_load=10.0),
            ScanPredicate(start=T0 + timedelta(hours=1), max_load=30.0),
        ]
        engines = [
            _open(index_file(store), source, monkeypatch) for source in SOURCES
        ]
        try:
            for predicate in predicates:
                selections = [
                    list(engine.scan(predicate).selected) for engine in engines
                ]
                assert all(s == selections[0] for s in selections), predicate
        finally:
            for engine in engines:
                engine.close()


class TestPredicatePushdown:
    """Every scan returns exactly what the object path returns."""

    def test_full_scan_matches_everything(self, engine, snapshots):
        result = engine.scan()
        oracle = _object_links(snapshots)
        assert len(result) == len(oracle)
        assert result.snapshot_count == FILES
        assert _records(result) == oracle

    def test_time_window_is_half_open(self, engine, snapshots):
        start = T0 + timedelta(hours=1)
        end = T0 + timedelta(hours=4)
        result = engine.scan(ScanPredicate(start=start, end=end))
        oracle = _matches(_object_links(snapshots), start=start, end=end)
        assert _records(result) == oracle
        assert result.snapshot_count == 3

    def test_node_filter(self, engine, snapshots):
        result = engine.scan(ScanPredicate(node="fra-r1"))
        oracle = _matches(_object_links(snapshots), node="fra-r1")
        assert _records(result) == oracle
        assert len(oracle) > 0

    def test_link_filter_is_orientation_blind(self, engine, snapshots):
        forward = engine.scan(ScanPredicate(link=("fra-r1", "par-r2")))
        backward = engine.scan(ScanPredicate(link=("par-r2", "fra-r1")))
        oracle = _matches(_object_links(snapshots), link=("fra-r1", "par-r2"))
        assert _records(forward) == oracle
        assert _records(backward) == oracle
        assert len(oracle) == FILES

    def test_load_thresholds_apply_to_the_busier_direction(
        self, engine, snapshots
    ):
        oracle_links = _object_links(snapshots)
        for min_load, max_load in [(10.0, None), (None, 29.0), (5.0, 30.0)]:
            result = engine.scan(
                ScanPredicate(min_load=min_load, max_load=max_load)
            )
            oracle = _matches(
                oracle_links, min_load=min_load, max_load=max_load
            )
            assert _records(result) == oracle

    def test_combined_filters(self, engine, snapshots):
        start = T0 + timedelta(hours=1)
        result = engine.scan(
            ScanPredicate(start=start, node="par-r2", min_load=25.0)
        )
        oracle = _matches(
            _object_links(snapshots), start=start, node="par-r2", min_load=25.0
        )
        assert _records(result) == oracle

    def test_unknown_names_match_nothing(self, engine):
        assert len(engine.scan(ScanPredicate(node="never-seen"))) == 0
        assert len(engine.scan(ScanPredicate(link=("fra-r1", "nope")))) == 0

    def test_directed_loads_match_object_order(self, engine, snapshots):
        expected = []
        for snapshot in snapshots:
            for link in snapshot.links:
                expected.extend([link.a.load, link.b.load])
        assert [float(v) for v in engine.scan().directed_loads()] == expected

    def test_batches_concatenate_to_the_full_result(self, engine):
        result = engine.scan(ScanPredicate(node="fra-r1"))
        one_piece = list(result.batches(size=10_000))
        many = list(result.batches(size=2))
        assert sum(len(batch) for batch in many) == len(result)
        flat = [v for batch in many for v in batch.a_loads]
        assert [float(v) for v in flat] == [
            float(v) for batch in one_piece for v in batch.a_loads
        ]

    def test_batch_size_must_be_positive(self, engine):
        with pytest.raises(QueryError):
            list(engine.scan().batches(size=0))

    def test_row_of_maps_elements_back_to_snapshots(self, engine, snapshots):
        result = engine.scan()
        oracle = _object_links(snapshots)
        times = [s.timestamp for s in snapshots]
        for element in list(result.selected)[:: max(1, len(oracle) // 7)]:
            row = result.row_of(int(element))
            assert times[row] == oracle[element][0]

    def test_empty_window_scans_cleanly(self, engine):
        result = engine.scan(
            ScanPredicate(start=T0 - timedelta(days=2), end=T0 - timedelta(days=1))
        )
        assert len(result) == 0
        assert result.snapshot_count == 0
        assert list(result.batches()) == []


class TestLifecycle:
    def test_open_engine_survives_incremental_rebuild(self, store):
        engine = MappedIndex.open(index_file(store), MAP)
        assert len(engine) == FILES
        when = T0 + timedelta(hours=FILES)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, FILES)))
        build(store)  # atomic replace under the open mapping
        # The old generation still serves, in full.
        assert len(engine) == FILES
        assert len(engine.scan()) > 0
        with pytest.raises(StaleIndexError):
            engine.check_generation()
        engine.close()
        # Reopening serves the new generation.
        with MappedIndex.open(index_file(store), MAP) as fresh:
            assert len(fresh) == FILES + 1
            fresh.check_generation()

    def test_vanished_file_is_stale(self, store):
        with MappedIndex.open(index_file(store), MAP) as engine:
            index_file(store).unlink()
            with pytest.raises(StaleIndexError):
                engine.check_generation()

    def test_stale_is_a_snapshot_index_error(self):
        assert issubclass(StaleIndexError, SnapshotIndexError)

    def test_buffer_opened_engine_has_no_generation(self, store):
        buffer = index_file(store).read_bytes()
        layout = parse_index_layout(buffer, source="memory")
        engine = MappedIndex(IndexFile(buffer, layout))
        assert len(engine.scan()) > 0
        with pytest.raises(QueryError):
            engine.check_generation()

    def test_no_mmap_fallback_is_equivalent(self, store, monkeypatch):
        mapped = MappedIndex.open(index_file(store), MAP)
        monkeypatch.setattr(index_module, "_mmap", None)
        buffered = MappedIndex.open(index_file(store), MAP)
        try:
            assert mapped.mapped is True
            assert buffered.mapped is False
            assert list(mapped.scan().selected) == list(buffered.scan().selected)
            assert _records(mapped.scan()) == _records(buffered.scan())
        finally:
            mapped.close()
            buffered.close()

    def test_missing_mmap_module_falls_back(self, store, monkeypatch):
        monkeypatch.setattr(index_module, "_mmap", None)
        with MappedIndex.open(index_file(store), MAP) as engine:
            assert engine.mapped is False
            assert len(engine) == FILES

    def test_closed_engine_refuses_scans(self, store):
        engine = MappedIndex.open(index_file(store), MAP)
        engine.close()
        assert engine.closed
        with pytest.raises(QueryError):
            engine.scan()
        with pytest.raises(QueryError):
            len(engine)
        engine.close()  # idempotent

    def test_context_manager_closes(self, store):
        with MappedIndex.open(index_file(store), MAP) as engine:
            assert not engine.closed
        assert engine.closed

    def test_foreign_endian_index_rejected(self, store):
        write_foreign_endian(index_file(store))
        with pytest.raises(SnapshotIndexError, match=f"is {FOREIGN}-endian"):
            MappedIndex.open(index_file(store), MAP)

    def test_verify_accepts_an_intact_file(self, store):
        with MappedIndex.open(index_file(store), MAP) as engine:
            engine.verify()
            assert len(engine) == FILES

    def test_verify_catches_payload_corruption(self, store):
        path = index_file(store)
        raw = bytearray(path.read_bytes())
        raw[-33] ^= 0xFF  # last payload byte, before the trailing digest
        path.write_bytes(bytes(raw))
        with MappedIndex.open(path, MAP) as engine:
            with pytest.raises(SnapshotIndexError, match="checksum"):
                engine.verify()

    def test_missing_file_is_a_snapshot_index_error(self, tmp_path):
        with pytest.raises(SnapshotIndexError):
            MappedIndex.open(tmp_path / "absent.bin", MAP)


class TestOpenQuery:
    """Opening a map's engine over its shards (``resolve_read_handle``)."""

    def test_fresh_index_is_served(self, store):
        compact_map_shards(store, MAP)
        engine = resolve_read_handle(store, MAP)
        assert engine is not None
        assert engine.map_name is MAP
        assert len(engine.scan()) > 0
        engine.close()

    def test_missing_index_returns_none(self, store):
        # YAML on disk but never compacted: nothing may serve it.
        assert resolve_read_handle(store, MAP) is None

    def test_stale_index_returns_none(self, store):
        compact_map_shards(store, MAP)
        when = T0 + timedelta(hours=FILES)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, FILES)))
        assert resolve_read_handle(store, MAP) is None

    def test_require_fresh_false_skips_the_walk(self, store):
        compact_map_shards(store, MAP)
        when = T0 + timedelta(hours=FILES)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, FILES)))
        engine = resolve_read_handle(store, MAP, require_fresh=False)
        assert engine is not None
        assert len(engine) == FILES
        engine.close()

    def test_wrong_map_returns_none(self, store):
        compact_map_shards(store, MAP)
        assert resolve_read_handle(store, MapName.WORLD) is None


class TestTelemetry:
    def test_scan_counters_and_span(self, store, snapshots):
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = MappedIndex.open(index_file(store), MAP)
            result = engine.scan(ScanPredicate(node="fra-r1"))
            engine.close()
        assert registry.get("repro_query_opens_total").value(
            map=MAP.value, source="mmap"
        ) == 1
        assert registry.get("repro_query_scans_total").value(map=MAP.value) == 1
        assert (
            registry.get("repro_query_rows_scanned_total").value(map=MAP.value)
            == FILES
        )
        assert registry.get("repro_query_links_matched_total").value(
            map=MAP.value
        ) == len(result)
        assert registry.get("repro_query_scan_seconds").count(map=MAP.value) == 1

    def test_open_query_hits_the_index_cache_counter(self, store):
        compact_map_shards(store, MAP)
        registry = MetricsRegistry()
        with use_registry(registry):
            resolve_read_handle(store, MAP).close()
            when = T0 + timedelta(hours=FILES)
            store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, FILES)))
            assert resolve_read_handle(store, MAP) is None
        cache = registry.get("repro_shard_cache_total")
        assert cache.value(map=MAP.value, outcome="hit") == 1
        assert cache.value(map=MAP.value, outcome="miss") == 1
