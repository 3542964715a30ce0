"""Unit tests for loading stored datasets back as snapshot streams."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.constants import MapName
from repro.dataset.loader import iter_snapshots, latest_snapshot, load_all
from repro.dataset.store import DatasetStore
from repro.errors import SchemaError
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
from repro.yamlio.serialize import snapshot_to_yaml

T0 = datetime(2022, 3, 1, tzinfo=timezone.utc)


def _snapshot(when: datetime, load: float = 10) -> MapSnapshot:
    snapshot = MapSnapshot(map_name=MapName.EUROPE, timestamp=when)
    snapshot.add_node(Node.from_name("r1"))
    snapshot.add_node(Node.from_name("r2"))
    snapshot.add_link(Link(LinkEnd("r1", "#1", load), LinkEnd("r2", "#1", load)))
    return snapshot


@pytest.fixture()
def store(tmp_path) -> DatasetStore:
    store = DatasetStore(tmp_path)
    for index in range(5):
        when = T0 + timedelta(minutes=5 * index)
        store.write(
            MapName.EUROPE, when, "yaml", snapshot_to_yaml(_snapshot(when, load=index))
        )
    return store


class TestIteration:
    def test_all_in_order(self, store):
        snapshots = load_all(store, MapName.EUROPE)
        assert len(snapshots) == 5
        times = [s.timestamp for s in snapshots]
        assert times == sorted(times)

    def test_window_filtering(self, store):
        snapshots = load_all(
            store,
            MapName.EUROPE,
            start=T0 + timedelta(minutes=5),
            end=T0 + timedelta(minutes=15),
        )
        assert len(snapshots) == 2

    def test_empty_map(self, store):
        assert load_all(store, MapName.WORLD) == []

    def test_filename_timestamp_authoritative(self, store, tmp_path):
        # Write a document whose embedded timestamp lies.
        lying = _snapshot(T0)
        text = snapshot_to_yaml(lying).replace(
            T0.isoformat(), (T0 - timedelta(days=9)).isoformat()
        )
        when = T0 + timedelta(hours=1)
        store.write(MapName.EUROPE, when, "yaml", text)
        latest = latest_snapshot(store, MapName.EUROPE)
        assert latest.timestamp == when


class TestErrorHandling:
    def test_corrupt_file_propagates_by_default(self, store):
        when = T0 + timedelta(hours=2)
        store.write(MapName.EUROPE, when, "yaml", "routers: [unclosed")
        with pytest.raises(SchemaError):
            load_all(store, MapName.EUROPE)

    def test_corrupt_file_skipped_with_handler(self, store):
        when = T0 + timedelta(hours=2)
        store.write(MapName.EUROPE, when, "yaml", "routers: [unclosed")
        errors = []
        snapshots = list(
            iter_snapshots(
                store,
                MapName.EUROPE,
                on_error=lambda ref, exc: errors.append(ref.timestamp),
            )
        )
        assert len(snapshots) == 5
        assert errors == [when]


class TestLatest:
    def test_latest(self, store):
        latest = latest_snapshot(store, MapName.EUROPE)
        assert latest is not None
        assert latest.links[0].a.load == 4  # written last

    def test_latest_empty(self, store):
        assert latest_snapshot(store, MapName.WORLD) is None

    def test_latest_walks_past_trailing_corruption(self, store):
        # A campaign dying mid-write leaves the newest file truncated; the
        # loader must fall back to the newest snapshot that still parses.
        store.write(MapName.EUROPE, T0 + timedelta(hours=2), "yaml", "routers: [unclosed")
        store.write(MapName.EUROPE, T0 + timedelta(hours=3), "yaml", "")
        latest = latest_snapshot(store, MapName.EUROPE)
        assert latest is not None
        assert latest.timestamp == T0 + timedelta(minutes=20)
        assert latest.links[0].a.load == 4

    def test_latest_all_corrupt_is_none(self, store, tmp_path):
        other = DatasetStore(tmp_path / "all-corrupt")
        other.write(MapName.EUROPE, T0, "yaml", "routers: [unclosed")
        assert latest_snapshot(other, MapName.EUROPE) is None


class TestIndexFastPath:
    def test_index_and_yaml_paths_agree(self, store):
        from repro.dataset.shards import compact_map_shards, verify_shards

        via_yaml = load_all(store, MapName.EUROPE, use_index=False)
        compact_map_shards(store, MapName.EUROPE)
        assert verify_shards(store, MapName.EUROPE) is not None
        assert load_all(store, MapName.EUROPE) == via_yaml
        assert list(iter_snapshots(store, MapName.EUROPE)) == via_yaml

    def test_stale_index_ignored(self, store):
        from repro.dataset.shards import compact_map_shards

        compact_map_shards(store, MapName.EUROPE)
        when = T0 + timedelta(hours=1)
        store.write(MapName.EUROPE, when, "yaml", snapshot_to_yaml(_snapshot(when, load=9)))
        assert len(load_all(store, MapName.EUROPE)) == 6


class TestPoolCollapse:
    """The loaders never open a process pool: the index tier maps shards
    and the YAML tier reads serially, where a pool measured slower."""

    def test_fresh_index_never_spawns_a_pool(self, store, monkeypatch):
        from repro.dataset import workers as workers_module
        from repro.dataset.shards import compact_map_shards

        serial = load_all(store, MapName.EUROPE, use_index=False)
        compact_map_shards(store, MapName.EUROPE)

        def forbidden(*args, **kwargs):
            raise AssertionError("no process pool may be spawned here")

        monkeypatch.setattr(workers_module, "process_pool", forbidden)
        assert load_all(store, MapName.EUROPE) == serial
        assert load_all(store, MapName.EUROPE, use_index=False) == serial

    def test_single_core_host_collapses_any_request(self, monkeypatch):
        import repro.dataset.workers as workers_module

        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 1)
        from repro.dataset.workers import resolve_workers

        assert resolve_workers(8) == 1
        assert resolve_workers("auto") == 1
        assert resolve_workers(0) == 1
