"""Tests for read handles (repro.dataset.handles).

:func:`resolve_read_handle` opens a map's shard indexes for the read
path, and :func:`read_generation` is the stat-cheap token the HTTP
server compares per request to know when an ingest checkpoint has moved
a map's serving index.  Both contracts are pinned here: a sharded
engine for a compacted map, ``None`` on anything unservable (a 2.x flat
dataset included), and a token that changes exactly when the shard
manifest's identity changes.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from repro.constants import MapName
from repro.dataset.handles import read_generation, resolve_read_handle
from repro.dataset.index import build_index
from repro.dataset.processor import process_svg_bytes
from repro.dataset.shards import ShardedMappedIndex, compact_map_shards
from repro.dataset.store import DatasetStore, ShardedDatasetStore

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC


@pytest.fixture(scope="module")
def reference_yaml(apac_svg) -> str:
    outcome = process_svg_bytes(apac_svg.encode("utf-8"), MAP, T0)
    assert outcome.yaml_text is not None
    return outcome.yaml_text


def flat_store(root, yaml_text: str, snapshots: int = 3) -> DatasetStore:
    """One day of snapshots in an unmarked directory, as 2.x left it."""
    store = DatasetStore(root)
    for slot in range(snapshots):
        store.write(MAP, T0 + timedelta(minutes=5 * slot), "yaml", yaml_text)
    return store


def write_flat_index(store: DatasetStore) -> Path:
    """The ``<map>/index.bin`` a 2.x flat dataset carries; 3.x never reads it."""
    path = store.root / MAP.value / "index.bin"
    build_index(MAP, list(store.iter_refs(MAP, "yaml")), path)
    return path


def sharded_store(root, yaml_text: str, days: int = 2) -> ShardedDatasetStore:
    store = ShardedDatasetStore(root)
    store.mark()
    for day in range(days):
        for slot in range(3):
            when = T0 + timedelta(days=day, minutes=5 * slot)
            store.write(MAP, when, "yaml", yaml_text)
    return store


class TestResolve:
    def test_flat_store_resolves_to_mapped_index(self, tmp_path, reference_yaml):
        store = flat_store(tmp_path, reference_yaml)
        write_flat_index(store)
        assert resolve_read_handle(store, MAP) is None  # until compacted
        compact_map_shards(store, MAP)
        handle = resolve_read_handle(store, MAP)
        assert isinstance(handle, ShardedMappedIndex)
        assert len(handle) == 3
        handle.close()

    def test_sharded_store_resolves_to_sharded_engine(
        self, tmp_path, reference_yaml
    ):
        store = sharded_store(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        handle = resolve_read_handle(store, MAP)
        assert isinstance(handle, ShardedMappedIndex)
        assert len(handle) == 6
        handle.close()

    def test_unindexed_map_resolves_to_none(self, tmp_path, reference_yaml):
        store = flat_store(tmp_path, reference_yaml)
        assert resolve_read_handle(store, MAP) is None

    def test_stale_flat_index_resolves_to_none(self, tmp_path, reference_yaml):
        store = flat_store(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        store.write(MAP, T0 + timedelta(hours=1), "yaml", reference_yaml)
        assert resolve_read_handle(store, MAP) is None
        # ... unless the caller pins a generation itself and opts out.
        handle = resolve_read_handle(store, MAP, require_fresh=False)
        assert isinstance(handle, ShardedMappedIndex)
        assert len(handle) == 3
        handle.close()


class TestGeneration:
    def test_flat_token_names_the_index_file(self, tmp_path, reference_yaml):
        store = flat_store(tmp_path, reference_yaml)
        write_flat_index(store)
        assert read_generation(store, MAP) is None  # a 2.x index is no token
        compact_map_shards(store, MAP)
        token = read_generation(store, MAP)
        assert token is not None and token[0] == "sharded"
        stat = store.shards_manifest_path(MAP).stat()
        assert token[1:] == (stat.st_ino, stat.st_size, stat.st_mtime_ns)

    def test_flat_token_changes_on_rebuild(self, tmp_path, reference_yaml):
        store = flat_store(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        before = read_generation(store, MAP)
        store.write(MAP, T0 + timedelta(hours=1), "yaml", reference_yaml)
        compact_map_shards(store, MAP)
        after = read_generation(store, MAP)
        assert before is not None and after is not None
        assert after != before

    def test_sharded_token_names_the_manifest(self, tmp_path, reference_yaml):
        store = sharded_store(tmp_path, reference_yaml)
        assert read_generation(store, MAP) is None  # never compacted
        compact_map_shards(store, MAP)
        token = read_generation(store, MAP)
        assert token is not None and token[0] == "sharded"

    def test_sharded_token_changes_on_compaction(
        self, tmp_path, reference_yaml
    ):
        store = sharded_store(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        before = read_generation(store, MAP)
        new_day = T0 + timedelta(days=7)
        store.write(MAP, new_day, "yaml", reference_yaml)
        compact_map_shards(store, MAP, only=["2022-09-19"])
        after = read_generation(store, MAP)
        assert before is not None and after is not None
        assert after != before  # manifest rewritten atomically

    def test_untouched_map_keeps_its_token(self, tmp_path, reference_yaml):
        store = sharded_store(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        first = read_generation(store, MAP)
        second = read_generation(store, MAP)
        assert first == second


class TestLazyShardOpening:
    """Satellite of PR 8: shard pruning must keep unqueried days unmapped."""

    def test_fresh_handle_opens_nothing(self, tmp_path, reference_yaml):
        store = sharded_store(tmp_path, reference_yaml, days=3)
        compact_map_shards(store, MAP)
        handle = resolve_read_handle(store, MAP)
        assert isinstance(handle, ShardedMappedIndex)
        assert handle.opened_shard_keys == []
        assert len(handle) == 9  # row counts come from manifest hints
        handle.close()

    def test_windowed_scan_opens_only_overlapping_shards(
        self, tmp_path, reference_yaml
    ):
        from repro.dataset.query import ScanPredicate

        store = sharded_store(tmp_path, reference_yaml, days=3)
        compact_map_shards(store, MAP)
        handle = resolve_read_handle(store, MAP)
        assert isinstance(handle, ShardedMappedIndex)
        day2 = T0 + timedelta(days=1)
        result = handle.scan(
            ScanPredicate(start=day2, end=day2 + timedelta(days=1))
        )
        assert result.snapshot_count == 3
        assert handle.opened_shard_keys == ["2022-09-13"]
        handle.close()
