"""Conformance suite for :class:`DatasetStore`, the one store.

The store must keep the same contract over an unmarked (2.x flat) and a
marked directory: writes round-trip, ``iter_refs`` is time-ordered,
missing reads raise the typed error, stat keys change on overwrite.
"""

from __future__ import annotations

import ast
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from repro.constants import MapName
from repro.dataset.store import (
    DatasetStore,
    LAYOUT_FILE_NAME,
    ShardedDatasetStore,
    SnapshotRef,
    open_store,
    parse_shard_key,
    shard_key,
)
from repro.errors import DatasetError, SnapshotNotFoundError

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

BACKENDS = ("flat", "sharded")


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    """One store per directory kind, rooted in a fresh dir.

    ``flat`` is a directory without the ``layout.json`` marker, as 2.x
    left flat datasets; the store must behave the same on it.
    """
    if request.param == "flat":
        return DatasetStore(tmp_path / "flat")
    store = ShardedDatasetStore(tmp_path / "sharded")
    store.mark()
    return store


class TestProtocolConformance:
    def test_write_read_round_trip(self, backend):
        ref = backend.write(MAP, T0, "svg", "<svg>one</svg>")
        assert ref.map_name is MAP
        assert ref.kind == "svg"
        assert ref.size_bytes == len(b"<svg>one</svg>")
        assert backend.read_bytes(MAP, T0, "svg") == b"<svg>one</svg>"
        assert backend.read_ref(ref) == b"<svg>one</svg>"

    def test_bytes_written_verbatim(self, backend):
        payload = b"\x00\xffraw"
        backend.write(MAP, T0, "yaml", payload)
        assert backend.read_bytes(MAP, T0, "yaml") == payload

    def test_missing_read_raises_typed(self, backend):
        with pytest.raises(SnapshotNotFoundError):
            backend.read_bytes(MAP, T0, "svg")
        # A ref whose underlying snapshot was never written must raise too.
        never = T0 + timedelta(hours=1)
        ghost = SnapshotRef(
            map_name=MAP,
            timestamp=never,
            kind="svg",
            path=backend.path_for(MAP, never, "svg"),
        )
        with pytest.raises(SnapshotNotFoundError):
            backend.read_ref(ghost)

    def test_unknown_kind_rejected(self, backend):
        with pytest.raises(DatasetError):
            backend.path_for(MAP, T0, "png")
        with pytest.raises(DatasetError):
            backend.write(MAP, T0, "png", "data")

    def test_iter_refs_time_ordered_and_filtered(self, backend):
        for minutes in (10, 0, 5):
            backend.write(MAP, T0 + timedelta(minutes=minutes), "svg", f"<{minutes}>")
        backend.write(MAP, T0, "yaml", "other kind")
        backend.write(MapName.EUROPE, T0, "svg", "other map")
        refs = list(backend.iter_refs(MAP, "svg"))
        assert [ref.timestamp for ref in refs] == [
            T0,
            T0 + timedelta(minutes=5),
            T0 + timedelta(minutes=10),
        ]
        assert all(ref.kind == "svg" and ref.map_name is MAP for ref in refs)

    def test_timestamps_and_file_stats(self, backend):
        backend.write(MAP, T0, "svg", "abc")
        backend.write(MAP, T0 + timedelta(minutes=5), "svg", "defgh")
        assert backend.timestamps(MAP, "svg") == [T0, T0 + timedelta(minutes=5)]
        count, total = backend.file_stats(MAP, "svg")
        assert (count, total) == (2, 8)

    def test_stat_key_changes_on_overwrite(self, backend):
        first = backend.write(MAP, T0, "svg", "short")
        first_key = first.stat_key()
        second = backend.write(MAP, T0, "svg", "rather longer payload")
        assert second.stat_key() != first_key

    def test_ref_stat_hints_match_contents(self, backend):
        backend.write(MAP, T0, "svg", "payload")
        (ref,) = backend.iter_refs(MAP, "svg")
        size, _ = ref.stat_key()
        assert size == len(b"payload")
        assert ref.size_bytes == len(b"payload")

    def test_manifest_and_index_paths_are_per_map(self, backend):
        assert backend.manifest_path(MAP) != backend.manifest_path(MapName.EUROPE)
        assert backend.shards_manifest_path(MAP) != backend.shards_manifest_path(
            MapName.EUROPE
        )


class TestShardSurface:
    def test_shard_key_round_trip(self):
        assert shard_key(T0) == "2022-09-12"
        assert parse_shard_key("2022-09-12") == datetime(
            2022, 9, 12, tzinfo=timezone.utc
        )

    @pytest.mark.parametrize("bad", ["2022/09/12", "20220912", "2022-9-12", "x"])
    def test_bad_shard_key_rejected(self, bad):
        with pytest.raises(DatasetError):
            parse_shard_key(bad)

    def test_shard_keys_and_members(self, tmp_path):
        store = ShardedDatasetStore(tmp_path)
        days = (T0, T0 + timedelta(days=1), T0 + timedelta(days=3))
        for day in days:
            for minutes in (5, 0):
                store.write(MAP, day + timedelta(minutes=minutes), "yaml", "y")
        assert store.shard_keys(MAP, "yaml") == [
            "2022-09-12",
            "2022-09-13",
            "2022-09-15",
        ]
        refs = list(store.iter_shard_refs(MAP, "yaml", "2022-09-13"))
        assert [ref.timestamp for ref in refs] == [
            days[1],
            days[1] + timedelta(minutes=5),
        ]
        assert list(store.iter_shard_refs(MAP, "yaml", "2021-01-01")) == []

    def test_shard_index_path_validates_key(self, tmp_path):
        store = ShardedDatasetStore(tmp_path)
        assert store.shard_index_path(MAP, "2022-09-12").name == "index.bin"
        with pytest.raises(DatasetError):
            store.shard_index_path(MAP, "../escape")


class TestOpenStore:
    def test_sharded_name_is_the_store(self):
        assert ShardedDatasetStore is DatasetStore

    def test_default_is_flat(self, tmp_path):
        # An unmarked (2.x flat) directory opens as the one store.
        store = open_store(tmp_path)
        assert type(store) is DatasetStore
        assert not (tmp_path / LAYOUT_FILE_NAME).exists()

    def test_marked_dataset_reopens_sharded(self, tmp_path):
        DatasetStore(tmp_path).mark()
        marker = json.loads((tmp_path / LAYOUT_FILE_NAME).read_text(encoding="utf-8"))
        assert marker == {"layout": "sharded", "version": 1}
        assert type(open_store(tmp_path)) is DatasetStore

    def test_corrupt_marker_falls_back_to_flat(self, tmp_path):
        # The marker is write-only now: a corrupt one changes nothing.
        (tmp_path / LAYOUT_FILE_NAME).write_text("{not json", encoding="utf-8")
        assert type(open_store(tmp_path)) is DatasetStore

    def test_unknown_layout_falls_back_to_flat(self, tmp_path):
        (tmp_path / LAYOUT_FILE_NAME).write_text(
            json.dumps({"layout": "columnar-v9"}), encoding="utf-8"
        )
        assert type(open_store(tmp_path)) is DatasetStore


def _store_classes(source: str) -> list[str]:
    """Classes that define both ``read_ref`` and ``iter_refs``: stores."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            methods = {
                item.name
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if {"read_ref", "iter_refs"} <= methods:
                found.append(node.name)
    return found


class TestOneStore:
    def test_dataset_store_is_the_only_store(self):
        offenders = [
            f"{path.relative_to(PACKAGE.parent)}:{name}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for name in _store_classes(path.read_text(encoding="utf-8"))
            if name != "DatasetStore"
        ]
        assert offenders == [], (
            "the dataset is a directory: read and write it through "
            f"repro.dataset.store.DatasetStore; found other stores {offenders}"
        )

    def test_the_scan_sees_the_store_itself(self):
        # Guards the scan: the one store must register as one.
        source = (PACKAGE / "dataset" / "store.py").read_text(encoding="utf-8")
        assert _store_classes(source) == ["DatasetStore"]
