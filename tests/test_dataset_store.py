"""Unit tests for the dataset store layout."""

from datetime import datetime, timezone

import pytest

from repro.constants import MapName
from repro.dataset.store import (
    DatasetStore,
    format_timestamp,
    parse_timestamp,
)
from repro.errors import DatasetError, SnapshotNotFoundError

WHEN = datetime(2022, 9, 12, 10, 5, tzinfo=timezone.utc)


class TestTimestamps:
    def test_format(self):
        assert format_timestamp(WHEN) == "20220912T100500Z"

    def test_round_trip(self):
        assert parse_timestamp(format_timestamp(WHEN)) == WHEN

    def test_bad_timestamp_rejected(self):
        with pytest.raises(DatasetError):
            parse_timestamp("20220912-1005")

    def test_non_utc_normalised(self):
        from datetime import timedelta, timezone as tz

        paris = tz(timedelta(hours=2))
        local = datetime(2022, 9, 12, 12, 5, tzinfo=paris)
        assert format_timestamp(local) == "20220912T100500Z"


class TestPaths:
    def test_layout(self, tmp_path):
        store = DatasetStore(tmp_path)
        path = store.path_for(MapName.EUROPE, WHEN, "svg")
        assert path == (
            tmp_path / "europe" / "svg" / "2022" / "09" / "12"
            / "europe-20220912T100500Z.svg"
        )

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            DatasetStore(tmp_path).path_for(MapName.EUROPE, WHEN, "json")


class TestReadWrite:
    def test_write_and_read(self, tmp_path):
        store = DatasetStore(tmp_path)
        store.write(MapName.WORLD, WHEN, "svg", "<svg/>")
        assert store.read_bytes(MapName.WORLD, WHEN, "svg") == b"<svg/>"

    def test_bytes_accepted(self, tmp_path):
        store = DatasetStore(tmp_path)
        ref = store.write(MapName.WORLD, WHEN, "yaml", b"map: world")
        assert ref.size_bytes == 10

    def test_missing_snapshot_raises(self, tmp_path):
        store = DatasetStore(tmp_path)
        with pytest.raises(SnapshotNotFoundError):
            store.read_bytes(MapName.WORLD, WHEN, "svg")


class TestIteration:
    def _populate(self, store: DatasetStore) -> list[datetime]:
        from datetime import timedelta

        stamps = [WHEN + timedelta(minutes=5 * i) for i in (2, 0, 1)]
        for stamp in stamps:
            store.write(MapName.EUROPE, stamp, "svg", "<svg/>")
        return sorted(stamps)

    def test_refs_sorted_by_time(self, tmp_path):
        store = DatasetStore(tmp_path)
        expected = self._populate(store)
        refs = list(store.iter_refs(MapName.EUROPE, "svg"))
        assert [ref.timestamp for ref in refs] == expected

    def test_timestamps_helper(self, tmp_path):
        store = DatasetStore(tmp_path)
        expected = self._populate(store)
        assert store.timestamps(MapName.EUROPE) == expected

    def test_maps_isolated(self, tmp_path):
        store = DatasetStore(tmp_path)
        self._populate(store)
        assert store.timestamps(MapName.WORLD) == []

    def test_file_stats(self, tmp_path):
        store = DatasetStore(tmp_path)
        self._populate(store)
        count, size = store.file_stats(MapName.EUROPE, "svg")
        assert count == 3
        assert size == 3 * len("<svg/>")

    def test_foreign_files_ignored(self, tmp_path):
        store = DatasetStore(tmp_path)
        self._populate(store)
        junk = tmp_path / "europe" / "svg" / "2022" / "09" / "12" / "junk.svg"
        junk.write_text("not a snapshot")
        assert len(store.timestamps(MapName.EUROPE)) == 3

    def test_refs_sorted_across_day_and_month_directories(self, tmp_path):
        from datetime import timedelta

        store = DatasetStore(tmp_path)
        stamps = [WHEN + timedelta(days=days) for days in (25, 0, 19, 18)]
        for stamp in stamps:
            store.write(MapName.EUROPE, stamp, "svg", "<svg/>")
        refs = list(store.iter_refs(MapName.EUROPE, "svg"))
        assert [ref.timestamp for ref in refs] == sorted(stamps)

    def test_files_outside_their_day_directory_not_listed(self, tmp_path):
        from datetime import timedelta

        store = DatasetStore(tmp_path)
        expected = self._populate(store)
        name = f"europe-{format_timestamp(WHEN + timedelta(days=1))}.svg"
        for parent in ("", "2022", "2022/09", "2022/09/13/extra"):
            stray_dir = tmp_path / "europe" / "svg" / parent
            stray_dir.mkdir(parents=True, exist_ok=True)
            (stray_dir / name).write_text("<svg/>")
        assert store.timestamps(MapName.EUROPE) == expected
        assert store.shard_keys(MapName.EUROPE, "svg") == ["2022-09-12"]
