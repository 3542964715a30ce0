"""Tests for the columnar snapshot index.

The contract under test: an index-served load is *indistinguishable* from
the YAML path (equal snapshots, same errors in the same order), freshness
tracks the live YAML tree exactly, a damaged index file degrades to the
YAML fallback instead of failing, and incremental builds reuse unchanged
rows the way the engine's manifest reuses unchanged SVGs.

The fixture's series sits in one UTC day, so the map has exactly one
shard: :func:`build` writes that shard's index file directly, and
:func:`compact_map_shards` builds it and records it in the shard
manifest that freshness is checked against.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sys
import tempfile
import tracemalloc
from array import array
from contextlib import closing
from copy import copy
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli.main import main as cli_main
from repro.constants import REFERENCE_DATE, MapName
from repro.dataset import index as index_module
from repro.dataset import store as store_module
from repro.dataset import workers as workers_module
from repro.dataset.handles import resolve_read_handle
from repro.dataset.index import (
    INDEX_MAGIC,
    IndexBuildStats,
    SnapshotIndex,
    build_index,
    open_index,
    parse_index_layout,
)
from repro.dataset.loader import _rebuild, iter_snapshots, latest_snapshot, load_all
from repro.dataset.query import MappedIndex
from repro.dataset.shards import compact_map_shards, verify_shards
from repro.dataset.store import DatasetStore, SnapshotRef
from repro.dataset.workers import default_workers, resolve_workers
from repro.errors import DatasetError, SchemaError, SnapshotIndexError
from repro.parsing.pipeline import PARSER_VERSION
from repro.telemetry import MetricsRegistry, use_registry
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
from repro.yamlio.serialize import snapshot_to_yaml

T0 = datetime(2022, 3, 1, tzinfo=timezone.utc)
DAY = "2022-03-01"
MAP = MapName.EUROPE
FILES = 6


def _snapshot(when: datetime, load: float = 10.0) -> MapSnapshot:
    snapshot = MapSnapshot(map_name=MAP, timestamp=when)
    for name in ("fra-r1", "par-r2", "AMS-IX"):
        snapshot.add_node(Node.from_name(name))
    snapshot.add_link(
        Link(LinkEnd("fra-r1", "#1", load), LinkEnd("par-r2", "#1", load / 2))
    )
    snapshot.add_link(Link(LinkEnd("par-r2", "#2", 5.0), LinkEnd("AMS-IX", "#1", 1.0)))
    return snapshot


def index_file(store: DatasetStore) -> Path:
    """The one day-shard's index file."""
    return store.shard_index_path(MAP, DAY)


def build(store: DatasetStore, **kwargs):
    """Build the day-shard's index file directly, without the shard manifest."""
    return build_index(MAP, list(store.iter_refs(MAP, "yaml")), index_file(store), **kwargs)


def fresh(store: DatasetStore):
    """The map's fresh shard entries, or ``None``."""
    return verify_shards(store, MAP)


def rebuilt(path: Path, map_name: MapName = MAP) -> list[MapSnapshot]:
    """Every row of one index file, mapped and rebuilt as the loaders do."""
    with MappedIndex.open(path, map_name) as engine:
        engine.verify()
        return _rebuild(engine, range(len(engine)))


def assert_rejected(path: Path) -> None:
    """The one opener refuses the file, at open or at verification: for the
    builder's carry-over and for the mapped engine alike."""
    with pytest.raises(SnapshotIndexError):
        with closing(open_index(path, MAP)) as file:
            file.verify()
    with pytest.raises(SnapshotIndexError):
        with MappedIndex.open(path, MAP) as engine:
            engine.verify()


#: The byte order this host does not write.
FOREIGN = "big" if sys.byteorder == "little" else "little"


def write_foreign_endian(path: Path) -> None:
    """Rewrite an index file as a host of the other byte order writes it."""
    data = path.read_bytes()
    layout = parse_index_layout(data)
    _, version, header_length = index_module._PREFIX.unpack_from(data)
    header = json.loads(data[index_module._PREFIX.size :][:header_length])
    header["byteorder"] = FOREIGN
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [index_module._PREFIX.pack(INDEX_MAGIC, version, len(header_bytes)), header_bytes]
    for spec in layout.columns.values():
        column = array(spec.typecode, data[spec.offset : spec.end])
        column.byteswap()
        parts.append(column.tobytes())
    payload = b"".join(parts)
    path.write_bytes(payload + hashlib.sha256(payload).digest())


@pytest.fixture()
def store(tmp_path) -> DatasetStore:
    store = DatasetStore(tmp_path)
    for i in range(FILES):
        when = T0 + timedelta(minutes=5 * i)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, load=float(i))))
    return store


class TestRoundTrip:
    def test_load_all_served_by_index_is_identical(self, store):
        via_yaml = load_all(store, MAP, use_index=False)
        compact_map_shards(store, MAP)
        assert fresh(store) is not None
        assert load_all(store, MAP) == via_yaml

    def test_index_path_reads_no_yaml(self, store, monkeypatch):
        compact_map_shards(store, MAP)
        from repro.yamlio import deserialize

        def forbidden(document):
            raise AssertionError("a fresh index must not parse YAML")

        # Every YAML read path, fast reader or yaml.load, ends here.
        monkeypatch.setattr(deserialize, "snapshot_from_document", forbidden)
        assert len(load_all(store, MAP)) == FILES

    def test_window_matches_yaml_path(self, store):
        compact_map_shards(store, MAP)
        start = T0 + timedelta(minutes=5)
        end = T0 + timedelta(minutes=20)
        assert load_all(store, MAP, start=start, end=end) == load_all(
            store, MAP, start=start, end=end, use_index=False
        )

    def test_latest_served_by_index(self, store):
        compact_map_shards(store, MAP)
        latest = latest_snapshot(store, MAP)
        assert latest == latest_snapshot(store, MAP, use_index=False)
        assert latest.links[0].a.load == FILES - 1

    def test_file_round_trip_preserves_tables(self, store):
        index, _ = build(store)
        with closing(open_index(index_file(store), MAP)) as reloaded:
            assert reloaded.layout.names == index.names
            assert reloaded.layout.labels == index.labels
            assert reloaded.layout.parser_version == index.parser_version
            assert list(reloaded.columns["timestamps"]) == list(index.timestamps)
        assert rebuilt(index_file(store)) == load_all(store, MAP, use_index=False)


# ---------------------------------------------------------------------------
# Property tests: reconstruction is exact for arbitrary valid series
# ---------------------------------------------------------------------------

node_names = st.from_regex(r"[a-z]{3}-r[0-9]{1,2}", fullmatch=True)
peering_names = st.from_regex(r"[A-Z]{3,8}", fullmatch=True)
labels = st.from_regex(r"#[0-9]{1,2}", fullmatch=True)
loads = st.integers(min_value=0, max_value=100).map(float)


@st.composite
def snapshot_series(draw):
    """A short series of structurally valid snapshots of one map."""
    map_name = draw(st.sampled_from(list(MapName)))
    slots = draw(st.lists(st.integers(0, 10000), min_size=1, max_size=4, unique=True))
    series = []
    for slot in sorted(slots):
        routers = draw(st.lists(node_names, min_size=2, max_size=5, unique=True))
        peerings = draw(st.lists(peering_names, min_size=0, max_size=3, unique=True))
        snapshot = MapSnapshot(
            map_name=map_name,
            timestamp=datetime(2022, 1, 1, tzinfo=timezone.utc)
            + timedelta(minutes=5 * slot),
        )
        for name in routers + peerings:
            snapshot.add_node(Node.from_name(name))
        for _ in range(draw(st.integers(0, 6))):
            a = draw(st.sampled_from(routers))
            b = draw(st.sampled_from(routers + peerings))
            if a == b:
                continue
            snapshot.add_link(
                Link(
                    a=LinkEnd(a, draw(labels), draw(loads)),
                    b=LinkEnd(b, draw(labels), draw(loads)),
                )
            )
        series.append(snapshot)
    return series


@given(snapshot_series())
@settings(max_examples=50, deadline=None)
def test_reconstruction_is_exact(series):
    index = SnapshotIndex(series[0].map_name)
    for snapshot in series:
        index.append_snapshot(snapshot, size=1, mtime_ns=1)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "index.bin"
        index.save(path)
        assert rebuilt(path, series[0].map_name) == series


@given(snapshot_series())
@settings(max_examples=25, deadline=None)
def test_save_load_survives_arbitrary_series(series):
    index = SnapshotIndex(series[0].map_name)
    for number, snapshot in enumerate(series):
        index.append_snapshot(snapshot, size=number, mtime_ns=number)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "index.bin"
        index.save(path)
        with closing(open_index(path, series[0].map_name)) as reloaded:
            reloaded.verify()
            for attribute in (
                "timestamps", "source_sizes", "source_mtimes",
                "router_ids", "link_a_labels", "link_b_loads",
            ):
                assert reloaded.columns[attribute].tolist() == getattr(index, attribute).tolist()
            assert reloaded.layout.skipped == index.skipped
        assert rebuilt(path, series[0].map_name) == series


# ---------------------------------------------------------------------------
# Freshness
# ---------------------------------------------------------------------------


class TestFreshness:
    def test_fresh_after_build(self, store):
        compact_map_shards(store, MAP)
        assert fresh(store) is not None

    def test_absent_index_is_not_fresh(self, store):
        assert fresh(store) is None

    def test_new_file_staled(self, store):
        compact_map_shards(store, MAP)
        when = T0 + timedelta(hours=1)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when)))
        assert fresh(store) is None

    def test_modified_file_staled(self, store):
        compact_map_shards(store, MAP)
        ref = next(iter(store.iter_refs(MAP, "yaml")))
        ref.path.write_text(
            snapshot_to_yaml(_snapshot(ref.timestamp, load=99.0)), encoding="utf-8"
        )
        os.utime(ref.path, ns=(1, 1))
        assert fresh(store) is None

    def test_removed_file_staled(self, store):
        compact_map_shards(store, MAP)
        next(iter(store.iter_refs(MAP, "yaml"))).path.unlink()
        assert fresh(store) is None

    def test_stale_load_falls_back_to_yaml(self, store):
        compact_map_shards(store, MAP)
        when = T0 + timedelta(hours=1)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, load=50.0)))
        snapshots = load_all(store, MAP)
        assert len(snapshots) == FILES + 1
        assert snapshots[-1].links[0].a.load == 50.0

    def test_parser_version_skew_not_fresh(self, store, monkeypatch):
        with monkeypatch.context() as patch:
            for module in (index_module, store_module):
                patch.setattr(module, "PARSER_VERSION", PARSER_VERSION + 1)
            compact_map_shards(store, MAP)
        assert parse_index_layout(index_file(store).read_bytes()).parser_version == (
            PARSER_VERSION + 1
        )
        assert fresh(store) is None


# ---------------------------------------------------------------------------
# Damaged index files: always fall back, never fail
# ---------------------------------------------------------------------------


class TestDamagedIndex:
    def damage(self, store, mutate):
        compact_map_shards(store, MAP)
        path = index_file(store)
        path.write_bytes(mutate(path.read_bytes()))
        return path

    def test_truncated(self, store):
        self.damage(store, lambda data: data[: len(data) // 2])
        assert_rejected(index_file(store))

    def test_flipped_byte_fails_checksum(self, store):
        middle = None

        def flip(data):
            at = len(data) // 2
            return data[:at] + bytes([data[at] ^ 0xFF]) + data[at + 1 :]

        self.damage(store, flip)
        assert_rejected(index_file(store))

    def test_bad_magic(self, store):
        self.damage(store, lambda data: b"XXXX" + data[len(INDEX_MAGIC) :])
        assert_rejected(index_file(store))

    def test_load_raises_typed_error(self, store):
        path = self.damage(store, lambda data: data[:10])
        with pytest.raises(SnapshotIndexError):
            open_index(path, MAP)

    def test_corrupt_index_load_all_falls_back(self, store):
        via_yaml = load_all(store, MAP, use_index=False)
        self.damage(store, lambda data: data[: len(data) // 3])
        assert load_all(store, MAP) == via_yaml

    def test_bit_rot_the_manifest_cannot_see_falls_back(self, store):
        # Flip the lowest byte of the last load: a silent 5.0 -> 5.000...01,
        # in place, with the file's size and mtime restored, so the shard
        # manifest's (size, mtime_ns) pin still calls the shard fresh.
        expected = (
            load_all(store, MAP, use_index=False),
            list(iter_snapshots(store, MAP, use_index=False)),
            latest_snapshot(store, MAP, use_index=False),
        )
        compact_map_shards(store, MAP)
        path = index_file(store)
        before = path.stat()
        data = bytearray(path.read_bytes())
        spec = parse_index_layout(bytes(data)).columns["link_a_loads"]
        data[spec.end - spec.itemsize] ^= 0x01
        path.write_bytes(bytes(data))
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert path.stat().st_size == before.st_size
        assert fresh(store) is not None
        assert load_all(store, MAP) == expected[0]
        assert list(iter_snapshots(store, MAP)) == expected[1]
        assert latest_snapshot(store, MAP) == expected[2]

    def test_rebuild_after_corruption(self, store):
        self.damage(store, lambda data: data[:20])
        stats = compact_map_shards(store, MAP)
        assert stats.parsed == FILES
        assert fresh(store) is not None


# ---------------------------------------------------------------------------
# Incremental builds
# ---------------------------------------------------------------------------


class TestIncremental:
    def test_warm_rebuild_reuses_everything(self, store):
        build(store)
        _, stats = build(store)
        assert stats.parsed == 0
        assert stats.reused == FILES

    def test_new_file_parsed_alone(self, store):
        build(store)
        when = T0 + timedelta(hours=1)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when)))
        index, stats = build(store)
        assert (stats.parsed, stats.reused) == (1, FILES)
        assert len(index) == FILES + 1

    def test_modified_file_reparsed_alone(self, store):
        build(store)
        ref = next(iter(store.iter_refs(MAP, "yaml")))
        ref.path.write_text(
            snapshot_to_yaml(_snapshot(ref.timestamp, load=77.0)), encoding="utf-8"
        )
        os.utime(ref.path, ns=(1, 1))
        index, stats = build(store)
        assert (stats.parsed, stats.reused) == (1, FILES - 1)
        assert index.link_a_loads[0] == 77.0

    def test_removed_file_dropped(self, store):
        build(store)
        next(iter(store.iter_refs(MAP, "yaml"))).path.unlink()
        index, stats = build(store)
        assert stats.removed == 1
        assert len(index) == FILES - 1
        # Compaction adopts the directly built file: nothing to parse.
        assert compact_map_shards(store, MAP).parsed == 0
        assert fresh(store) is not None

    def test_rebuild_flag_parses_everything(self, store):
        build(store)
        _, stats = build(store, rebuild=True)
        assert stats.parsed == FILES
        assert stats.reused == 0

    def test_parser_version_bump_discards_previous(self, store, monkeypatch, caplog):
        with monkeypatch.context() as patch:
            patch.setattr(index_module, "PARSER_VERSION", PARSER_VERSION + 1)
            build(store)
        with caplog.at_level(logging.INFO, logger=index_module.__name__):
            _, stats = build(store)
        assert stats.parsed == FILES
        assert stats.reused == 0
        # A routine upgrade: one info line, no warning to bury real damage.
        assert [record.levelno for record in caplog.records if "re-decoding" in record.message] == [
            logging.INFO
        ]
        assert not [record for record in caplog.records if record.levelno >= logging.WARNING]

    def test_damaged_previous_generation_warns(self, store, caplog):
        build(store)
        path = index_file(store)
        path.write_bytes(path.read_bytes()[:-1])
        with caplog.at_level(logging.INFO, logger=index_module.__name__):
            _, stats = build(store)
        assert (stats.parsed, stats.reused) == (FILES, 0)
        assert [record.levelno for record in caplog.records if "unusable" in record.message] == [
            logging.WARNING
        ]


# ---------------------------------------------------------------------------
# Carry-over: runs of the previous file around the decoded rows
# ---------------------------------------------------------------------------


def _with_new_router(when: datetime, load: float) -> MapSnapshot:
    """A twin naming a router and a label the day's tables lack so far."""
    snapshot = _snapshot(when, load)
    snapshot.add_node(Node.from_name("lon-r9"))
    snapshot.add_link(Link(LinkEnd("lon-r9", "#7", load), LinkEnd("fra-r1", "#3", 2.0)))
    return snapshot


def _ignore(ref, exc) -> None:
    """An ``on_error`` that keeps unreadable twins as skipped sources."""


class TestCarryOverRuns:
    """A carried build writes runs of the previous file's columns around
    the rows it decodes; whatever splits the runs, its ``index.bin`` is
    the one ``rebuild=True`` writes, byte for byte."""

    @pytest.fixture()
    def day(self, tmp_path) -> DatasetStore:
        """12 twins 10 minutes apart and an unreadable one, built once."""
        store = DatasetStore(tmp_path)
        for i in range(12):
            when = T0 + timedelta(minutes=10 * i)
            store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when, float(i))))
        store.write(MAP, T0 + timedelta(minutes=65), "yaml", "map: [\n")
        _, stats = build(store, on_error=_ignore)
        assert (stats.parsed, stats.unreadable) == (12, 1)
        return store

    def rewrite(self, store: DatasetStore, minutes: int, load: float) -> None:
        path = store.path_for(MAP, T0 + timedelta(minutes=minutes), "yaml")
        path.write_text(snapshot_to_yaml(_snapshot(T0 + timedelta(minutes=minutes), load)))
        os.utime(path, ns=(1, 1))

    def assert_rebuild_bytes(self, store: DatasetStore) -> IndexBuildStats:
        _, stats = build(store, on_error=_ignore)
        carried = index_file(store).read_bytes()
        assert stats.bytes_written == len(carried)
        build(store, rebuild=True, on_error=_ignore)
        assert carried == index_file(store).read_bytes()
        return stats

    def test_new_modified_and_removed_twins_mid_day(self, day):
        when = T0 + timedelta(minutes=35)
        day.write(MAP, when, "yaml", snapshot_to_yaml(_with_new_router(when, 3.5)))
        self.rewrite(day, 70, 77.0)
        day.path_for(MAP, T0 + timedelta(minutes=90), "yaml").unlink()
        stats = self.assert_rebuild_bytes(day)
        assert (stats.reused, stats.parsed, stats.unreadable) == (10, 2, 1)

    def test_first_and_last_rows_decoded(self, day):
        self.rewrite(day, 0, 1.25)
        self.rewrite(day, 110, 2.5)
        when = T0 + timedelta(minutes=115)
        day.write(MAP, when, "yaml", snapshot_to_yaml(_with_new_router(when, 9.0)))
        stats = self.assert_rebuild_bytes(day)
        assert (stats.reused, stats.parsed) == (10, 3)

    def test_every_row_carried(self, day):
        stats = self.assert_rebuild_bytes(day)
        assert (stats.reused, stats.parsed, stats.unreadable) == (12, 0, 1)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda data: data[:-1],
            lambda data: data[:100] + bytes([data[100] ^ 0xFF]) + data[101:],
        ],
        ids=["truncated", "flipped"],
    )
    def test_refused_previous_generation(self, day, damage):
        when = T0 + timedelta(minutes=35)
        day.write(MAP, when, "yaml", snapshot_to_yaml(_with_new_router(when, 3.5)))
        path = index_file(day)
        path.write_bytes(damage(path.read_bytes()))
        assert_rejected(path)
        stats = self.assert_rebuild_bytes(day)
        assert (stats.reused, stats.parsed) == (0, 13)


class TestCarryOverMemory:
    """A carried row's elements go from the previous file to the new one,
    never into the heap: decoding two twins beside N carried europe rows
    keeps the build's heap transient under one bound, for N = 24 or 240."""

    @pytest.mark.parametrize("carried", [24, 240])
    def test_heap_transient_is_flat_in_rows_carried(self, tmp_path, europe_reference, carried):
        text = snapshot_to_yaml(europe_reference)
        previous = SnapshotIndex(MapName.EUROPE)
        refs = []
        for slot in range(carried + 2):
            when = T0 + timedelta(minutes=5 * slot)
            path = tmp_path / f"{slot}.yaml"
            refs.append(SnapshotRef(MapName.EUROPE, when, "yaml", path))
            if slot in (carried // 2, carried + 1):  # a new twin mid-day, one at the end
                path.write_text(text.replace(REFERENCE_DATE.isoformat(), when.isoformat()))
                continue
            path.write_text("carried")  # stat'd, never read
            stat = path.stat()
            row = copy(europe_reference)
            row.timestamp = when
            previous.append_snapshot(row, stat.st_size, stat.st_mtime_ns)
        index_path = tmp_path / "index.bin"
        previous.save(index_path)
        del previous
        assert index_path.stat().st_size > carried * 24_000

        tracemalloc.start()
        try:
            index, stats = build_index(MapName.EUROPE, refs, index_path)
            del index  # what it returns counts too
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (stats.reused, stats.parsed) == (carried, 2)
        assert peak - kept < 1 << 20


# ---------------------------------------------------------------------------
# One trust rule for every reader of a built file
# ---------------------------------------------------------------------------


class TestTrustRule:
    """``open_index`` trusts a file only in this host's byte order, for the
    expected map and at the current parser version; the builder's
    carry-over and the mapped engines refuse the same files."""

    def test_foreign_endian_generation_is_not_carried_over(self, store):
        compact_map_shards(store, MAP)
        path = index_file(store)
        write_foreign_endian(path)
        with pytest.raises(SnapshotIndexError, match=f"is {FOREIGN}-endian"):
            MappedIndex.open(path, MAP)
        ref = next(iter(store.iter_refs(MAP, "yaml")))
        os.utime(ref.path, ns=(9, 9))
        stats = compact_map_shards(store, MAP)
        assert (stats.parsed, stats.reused) == (FILES, 0)
        compacted = path.read_bytes()
        assert cli_main(["index", "build", str(store.root), "--rebuild"]) == 0
        assert path.read_bytes() == compacted

    @pytest.mark.parametrize("skew", ["map", "parser"])
    def test_another_map_or_parser_version_is_refused(self, store, monkeypatch, skew):
        compact_map_shards(store, MAP)
        if skew == "map":
            build_index(MapName.WORLD, list(store.iter_refs(MAP, "yaml")), index_file(store))
            found = f"world parser v{PARSER_VERSION}"
        else:
            with monkeypatch.context() as patch:
                patch.setattr(index_module, "PARSER_VERSION", PARSER_VERSION + 1)
                build(store)
            found = f"europe parser v{PARSER_VERSION + 1}"
        with pytest.raises(SnapshotIndexError, match=found):
            MappedIndex.open(index_file(store), MAP)
        handle = resolve_read_handle(store, MAP, require_fresh=False)
        with pytest.raises(SnapshotIndexError, match=found):
            list(handle.iter_engines())
        handle.close()
        _, stats = build(store)
        assert (stats.parsed, stats.reused) == (FILES, 0)
        carried = index_file(store).read_bytes()
        build(store, rebuild=True)
        assert index_file(store).read_bytes() == carried

    @pytest.mark.skipif(
        not Path("/proc/self/maps").exists(), reason="needs Linux /proc/self/maps"
    )
    def test_compaction_leaves_no_mapping(self, store):
        compact_map_shards(store, MAP)
        when = T0 + timedelta(hours=1)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when)))
        assert compact_map_shards(store, MAP).reused == FILES
        mappings = Path("/proc/self/maps").read_text(encoding="utf-8")
        assert str(store.root) not in mappings


# ---------------------------------------------------------------------------
# Corrupt YAML sources: skipped, remembered, replayed
# ---------------------------------------------------------------------------


class TestSkippedSources:
    CORRUPT_AT = T0 + timedelta(minutes=5 * 2)

    @pytest.fixture()
    def store_with_corrupt(self, store) -> DatasetStore:
        path = store.path_for(MAP, self.CORRUPT_AT, "yaml")
        path.write_text("routers: [unclosed", encoding="utf-8")
        os.utime(path, ns=(1, 1))
        return store

    def test_build_raises_without_handler(self, store_with_corrupt):
        with pytest.raises(SchemaError):
            build(store_with_corrupt)

    def test_build_records_skip_and_stays_fresh(self, store_with_corrupt):
        errors = []
        stats = compact_map_shards(
            store_with_corrupt, MAP, on_error=lambda ref, exc: errors.append(ref.timestamp)
        )
        assert errors == [self.CORRUPT_AT]
        assert stats.rows == FILES - 1
        assert fresh(store_with_corrupt) is not None
        with MappedIndex.open(index_file(store_with_corrupt), MAP) as engine:
            assert list(engine.skipped) == [int(self.CORRUPT_AT.timestamp())]

    def test_indexed_load_replays_the_error(self, store_with_corrupt):
        compact_map_shards(store_with_corrupt, MAP, on_error=lambda ref, exc: None)
        with pytest.raises(SchemaError):
            load_all(store_with_corrupt, MAP)

    def test_indexed_load_reports_skip_in_time_order(self, store_with_corrupt):
        compact_map_shards(store_with_corrupt, MAP, on_error=lambda ref, exc: None)
        events = []
        snapshots = load_all(
            store_with_corrupt,
            MAP,
            on_error=lambda ref, exc: events.append(("error", ref.timestamp)),
        )
        assert len(snapshots) == FILES - 1
        assert events == [("error", self.CORRUPT_AT)]
        # Same outcome as the YAML walk, element for element.
        assert snapshots == load_all(
            store_with_corrupt, MAP, on_error=lambda ref, exc: None, use_index=False
        )

    def test_incremental_rerun_reuses_the_skip(self, store_with_corrupt):
        build(store_with_corrupt, on_error=lambda ref, exc: None)
        _, stats = build(store_with_corrupt)  # no handler needed now
        assert stats.parsed == 0
        assert stats.unreadable == 1
        assert stats.reused == FILES - 1

    def test_latest_walks_past_trailing_corruption(self, store):
        when = T0 + timedelta(hours=2)
        store.write(MAP, when, "yaml", "routers: [unclosed")
        compact_map_shards(store, MAP, on_error=lambda ref, exc: None)
        latest = latest_snapshot(store, MAP)
        assert latest is not None
        assert latest.timestamp == T0 + timedelta(minutes=5 * (FILES - 1))
        assert latest == latest_snapshot(store, MAP, use_index=False)


# ---------------------------------------------------------------------------
# Status reporting (``repro-weather index status`` reads verify_shards)
# ---------------------------------------------------------------------------


class TestStatus:
    def test_missing(self, store):
        assert verify_shards(store, MAP) is None

    def test_fresh(self, store):
        compact_map_shards(store, MAP)
        ((key, entry),) = verify_shards(store, MAP)
        assert key == DAY
        assert entry.rows == FILES
        assert entry.index_size == index_file(store).stat().st_size
        assert parse_index_layout(index_file(store).read_bytes()).parser_version == PARSER_VERSION

    def test_stale_reports_reason(self, store):
        compact_map_shards(store, MAP)
        when = T0 + timedelta(hours=1)
        store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when)))
        assert verify_shards(store, MAP) is None

    def test_corrupt_reports_reason(self, store):
        compact_map_shards(store, MAP)
        path = index_file(store)
        path.write_bytes(path.read_bytes()[:10])
        assert verify_shards(store, MAP) is None


# ---------------------------------------------------------------------------
# Pooled builds
# ---------------------------------------------------------------------------


def _with_router(when: datetime, router: str) -> MapSnapshot:
    """The fixture's snapshot plus one more router, linked to ``fra-r1``."""
    snapshot = _snapshot(when, load=7.0)
    snapshot.add_node(Node.from_name(router))
    snapshot.add_link(Link(LinkEnd(router, "#3", 2.0), LinkEnd("fra-r1", "#4", 3.0)))
    return snapshot


def _yaml_counters(registry: MetricsRegistry) -> dict:
    return {
        (entry["name"], tuple(map(tuple, labels))): value
        for entry in registry.snapshot()["metrics"]
        if entry["name"].startswith("repro_yaml_")
        for labels, value in entry["series"]
    }


class TestPooledBuild:
    """A pooled compaction fans out one task per stale shard and writes the
    serial build's ``index.bin`` files, byte for byte."""

    DAYS = [T0 + timedelta(days=day) for day in range(3)]

    @staticmethod
    def stamps(day: datetime) -> list[datetime]:
        return [day + timedelta(minutes=5 * i) for i in range(4)]

    @staticmethod
    def shard_files(store: DatasetStore) -> dict[str, bytes]:
        return {
            key: store.shard_index_path(MAP, key).read_bytes()
            for key in store.shard_keys(MAP, "yaml")
        }

    def test_index_bin_identical_to_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        opened = []
        process_pool = workers_module.process_pool
        monkeypatch.setattr(
            workers_module, "process_pool", lambda width: opened.append(width) or process_pool(width)
        )
        store = DatasetStore(tmp_path)
        for day in self.DAYS:
            for when in self.stamps(day)[:2]:
                store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when)))
        compact_map_shards(store, MAP)
        manifest = store.shards_manifest_path(MAP)
        previous = self.shard_files(store), manifest.read_bytes()

        first, second, third = (self.stamps(day) for day in self.DAYS)
        # Day one: a modified twin between reused rows, and a new one.
        store.write(MAP, first[1], "yaml", snapshot_to_yaml(_snapshot(first[1], 50.0)))
        os.utime(store.path_for(MAP, first[1], "yaml"), ns=(7, 7))
        store.write(MAP, first[2], "yaml", snapshot_to_yaml(_snapshot(first[2], 4.0)))
        # Day two: an unreadable twin and one that leaves the fast layout.
        store.write(MAP, second[2], "yaml", "routers: [unclosed")
        store.write(
            MAP, second[3], "yaml", "# hand-edited\n" + snapshot_to_yaml(_snapshot(second[3]))
        )
        # Day three: routers first seen here, in non-sorted order.
        store.write(MAP, third[2], "yaml", snapshot_to_yaml(_with_router(third[2], "zrh-r9")))
        store.write(MAP, third[3], "yaml", snapshot_to_yaml(_with_router(third[3], "bcn-r3")))

        outputs = []
        for workers in (1, 2):
            files, manifest_bytes = previous
            for key, data in files.items():
                store.shard_index_path(MAP, key).write_bytes(data)
            manifest.write_bytes(manifest_bytes)
            errors = []
            stats = compact_map_shards(
                store,
                MAP,
                workers=workers,
                on_error=lambda ref, exc: errors.append((ref.timestamp, str(exc))),
            )
            assert len(stats.built) == 3
            assert (stats.reused, stats.parsed) == (5, 5)
            outputs.append((self.shard_files(store), errors))
        serial, pooled = outputs
        assert opened == [2]
        assert [when for when, _ in serial[1]] == [second[2]]
        assert pooled[1] == serial[1]
        assert pooled[0] == serial[0]
        last = store.shard_index_path(MAP, third[0].strftime("%Y-%m-%d")).read_bytes()
        assert parse_index_layout(last).names[-2:] == ["zrh-r9", "bcn-r3"]

    @pytest.mark.parametrize("read", ["compact_map_shards", "index build"])
    def test_worker_metrics_reach_the_parent(self, tmp_path, monkeypatch, read):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        store = DatasetStore(tmp_path)
        stamps = [when for day in self.DAYS for when in self.stamps(day)]
        for when in stamps:
            store.write(MAP, when, "yaml", snapshot_to_yaml(_snapshot(when)))
        # One twin per shard leaves the fast layout and falls back to yaml.load.
        for day in self.DAYS:
            path = store.path_for(MAP, day, "yaml")
            path.write_text("# hand-edited\n" + path.read_text())
        counters = []
        for workers in (1, 2):
            with use_registry(MetricsRegistry()) as registry:
                if read == "compact_map_shards":
                    compact_map_shards(store, MAP, rebuild=True, workers=workers)
                else:
                    argv = ["index", "build", str(tmp_path), "--rebuild", "--workers", str(workers)]
                    assert cli_main(argv) == 0
            counters.append(_yaml_counters(registry))
        serial, pooled = counters
        assert serial[("repro_yaml_docs_total", (("op", "deserialize"),))] == len(stamps)
        assert serial[("repro_yaml_fast_path_total", (("outcome", "hit"),))] == (
            len(stamps) - len(self.DAYS)
        )
        assert serial[("repro_yaml_fast_path_total", (("outcome", "fallback"),))] == len(
            self.DAYS
        )
        assert pooled == serial


# ---------------------------------------------------------------------------
# Worker resolution
# ---------------------------------------------------------------------------


class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers(None) == 1

    def test_auto_means_one_per_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers("auto") == 8
        assert resolve_workers(0) == 8
        assert resolve_workers(None, default="auto") == 8
        assert default_workers() == 8

    def test_explicit_count_kept_on_multicore(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_workers(4) == 4

    def test_single_core_collapses_to_serial(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_workers(4) == 1
        assert resolve_workers("auto") == 1

    def test_invalid_requests_rejected(self):
        with pytest.raises(DatasetError):
            resolve_workers(-1)
        with pytest.raises(DatasetError):
            resolve_workers("many")

    def test_compaction_rejects_bad_workers(self, store):
        with pytest.raises(DatasetError):
            compact_map_shards(store, MAP, workers=-2)
