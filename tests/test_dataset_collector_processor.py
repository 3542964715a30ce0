"""Integration tests: simulated collection and bulk SVG→YAML processing.

Runs a short real campaign over the smallest map, then processes it —
the scaled-down version of the paper's Table 2 workflow.
"""

from datetime import datetime, timedelta, timezone

import pytest

from repro.constants import MapName
from repro.dataset.catalog import DatasetCatalog
from repro.dataset.collector import SimulatedCollector
from repro.dataset.corruption import CorruptionInjector
from repro.dataset.gaps import AvailabilityModel
from repro.dataset.engine import process_map_parallel
from repro.dataset.store import DatasetStore
from repro.dataset.summary import build_table2, format_table2
from repro.yamlio.deserialize import snapshot_from_yaml

START = datetime(2022, 9, 11, 23, 0, tzinfo=timezone.utc)
END = START + timedelta(minutes=40)  # 8 ticks


@pytest.fixture(scope="module")
def collected(tmp_path_factory, simulator):
    """A small collected-and-processed APAC dataset."""
    root = tmp_path_factory.mktemp("dataset")
    store = DatasetStore(root)
    collector = SimulatedCollector(
        simulator,
        store,
        availability=AvailabilityModel(seed=simulator.config.seed),
        corruption=CorruptionInjector(seed=simulator.config.seed, rate=0.0),
    )
    stats = collector.collect(START, END, maps=[MapName.ASIA_PACIFIC])
    processing = process_map_parallel(store, MapName.ASIA_PACIFIC, workers=1)
    return store, stats, processing


class TestCollection:
    def test_files_written(self, collected):
        _, stats, _ = collected
        assert stats.files_written[MapName.ASIA_PACIFIC] >= 7

    def test_bytes_accounted(self, collected):
        store, stats, _ = collected
        count, size = store.file_stats(MapName.ASIA_PACIFIC, "svg")
        assert count == stats.files_written[MapName.ASIA_PACIFIC]
        assert size == stats.bytes_written[MapName.ASIA_PACIFIC]

    def test_loads_change_between_ticks(self, collected):
        store, _, _ = collected
        refs = list(store.iter_refs(MapName.ASIA_PACIFIC, "svg"))
        first = refs[0].path.read_text(encoding="utf-8")
        last = refs[-1].path.read_text(encoding="utf-8")
        assert first != last

    def test_layout_stable_between_ticks(self, collected):
        store, _, _ = collected
        refs = list(store.iter_refs(MapName.ASIA_PACIFIC, "svg"))
        first = refs[0].path.read_text(encoding="utf-8")
        last = refs[-1].path.read_text(encoding="utf-8")
        # Object boxes (node positions) identical across snapshots.
        import re

        def boxes(svg):
            return re.findall(r'<g class="object[^>]*><rect [^/]*/>', svg)

        assert boxes(first) == boxes(last)


class TestProcessing:
    def test_all_processed(self, collected):
        _, stats, processing = collected
        assert processing.processed == stats.files_written[MapName.ASIA_PACIFIC]
        assert processing.unprocessed == 0

    def test_yaml_readable_and_correct(self, collected, simulator):
        store, _, _ = collected
        refs = list(store.iter_refs(MapName.ASIA_PACIFIC, "yaml"))
        assert refs
        snapshot = snapshot_from_yaml(refs[0].path.read_text(encoding="utf-8"))
        expected = simulator.snapshot(MapName.ASIA_PACIFIC, refs[0].timestamp)
        assert snapshot.summary_counts() == expected.summary_counts()

    def test_reprocess_skips_existing(self, collected):
        store, _, _ = collected
        again = process_map_parallel(store, MapName.ASIA_PACIFIC, workers=1)
        assert again.processed > 0
        assert again.unprocessed == 0

    def test_corrupted_files_counted_not_fatal(self, tmp_path, simulator):
        store = DatasetStore(tmp_path)
        collector = SimulatedCollector(
            simulator,
            store,
            availability=AvailabilityModel(seed=simulator.config.seed),
            corruption=CorruptionInjector(seed=simulator.config.seed, rate=1.0),
        )
        collector.collect(START, START + timedelta(minutes=15), maps=[MapName.WORLD])
        stats = process_map_parallel(store, MapName.WORLD, workers=1)
        assert stats.unprocessed == stats.total > 0
        assert sum(stats.failure_causes.values()) == stats.unprocessed


class TestTable2:
    def test_rows_and_totals(self, collected):
        store, _, _ = collected
        rows = build_table2(store)
        assert rows[-1].map_name is None
        by_map = {row.map_name: row for row in rows[:-1]}
        apac = by_map[MapName.ASIA_PACIFIC]
        assert apac.svg_files == apac.yaml_files
        assert apac.unprocessed == 0
        # YAMLs are several times smaller than SVGs (paper: ~8x).
        assert apac.compression_factor > 3

    def test_formatting(self, collected):
        store, _, _ = collected
        text = format_table2(build_table2(store))
        assert "Asia Pacific" in text
        assert "Total" in text


class TestCatalogOnCollected:
    def test_time_frames(self, collected):
        store, _, _ = collected
        catalog = DatasetCatalog(store)
        frames = catalog.time_frames(MapName.ASIA_PACIFIC)
        assert len(frames) >= 1
        assert frames[0].snapshot_count == catalog.snapshot_count(MapName.ASIA_PACIFIC)


class TestLogging:
    def test_processor_logs_summary(self, tmp_path, simulator, caplog):
        import logging

        store = DatasetStore(tmp_path)
        collector = SimulatedCollector(
            simulator,
            store,
            corruption=CorruptionInjector(seed=simulator.config.seed, rate=0.0),
        )
        collector.collect(START, START + timedelta(minutes=10), maps=[MapName.WORLD])
        with caplog.at_level(logging.INFO, logger="repro.dataset.ingest"):
            stats = process_map_parallel(store, MapName.WORLD, workers=1)
        summary = f"ingested {stats.total} files ({stats.unprocessed} failed"
        assert any(record.message.startswith(summary) for record in caplog.records)

    def test_processor_warns_on_unprocessable(self, tmp_path, simulator, caplog):
        import logging

        store = DatasetStore(tmp_path)
        store.write(MapName.WORLD, START, "svg", "<svg broken")
        with caplog.at_level(logging.WARNING, logger="repro.dataset.processor"):
            stats = process_map_parallel(store, MapName.WORLD, workers=1)
        assert stats.unprocessed == 1
        assert any("unprocessable" in record.message for record in caplog.records)
