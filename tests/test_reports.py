"""Tests for report-bundle generation."""

import shutil
from datetime import timedelta

import pytest

from repro.charts.svgchart import ChartRenderer, Series
from repro.constants import MapName, REFERENCE_DATE
from repro.dataset.collector import SimulatedCollector
from repro.dataset.corruption import CorruptionInjector
from repro.dataset.engine import process_map_parallel
from repro.dataset.shards import compact_map_shards
from repro.dataset.store import DatasetStore, ShardedDatasetStore
from repro.reports.builder import ReportBuilder, build_report
from repro.telemetry import MetricsRegistry, use_registry


@pytest.fixture(scope="module")
def processed_dataset(tmp_path_factory, simulator):
    root = tmp_path_factory.mktemp("report-dataset")
    store = DatasetStore(root)
    collector = SimulatedCollector(
        simulator,
        store,
        corruption=CorruptionInjector(seed=simulator.config.seed, rate=0.0),
    )
    start = REFERENCE_DATE - timedelta(minutes=30)
    collector.collect(start, REFERENCE_DATE, maps=[MapName.ASIA_PACIFIC])
    process_map_parallel(store, MapName.ASIA_PACIFIC, workers=1)
    return root


class TestBuilder:
    def test_sections_ordered(self, tmp_path):
        builder = ReportBuilder(tmp_path)
        builder.add_section("First", "alpha")
        builder.add_section("Second", "beta")
        target = builder.write(title="T")
        text = target.read_text(encoding="utf-8")
        assert text.index("## First") < text.index("## Second")
        assert text.startswith("# T")

    def test_chart_written_and_referenced(self, tmp_path):
        builder = ReportBuilder(tmp_path)
        chart = ChartRenderer(title="c")
        chart.add_series(Series(name="s", xs=(0, 1), ys=(0, 1)))
        relative = builder.add_chart("demo", chart)
        target = builder.write()
        assert (tmp_path / relative).exists()
        assert relative in target.read_text(encoding="utf-8")


class TestBuildReport:
    def test_compacted_dataset_is_read_from_its_shards(
        self, processed_dataset, tmp_path
    ):
        root = tmp_path / "compacted"
        shutil.copytree(processed_dataset, root)
        store = ShardedDatasetStore(root)
        store.mark()
        compact_map_shards(store, MapName.ASIA_PACIFIC)
        with use_registry(MetricsRegistry()) as registry:
            build_report(root, tmp_path / "out")
        loaded = registry.get("repro_snapshots_loaded_total")
        assert loaded.value(map=MapName.ASIA_PACIFIC.value, source="index") > 0
        assert loaded.value(map=MapName.ASIA_PACIFIC.value, source="yaml") == 0

    def test_full_report(self, processed_dataset, tmp_path):
        target = build_report(processed_dataset, tmp_path / "out")
        text = target.read_text(encoding="utf-8")
        assert "Collection quality" in text
        assert "Asia Pacific" in text
        assert "Router degrees" in text
        assert "Link loads and ECMP" in text
        charts = list((tmp_path / "out" / "charts").glob("*.svg"))
        assert len(charts) >= 2

    def test_detail_map_fallback(self, processed_dataset, tmp_path):
        # Europe requested but absent: falls back to the present map.
        target = build_report(
            processed_dataset, tmp_path / "out2", detail_map=MapName.EUROPE
        )
        text = target.read_text(encoding="utf-8")
        assert "Asia Pacific" in text

    def test_empty_dataset(self, tmp_path):
        target = build_report(tmp_path / "nothing", tmp_path / "out3")
        assert "Empty dataset" in target.read_text(encoding="utf-8")

    def test_short_window_skips_hourly_bands(self, processed_dataset, tmp_path):
        # 30 minutes of data → no hour-of-day chart.
        build_report(processed_dataset, tmp_path / "out4")
        charts = {p.name for p in (tmp_path / "out4" / "charts").glob("*.svg")}
        assert not any(name.startswith("load_hours") for name in charts)


class TestReportCli:
    def test_cli_report(self, processed_dataset, tmp_path, capsys):
        from repro.cli.main import main

        code = main(
            [
                "report",
                str(processed_dataset),
                "--output",
                str(tmp_path / "cli-out"),
                "--map",
                "asia-pacific",
            ]
        )
        assert code == 0
        assert (tmp_path / "cli-out" / "report.md").exists()
