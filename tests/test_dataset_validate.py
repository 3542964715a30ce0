"""Tests for dataset validation."""

from datetime import timedelta

import pytest

from repro.cli.main import main
from repro.constants import MapName, REFERENCE_DATE
from repro.dataset.collector import SimulatedCollector
from repro.dataset.corruption import CorruptionInjector
from repro.dataset.engine import process_map_parallel
from repro.dataset.store import DatasetStore
from repro.dataset.validate import validate_dataset, validate_map


@pytest.fixture()
def clean_dataset(tmp_path, simulator):
    store = DatasetStore(tmp_path)
    collector = SimulatedCollector(
        simulator,
        store,
        corruption=CorruptionInjector(seed=simulator.config.seed, rate=0.0),
    )
    start = REFERENCE_DATE - timedelta(minutes=30)
    collector.collect(start, REFERENCE_DATE, maps=[MapName.WORLD])
    process_map_parallel(store, MapName.WORLD, workers=1)
    return store


class TestCleanDataset:
    def test_valid(self, clean_dataset):
        report = validate_map(clean_dataset, MapName.WORLD, cross_check_fraction=1.0)
        assert report.ok
        assert report.yaml_files == 6
        assert report.cross_checked == 6
        assert report.cross_check_failures == 0
        assert report.unprocessed_svg == 0

    def test_dataset_wide(self, clean_dataset):
        reports = validate_dataset(clean_dataset)
        assert set(reports) == {MapName.WORLD}
        assert reports[MapName.WORLD].ok

    def test_cross_check_sampling_deterministic(self, clean_dataset):
        first = validate_map(clean_dataset, MapName.WORLD, cross_check_fraction=0.5)
        second = validate_map(clean_dataset, MapName.WORLD, cross_check_fraction=0.5)
        assert first.cross_checked == second.cross_checked


class TestDefects:
    def test_schema_failure_detected(self, clean_dataset):
        ref = next(iter(clean_dataset.iter_refs(MapName.WORLD, "yaml")))
        ref.path.write_text("routers: [unclosed", encoding="utf-8")
        report = validate_map(clean_dataset, MapName.WORLD)
        assert not report.ok
        assert report.schema_failures == 1
        assert report.problems

    def test_non_utf8_twin_is_a_schema_failure(self, clean_dataset):
        ref = next(iter(clean_dataset.iter_refs(MapName.WORLD, "yaml")))
        ref.path.write_bytes(b"\xff\xfe" + ref.path.read_bytes())
        report = validate_map(clean_dataset, MapName.WORLD)
        assert report.schema_failures == 1
        assert report.failure_causes["SchemaError"] == 1
        assert any("not valid UTF-8" in problem for problem in report.problems)

    def test_tampered_yaml_detected_by_cross_check(self, clean_dataset):
        ref = next(iter(clean_dataset.iter_refs(MapName.WORLD, "yaml")))
        import re

        text = ref.path.read_text(encoding="utf-8")
        # Flip one load value: schema-valid, but no longer matches the SVG.
        tampered = re.sub(
            r"load: (\d+)",
            lambda m: f"load: {(int(m.group(1)) + 7) % 101}",
            text,
            count=1,
        )
        assert tampered != text
        ref.path.write_text(tampered, encoding="utf-8")
        report = validate_map(clean_dataset, MapName.WORLD, cross_check_fraction=1.0)
        assert report.cross_check_failures >= 1
        assert not report.ok

    def test_unpaired_yaml_detected(self, clean_dataset):
        ref = next(iter(clean_dataset.iter_refs(MapName.WORLD, "svg")))
        ref.path.unlink()
        report = validate_map(clean_dataset, MapName.WORLD, cross_check_fraction=0.0)
        assert report.unpaired_yaml == 1
        assert not report.ok

    def test_unprocessed_svg_counted_not_fatal(self, clean_dataset, simulator):
        # Add one fresh SVG that was never processed.
        when = REFERENCE_DATE + timedelta(minutes=-35)
        from repro.layout.renderer import MapRenderer

        svg = MapRenderer().render(simulator.snapshot(MapName.WORLD, when))
        clean_dataset.write(MapName.WORLD, when, "svg", svg)
        report = validate_map(clean_dataset, MapName.WORLD, cross_check_fraction=0.0)
        assert report.unprocessed_svg == 1
        assert report.ok  # expected condition, not a validation failure


class TestCli:
    def test_cli_validate_ok(self, clean_dataset, capsys):
        code = main(["validate", str(clean_dataset.root)])
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_cli_validate_problems(self, clean_dataset, capsys):
        ref = next(iter(clean_dataset.iter_refs(MapName.WORLD, "yaml")))
        ref.path.write_text("routers: [unclosed", encoding="utf-8")
        code = main(["validate", str(clean_dataset.root)])
        assert code == 1
        assert "PROBLEMS" in capsys.readouterr().out

    def test_cli_validate_empty(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path)])
        assert code == 1
