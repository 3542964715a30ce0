"""Tests for the ParseOptions API and its telemetry wiring.

Contracts: ``options=`` is the only way to configure a parse (the
per-knob keywords it replaced are gone from every entry point), options
survive pickling into pool workers, and instrumented runs — serial or
parallel, live registry or null sink — write byte-identical YAML.
"""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError
from datetime import datetime, timedelta, timezone

import pytest

from repro.constants import LABEL_DISTANCE_THRESHOLD, MapName
from repro.dataset.engine import process_all_parallel, process_map_parallel
from repro.dataset.processor import process_map, process_svg_bytes
from repro.dataset.store import DatasetStore
from repro.dataset.validate import validate_dataset, validate_map
from repro.layout.renderer import MapRenderer
from repro.parsing.pipeline import (
    DEFAULT_PARSE_OPTIONS,
    ParseOptions,
    parse_svg,
    parse_svg_file,
)
from repro.telemetry import MetricsRegistry, NullRegistry, use_registry

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC


@pytest.fixture(scope="module")
def svg(simulator) -> str:
    return MapRenderer().render(simulator.snapshot(MAP, T0))


def build_corpus(root, svg: str, files: int = 4, corrupt: bool = True) -> DatasetStore:
    store = DatasetStore(root)
    for index in range(files):
        when = T0 + timedelta(minutes=5 * index)
        broken = corrupt and index == 2
        store.write(MAP, when, "svg", "<svg broken" if broken else svg)
    return store


def yaml_tree(store: DatasetStore) -> dict[str, bytes]:
    return {
        ref.path.name: ref.path.read_bytes()
        for ref in store.iter_refs(MAP, "yaml")
    }


class TestParseOptions:
    def test_defaults_mirror_the_legacy_kwargs(self):
        options = ParseOptions()
        assert options.fast_path is True
        assert options.accelerated is True
        assert options.label_distance_threshold == LABEL_DISTANCE_THRESHOLD

    def test_frozen(self):
        with pytest.raises(FrozenInstanceError):
            ParseOptions().fast_path = False

    def test_picklable(self):
        options = ParseOptions(fast_path=False, label_distance_threshold=10.0)
        assert pickle.loads(pickle.dumps(options)) == options


    def test_omitted_options_use_the_defaults(self, svg):
        default = parse_svg(svg, MAP, T0)
        explicit = parse_svg(svg, MAP, T0, options=DEFAULT_PARSE_OPTIONS)
        assert default.snapshot == explicit.snapshot


class TestRemovedKeywords:
    """The per-knob keywords ``options=`` replaced are gone, not aliased."""

    @pytest.mark.parametrize(
        "keyword, value",
        [("fast_path", False), ("accelerated", False),
         ("label_distance_threshold", 200.0)],
    )
    def test_parse_entry_points_reject_every_knob(self, svg, tmp_path, keyword, value):
        path = tmp_path / "map.svg"
        path.write_text(svg)
        with pytest.raises(TypeError):
            parse_svg(svg, MAP, T0, **{keyword: value})
        with pytest.raises(TypeError):
            parse_svg_file(path, MAP, T0, **{keyword: value})

    def test_processing_entry_points_reject_fast_path(self, svg, tmp_path):
        store = build_corpus(tmp_path, svg)
        for call in (
            lambda: process_svg_bytes(svg.encode(), MAP, T0, fast_path=False),
            lambda: process_map(store, MAP, fast_path=False),
            lambda: process_map_parallel(store, MAP, workers=1, fast_path=False),
            lambda: process_all_parallel(store, [MAP], workers=1, fast_path=False),
            lambda: validate_map(store, MAP, fast_path=False),
            lambda: validate_dataset(store, fast_path=False),
        ):
            with pytest.raises(TypeError):
                call()
        assert yaml_tree(store) == {}


class TestByteIdenticalOutputs:
    def test_null_registry_run_is_byte_identical(self, svg, tmp_path):
        """Telemetry never changes outputs."""
        store_a = build_corpus(tmp_path / "a", svg)
        store_b = build_corpus(tmp_path / "b", svg)
        with use_registry(MetricsRegistry()):
            process_map(store_a, MAP)
        with use_registry(NullRegistry()):
            process_map(store_b, MAP)
        assert yaml_tree(store_a) == yaml_tree(store_b)


class TestTelemetryTotals:
    def test_parallel_totals_equal_serial_totals(self, svg, tmp_path):
        """Worker snapshots merged in the parent reproduce the serial
        counters exactly — files, failures, and stage observations."""
        store_serial = build_corpus(tmp_path / "serial", svg, files=6)
        store_parallel = build_corpus(tmp_path / "parallel", svg, files=6)
        serial, parallel = MetricsRegistry(), MetricsRegistry()
        with use_registry(serial):
            process_map(store_serial, MAP)
        with use_registry(parallel):
            process_map_parallel(
                store_parallel, MAP, workers=2, chunk_size=2, update_index=False
            )
        for name in ("repro_files_total", "repro_failures_total",
                     "repro_yaml_bytes_total"):
            assert parallel.get(name).series() == serial.get(name).series(), name
        stage_serial = serial.get("repro_parse_stage_seconds")
        stage_parallel = parallel.get("repro_parse_stage_seconds")
        for key in stage_serial.series():
            labels = dict(key)
            assert stage_parallel.count(**labels) == stage_serial.count(**labels)
        fast_serial = serial.get("repro_parse_fast_path_total")
        fast_parallel = parallel.get("repro_parse_fast_path_total")
        assert fast_parallel.series() == fast_serial.series()

    def test_manifest_hits_counted_on_warm_rerun(self, svg, tmp_path):
        store = build_corpus(tmp_path, svg, files=4)
        process_map_parallel(store, MAP, workers=1, update_index=False)
        registry = MetricsRegistry()
        with use_registry(registry):
            process_map_parallel(store, MAP, workers=1, update_index=False)
        lookups = registry.get("repro_manifest_lookups_total")
        assert lookups.value(map=MAP.value, outcome="hit") == 4
        assert lookups.value(map=MAP.value, outcome="miss") == 0
        files = registry.get("repro_files_total")
        assert files.value(map=MAP.value, outcome="skipped") == 4

    def test_index_cache_hit_and_miss_counted(self, svg, tmp_path):
        from repro.dataset.shards import compact_map_shards, fresh_shard_indexes

        store = build_corpus(tmp_path, svg, files=3, corrupt=False)
        process_map_parallel(store, MAP, workers=1, update_index=False)
        registry = MetricsRegistry()
        with use_registry(registry):
            assert fresh_shard_indexes(store, MAP) is None  # no index yet -> miss
            compact_map_shards(store, MAP)
            assert fresh_shard_indexes(store, MAP) is not None  # now a hit
        cache = registry.get("repro_shard_cache_total")
        assert cache.value(map=MAP.value, outcome="miss") == 1
        assert cache.value(map=MAP.value, outcome="hit") == 1
        rows = registry.get("repro_index_rows_total")
        assert rows.value(map=MAP.value, outcome="parsed") == 3
        assert registry.get("repro_index_build_seconds").count(map=MAP.value) == 1

    def test_loader_counts_snapshots_by_source(self, svg, tmp_path):
        from repro.dataset.loader import load_all
        from repro.dataset.shards import compact_map_shards

        store = build_corpus(tmp_path, svg, files=3, corrupt=False)
        process_map(store, MAP)
        registry = MetricsRegistry()
        with use_registry(registry):
            yaml_loaded = load_all(store, MAP, use_index=False)
            compact_map_shards(store, MAP)
            index_loaded = load_all(store, MAP)
        assert yaml_loaded == index_loaded
        loaded = registry.get("repro_snapshots_loaded_total")
        assert loaded.value(map=MAP.value, source="yaml") == 3
        assert loaded.value(map=MAP.value, source="index") == 3
