"""Tests for the bulk entry points, all of them ingest-daemon runs.

The contract under test: every way of writing YAML twins — ``process``,
``process --workers N``, ``ingest run`` with any worker count — leaves
the same YAML tree, manifest and ``ProcessingStats`` (including failure
causes), while the manifest makes warm re-runs skip unchanged files and
invalidate cleanly on overwrite, parser-version bumps, and edited SVGs.
Whether parsing runs in a process pool depends only on the input size.
"""

from __future__ import annotations

import json
import os
import shutil
from datetime import datetime, timedelta, timezone

import pytest

from repro.constants import MapName
from repro.dataset import engine as engine_module
from repro.dataset import ingest as ingest_module
from repro.dataset import workers as workers_module
from repro.dataset.engine import Manifest, process_all_parallel, process_map_parallel
from repro.dataset.ingest import IngestConfig, IngestDaemon
from repro.dataset.processor import process_map, process_svg_bytes
from repro.dataset.store import DatasetStore
from repro.errors import IngestError
from repro.layout.renderer import MapRenderer

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC

#: Timestamps of the injected-corrupt SVGs (one malformed document, one
#: that is not XML at all) — both must be counted, never fatal.
CORRUPT_AT = (T0 + timedelta(minutes=10), T0 + timedelta(minutes=20))


@pytest.fixture(scope="module")
def reference_svg(simulator) -> str:
    """One rendered Asia-Pacific document reused at every timestamp."""
    return MapRenderer().render(simulator.snapshot(MAP, T0))


def build_corpus(root, reference_svg: str, files: int = 6) -> DatasetStore:
    """A small SVG corpus with two unprocessable files injected."""
    store = DatasetStore(root)
    for index in range(files):
        when = T0 + timedelta(minutes=5 * index)
        if when in CORRUPT_AT:
            data = "<svg broken" if when == CORRUPT_AT[0] else "not an svg at all"
        else:
            data = reference_svg
        store.write(MAP, when, "svg", data)
    return store


def yaml_tree(store: DatasetStore) -> dict[str, bytes]:
    return {ref.path.name: ref.path.read_bytes() for ref in store.iter_refs(MAP, "yaml")}


def assert_stats_equal(a, b) -> None:
    assert a.map_name == b.map_name
    assert a.processed == b.processed
    assert a.unprocessed == b.unprocessed
    assert a.yaml_bytes == b.yaml_bytes
    assert a.failure_causes == b.failure_causes


class TestSerialParallelEquivalence:
    def test_identical_yaml_and_stats(self, tmp_path, reference_svg):
        serial_store = build_corpus(tmp_path / "serial", reference_svg)
        parallel_store = build_corpus(tmp_path / "parallel", reference_svg)
        serial = process_map(serial_store, MAP)
        parallel = process_map_parallel(parallel_store, MAP, workers=2, chunk_size=2)
        assert serial.unprocessed == len(CORRUPT_AT)
        assert_stats_equal(serial, parallel)
        assert yaml_tree(serial_store) == yaml_tree(parallel_store)

    def test_process_map_workers_delegates_to_engine(self, tmp_path, reference_svg):
        store = build_corpus(tmp_path, reference_svg)
        stats = process_map(store, MAP, workers=2)
        assert stats.processed == stats.total - len(CORRUPT_AT)
        # The delegation went through the engine: the manifest exists.
        assert store.manifest_path(MAP).exists()


class TestBalancedBatches:
    """Every round gives each worker one batch of the same size."""

    def test_batch_sizes(self):
        refs = list(range(48))
        assert [len(b) for b in engine_module._batches(refs, 16, 2)] == [12] * 4
        assert [len(b) for b in engine_module._batches(refs[:4], 16, 2)] == [2, 2]
        assert [len(b) for b in engine_module._batches(refs[:33], 16, 2)] == [9, 9, 9, 6]
        assert [len(b) for b in engine_module._batches(refs, 16, 1)] == [16] * 3
        assert [b for batch in engine_module._batches(refs[:33], 16, 2) for b in batch] == refs[:33]

    @pytest.mark.parametrize("files, batches", [(4, 2), (48, 4)])
    def test_pool_batches_and_serial_identity(
        self, tmp_path, reference_svg, monkeypatch, files, batches
    ):
        from repro.telemetry import MetricsRegistry, use_registry

        # Two workers even on a one-core host, where they would collapse to one.
        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 2)
        serial_store = build_corpus(tmp_path / "serial", reference_svg, files)
        parallel_store = build_corpus(tmp_path / "parallel", reference_svg, files)
        serial = process_map(serial_store, MAP)
        registry = MetricsRegistry()
        with use_registry(registry):
            parallel = process_map_parallel(parallel_store, MAP, workers=2)
        assert registry.get("repro_engine_batch_seconds").count(map=MAP.value) == batches
        assert_stats_equal(serial, parallel)
        assert yaml_tree(serial_store) == yaml_tree(parallel_store)


class TestWorkersOne:
    def test_degenerates_to_serial_no_pool(self, tmp_path, reference_svg, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("workers=1 must not spawn a process pool")

        monkeypatch.setattr(workers_module, "process_pool", forbidden)
        store = build_corpus(tmp_path / "engine", reference_svg)
        baseline_store = build_corpus(tmp_path / "baseline", reference_svg)
        stats = process_map_parallel(store, MAP, workers=1)
        baseline = process_map(baseline_store, MAP)
        assert_stats_equal(stats, baseline)
        assert yaml_tree(store) == yaml_tree(baseline_store)

    def test_invalid_workers_rejected(self, tmp_path, reference_svg):
        from repro.errors import DatasetError

        store = build_corpus(tmp_path, reference_svg)
        with pytest.raises(DatasetError):
            process_map_parallel(store, MAP, workers=-1)
        with pytest.raises(DatasetError):
            process_map_parallel(store, MAP, chunk_size=0)


class TestOneWriter:
    """``process``, ``process --workers 2`` and ``ingest run`` with one or
    two workers are one writer: the same twins, manifest and Table 2 rows."""

    MAPS = (MapName.ASIA_PACIFIC, MapName.WORLD)

    def test_every_entry_point_leaves_the_same_state(
        self, tmp_path, simulator, monkeypatch
    ):
        # Two workers even on a one-core host, where they would collapse to one.
        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 2)
        source = DatasetStore(tmp_path / "source")
        # asia-pacific has more pending files than a batch holds, so two
        # workers parse it in the pool; world's six parse in-process.
        for map_name, files in ((MapName.ASIA_PACIFIC, 20), (MapName.WORLD, 6)):
            svg = MapRenderer().render(simulator.snapshot(map_name, T0))
            for index in range(files):
                data = "<svg broken" if index == 3 else svg
                source.write(map_name, T0 + timedelta(minutes=5 * index), "svg", data)
        runs = {
            "process": lambda store: {m: process_map(store, m) for m in self.MAPS},
            "process-workers-2": lambda store: process_all_parallel(
                store, self.MAPS, workers=2
            ),
            "ingest-run": lambda store: IngestDaemon(store, IngestConfig(workers=1))
            .run(self.MAPS)
            .per_map,
            "ingest-run-workers-2": lambda store: IngestDaemon(
                store, IngestConfig(workers=2)
            )
            .run(self.MAPS)
            .per_map,
        }
        states = {}
        for name, run in runs.items():
            root = tmp_path / name
            shutil.copytree(source.root, root)  # keeps mtimes: same manifest keys
            store = DatasetStore(root)
            stats = run(store)
            states[name] = (
                [stats[map_name] for map_name in self.MAPS],
                {
                    path.relative_to(root).as_posix(): path.read_bytes()
                    for path in sorted(root.glob("*/yaml/**/*.yaml"))
                },
                [store.manifest_path(map_name).read_bytes() for map_name in self.MAPS],
            )
        rows = states["process"][0]
        assert [(row.processed, row.unprocessed) for row in rows] == [(19, 1), (5, 1)]
        for name, state in states.items():
            assert state == states["process"], name


class TestPoolingDependsOnInputSize:
    """A map parses in the pool only with more pending files than a batch."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 2)

    def test_at_most_a_batch_per_map_never_opens_a_pool(
        self, tmp_path, reference_svg, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("a run over at most 16 files per map opened a pool")

        monkeypatch.setattr(workers_module, "process_pool", forbidden)
        store = build_corpus(tmp_path, reference_svg, files=16)
        first = IngestDaemon(store, IngestConfig(workers=2)).run([MAP])
        assert first.ingested == 16
        store.write(MAP, T0 + timedelta(days=1), "svg", reference_svg)
        assert IngestDaemon(store, IngestConfig(workers=2)).run([MAP]).processed == 1

    @staticmethod
    def dying(data, map_name, timestamp, **kwargs):
        os._exit(3)

    @staticmethod
    def raising(data, map_name, timestamp, **kwargs):
        raise RuntimeError("worker exploded")

    @pytest.mark.parametrize("worker, message", [("dying", "BrokenProcessPool"),
                                                 ("raising", "worker exploded")])
    def test_pool_worker_failure_is_a_typed_error(
        self, tmp_path, reference_svg, monkeypatch, worker, message
    ):
        store = build_corpus(tmp_path, reference_svg, files=17)
        # Forked workers inherit the patched kernel; the parent never runs it.
        monkeypatch.setattr(ingest_module, "process_svg_bytes", getattr(self, worker))
        with pytest.raises(IngestError, match=message):
            IngestDaemon(store, IngestConfig(workers=2)).run([MAP])
        assert not any(True for _ in store.iter_refs(MAP, "yaml"))


class TestManifest:
    @pytest.fixture()
    def processed_store(self, tmp_path, reference_svg) -> DatasetStore:
        store = build_corpus(tmp_path, reference_svg)
        process_map_parallel(store, MAP, workers=1)
        return store

    def count_extractions(self, monkeypatch) -> list:
        calls = []

        def counting(data, map_name, timestamp, strict=False, **kwargs):
            calls.append(timestamp)
            return process_svg_bytes(data, map_name, timestamp, strict=strict, **kwargs)

        monkeypatch.setattr(ingest_module, "process_svg_bytes", counting)
        return calls

    def test_warm_rerun_skips_everything(self, processed_store, monkeypatch):
        calls = self.count_extractions(monkeypatch)
        first = process_map_parallel(processed_store, MAP, workers=1)
        assert calls == []
        assert first.unprocessed == len(CORRUPT_AT)  # failures still counted
        assert first.processed + first.unprocessed == 6
        assert first.yaml_bytes > 0

    def test_overwrite_invalidates(self, processed_store, monkeypatch):
        calls = self.count_extractions(monkeypatch)
        stats = process_map_parallel(processed_store, MAP, workers=1, overwrite=True)
        assert len(calls) == 6
        assert stats.total == 6

    def test_parser_version_bump_invalidates(self, processed_store, monkeypatch):
        path = processed_store.manifest_path(MAP)
        document = json.loads(path.read_text(encoding="utf-8"))
        document["parser_version"] = document["parser_version"] + 1
        path.write_text(json.dumps(document), encoding="utf-8")
        calls = self.count_extractions(monkeypatch)
        process_map_parallel(processed_store, MAP, workers=1)
        assert len(calls) == 6
        # The fresh run stamps the current version back.
        saved = json.loads(path.read_text(encoding="utf-8"))
        assert saved["parser_version"] == engine_module.PARSER_VERSION

    def test_edited_svg_reprocessed_alone(self, processed_store, monkeypatch, reference_svg):
        edited_at = T0  # a healthy file
        ref = next(iter(processed_store.iter_refs(MAP, "svg")))
        assert ref.timestamp == edited_at
        ref.path.write_text(reference_svg + "<!-- edited -->", encoding="utf-8")
        os.utime(ref.path, ns=(1, 1))  # force a new (size, mtime) fast key
        calls = self.count_extractions(monkeypatch)
        process_map_parallel(processed_store, MAP, workers=1)
        assert calls == [edited_at]

    def test_corrupt_manifest_file_tolerated(self, processed_store, monkeypatch):
        processed_store.manifest_path(MAP).write_text("{not json", encoding="utf-8")
        calls = self.count_extractions(monkeypatch)
        stats = process_map_parallel(processed_store, MAP, workers=1)
        assert len(calls) == 6
        assert stats.total == 6

    def test_manifest_disabled(self, tmp_path, reference_svg):
        store = build_corpus(tmp_path, reference_svg)
        process_map_parallel(store, MAP, workers=1, use_manifest=False)
        assert not store.manifest_path(MAP).exists()


class TestIndexMaintenance:
    """Processing leaves the map's shard indexes fresh behind it."""

    def test_processing_builds_a_fresh_index(self, tmp_path, reference_svg):
        from repro.dataset.shards import fresh_shard_indexes

        store = build_corpus(tmp_path, reference_svg)
        stats = process_map_parallel(store, MAP, workers=1)
        assert store.shards_manifest_path(MAP).exists()
        indexes = fresh_shard_indexes(store, MAP)
        assert indexes is not None
        assert sum(len(index) for index in indexes) == stats.processed

    def test_index_serves_the_processed_series(self, tmp_path, reference_svg):
        from repro.dataset.loader import load_all

        store = build_corpus(tmp_path, reference_svg)
        process_map_parallel(store, MAP, workers=1)
        via_yaml = load_all(store, MAP, use_index=False)
        assert load_all(store, MAP) == via_yaml

    def test_update_index_disabled(self, tmp_path, reference_svg):
        store = build_corpus(tmp_path, reference_svg)
        process_map_parallel(store, MAP, workers=1, update_index=False)
        assert not store.shards_root(MAP).exists()

    def test_warm_rerun_keeps_index_fresh(self, tmp_path, reference_svg):
        from repro.dataset.shards import fresh_shard_indexes

        store = build_corpus(tmp_path, reference_svg)
        process_map_parallel(store, MAP, workers=1)
        process_map_parallel(store, MAP, workers=1)
        assert fresh_shard_indexes(store, MAP) is not None


class TestManifestRoundTrip:
    def test_save_load(self, tmp_path):
        manifest = Manifest()
        manifest.entries["x"] = engine_module.ManifestEntry(
            sha256="ab", size=3, mtime_ns=7, yaml_bytes=11
        )
        manifest.entries["y"] = engine_module.ManifestEntry(
            sha256="cd", size=4, mtime_ns=9, failure="MalformedSvgError"
        )
        path = tmp_path / "manifest.json"
        manifest.save(path)
        loaded = Manifest.load(path)
        assert loaded.entries == manifest.entries
        assert loaded.parser_version == manifest.parser_version

    def test_missing_file_is_empty(self, tmp_path):
        assert Manifest.load(tmp_path / "absent.json").entries == {}
