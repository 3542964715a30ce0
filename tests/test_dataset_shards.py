"""Tests for per-day shard indexes: compaction, freshness, serving tiers.

The headline contract: :func:`compact_map_shards` touches only shards
whose sources changed (O(new shard), not O(corpus)), and the sharded
serving tiers — loaders and the query engine — return exactly what the
YAML object path returns over the same tree.
"""

from __future__ import annotations

import os
import re
from datetime import datetime, timedelta, timezone

import pytest

from repro.constants import MapName
from repro.dataset import index as index_module
from repro.dataset import shards as shards_module
from repro.dataset.handles import resolve_read_handle
from repro.dataset.loader import iter_snapshots, latest_snapshot, load_all
from repro.dataset.processor import process_svg_bytes
from repro.dataset.query import ScanPredicate
from repro.dataset.shards import (
    ShardManifest,
    compact_map_shards,
    verify_shards,
)
from repro.dataset.store import ShardedDatasetStore
from repro.errors import DatasetError
from repro.telemetry import MetricsRegistry, use_registry

T0 = datetime(2022, 9, 12, tzinfo=timezone.utc)
MAP = MapName.ASIA_PACIFIC
DAYS = (T0, T0 + timedelta(days=1), T0 + timedelta(days=2))
PER_DAY = 3


@pytest.fixture(scope="module")
def reference_yaml(apac_svg) -> str:
    """One processed YAML document, reused at every timestamp.

    Timestamps are authoritative from file names, so one document can
    stand in for the whole corpus.
    """
    outcome = process_svg_bytes(apac_svg.encode("utf-8"), MAP, T0)
    assert outcome.yaml_text is not None
    return outcome.yaml_text


def fresh_engines(store: ShardedDatasetStore) -> list[tuple[int, dict]] | None:
    """``(rows, skipped)`` per shard, verified through the mapped engine the
    loaders read, or ``None`` when the shard set is not fresh."""
    handle = resolve_read_handle(store, MAP)
    if handle is None:
        return None
    with handle:
        shards = []
        for engine in handle.iter_engines():
            engine.verify()
            shards.append((len(engine), dict(engine.skipped)))
        return shards


def build_corpus(root, yaml_text: str) -> ShardedDatasetStore:
    """Three day-shards of YAML snapshots in a marked sharded store."""
    store = ShardedDatasetStore(root)
    store.mark()
    for day in DAYS:
        for slot in range(PER_DAY):
            store.write(MAP, day + timedelta(minutes=5 * slot), "yaml", yaml_text)
    return store


class TestCompaction:
    def test_first_compaction_builds_every_shard(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        stats = compact_map_shards(store, MAP)
        assert sorted(stats.built) == store.shard_keys(MAP, "yaml")
        assert stats.skipped == [] and stats.removed == []
        assert stats.rows == len(DAYS) * PER_DAY
        for key in stats.built:
            assert store.shard_index_path(MAP, key).exists()

    def test_recompaction_skips_everything(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        again = compact_map_shards(store, MAP)
        assert again.built == [] and again.removed == []
        assert sorted(again.skipped) == store.shard_keys(MAP, "yaml")
        assert again.parsed == 0

    def test_new_day_builds_only_its_shard(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        new_day = T0 + timedelta(days=5)
        store.write(MAP, new_day, "yaml", reference_yaml)
        stats = compact_map_shards(store, MAP)
        assert stats.built == ["2022-09-17"]
        assert len(stats.skipped) == len(DAYS)
        assert stats.parsed == 1  # only the new file was read

    def test_touched_file_rebuilds_only_its_shard(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        victim = next(store.iter_shard_refs(MAP, "yaml", "2022-09-13")).path
        os.utime(victim, ns=(1, 1))  # same bytes, new stat → fingerprint change
        stats = compact_map_shards(store, MAP)
        assert stats.built == ["2022-09-13"]
        assert len(stats.skipped) == len(DAYS) - 1

    def test_removed_day_sweeps_shard(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        for ref in list(store.iter_shard_refs(MAP, "yaml", "2022-09-12")):
            ref.path.unlink()
        stats = compact_map_shards(store, MAP)
        assert stats.removed == ["2022-09-12"]
        assert not store.shard_index_path(MAP, "2022-09-12").parent.exists()
        manifest = ShardManifest.load(store.shards_manifest_path(MAP))
        assert "2022-09-12" not in manifest.shards

    def test_only_restricts_the_walk(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        for key in ("2022-09-12", "2022-09-14"):
            ref = next(store.iter_shard_refs(MAP, "yaml", key))
            os.utime(ref.path, ns=(2, 2))
        stats = compact_map_shards(store, MAP, only=["2022-09-12"])
        assert stats.built == ["2022-09-12"]
        # The other stale shard was out of scope — a full pass catches it.
        assert verify_shards(store, MAP) is None
        full = compact_map_shards(store, MAP)
        assert full.built == ["2022-09-14"]
        assert verify_shards(store, MAP) is not None

    def test_only_lists_each_touched_shard_once(self, tmp_path, reference_yaml, monkeypatch):
        store = build_corpus(tmp_path, reference_yaml)
        listed = []
        iter_shard_refs = store.iter_shard_refs

        def counting(map_name, kind, key):
            listed.append(key)
            return iter_shard_refs(map_name, kind, key)

        monkeypatch.setattr(store, "iter_shard_refs", counting)
        stats = compact_map_shards(store, MAP, only=["2022-09-12", "2022-09-20"])
        assert stats.built == ["2022-09-12"]
        assert listed == ["2022-09-12", "2022-09-20"]

    def test_only_rejects_bad_keys(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        with pytest.raises(DatasetError):
            compact_map_shards(store, MAP, only=["not-a-day"])

    def test_rebuild_discards_and_rebuilds_all(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        stats = compact_map_shards(store, MAP, rebuild=True)
        assert sorted(stats.built) == store.shard_keys(MAP, "yaml")
        assert stats.skipped == []


class TestFreshness:
    def test_fresh_after_compaction(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        shards = fresh_engines(store)
        assert shards is not None
        assert [rows for rows, _ in shards] == [PER_DAY] * len(DAYS)

    def test_stale_on_any_touch(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        os.utime(next(store.iter_shard_refs(MAP, "yaml", "2022-09-14")).path, ns=(3, 3))
        assert fresh_engines(store) is None

    def test_stale_on_new_day(self, tmp_path, reference_yaml):
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        store.write(MAP, T0 + timedelta(days=9), "yaml", reference_yaml)
        assert fresh_engines(store) is None

    def test_parser_version_skew_discards_manifest(
        self, tmp_path, reference_yaml, monkeypatch
    ):
        store = build_corpus(tmp_path, reference_yaml)
        with monkeypatch.context() as patch:
            for module in (index_module, shards_module):
                patch.setattr(module, "PARSER_VERSION", -1)
            compact_map_shards(store, MAP)
        assert verify_shards(store, MAP) is None
        stats = compact_map_shards(store, MAP)
        assert sorted(stats.built) == store.shard_keys(MAP, "yaml")

    def test_empty_map_is_fresh_and_empty(self, tmp_path):
        store = ShardedDatasetStore(tmp_path)
        store.mark()
        compact_map_shards(store, MAP)
        assert fresh_engines(store) == []


class TestServingEquivalence:
    @pytest.fixture()
    def compacted(self, tmp_path, reference_yaml):
        """The corpus with every shard compacted."""
        store = build_corpus(tmp_path, reference_yaml)
        compact_map_shards(store, MAP)
        return store

    def test_query_matches_object_path(self, compacted):
        start, end = T0, T0 + timedelta(days=2)
        snapshots = load_all(compacted, MAP, start=start, end=end, use_index=False)
        expected = [
            (
                snapshot.timestamp, link.a.node, link.a.label, link.a.load,
                link.b.node, link.b.label, link.b.load,
            )
            for snapshot in snapshots
            for link in snapshot.links
        ]
        with resolve_read_handle(compacted, MAP) as engine:
            assert engine is not None
            ours = engine.scan(ScanPredicate(start=start, end=end))
            assert ours.snapshot_count == len(snapshots)
            assert ours.directed_loads() == [
                load for row in expected for load in (row[3], row[6])
            ]
            key = lambda r: (  # noqa: E731
                r.timestamp, r.node_a, r.label_a, r.load_a,
                r.node_b, r.label_b, r.load_b,
            )
            assert list(map(key, ours.records())) == expected

    def test_sharded_engine_surface(self, compacted):
        sharded = compacted
        engine = resolve_read_handle(sharded, MAP)
        assert engine is not None
        with engine:
            assert engine.shard_keys == sharded.shard_keys(MAP, "yaml")
            assert len(engine) == len(DAYS) * PER_DAY
            engine.check_generation()  # fresh → no raise
        assert engine.closed

    def test_loader_serves_from_shards(self, compacted):
        assert fresh_engines(compacted) is not None
        ours = load_all(compacted, MAP)
        theirs = load_all(compacted, MAP, use_index=False)
        assert ours == theirs
        last = latest_snapshot(compacted, MAP)
        assert last is not None
        assert last == latest_snapshot(compacted, MAP, use_index=False)

    def test_loader_falls_back_to_yaml_when_stale(self, compacted):
        sharded = compacted
        os.utime(
            next(sharded.iter_shard_refs(MAP, "yaml", "2022-09-13")).path, ns=(4, 4)
        )
        snapshots = load_all(sharded, MAP)  # YAML path, still complete
        assert len(snapshots) == len(DAYS) * PER_DAY

    def test_loaders_map_only_the_shards_they_read(self, compacted):
        def opens(read) -> float:
            with use_registry(MetricsRegistry()) as registry:
                read()
            return registry.get("repro_query_opens_total").value(
                map=MAP.value, source="mmap"
            )

        # Newest-first: the latest snapshot maps one shard, not three.
        assert opens(lambda: latest_snapshot(compacted, MAP)) == 1
        middle = (DAYS[1], DAYS[1] + timedelta(days=1))
        assert opens(lambda: load_all(compacted, MAP, *middle)) == 1
        assert opens(lambda: load_all(compacted, MAP)) == len(DAYS)

    def test_window_respects_shard_boundaries(self, compacted):
        sharded = compacted
        middle_day = load_all(
            sharded, MAP, start=DAYS[1], end=DAYS[1] + timedelta(days=1)
        )
        assert [s.timestamp for s in middle_day] == [
            DAYS[1] + timedelta(minutes=5 * slot) for slot in range(PER_DAY)
        ]


class TestOutOfRangeTwin:
    """A twin whose load leaves [0, 100] is one skipped source, not a failed build."""

    BAD = DAYS[1] + timedelta(minutes=5)

    @pytest.fixture(params=["150.0", "-0.5", ".nan"])
    def store(self, request, tmp_path, reference_yaml, monkeypatch):
        # Two CPUs, so ``workers=2`` really runs the pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        store = build_corpus(tmp_path, reference_yaml)
        bad = re.sub(r"load: [^,}]+", f"load: {request.param}", reference_yaml, count=1)
        assert bad != reference_yaml
        store.write(MAP, self.BAD, "yaml", bad)
        return store

    @pytest.mark.parametrize("workers", [1, 2])
    def test_compaction_skips_only_that_twin(self, store, workers):
        errors = []
        compact_map_shards(
            store,
            MAP,
            workers=workers,
            on_error=lambda ref, exc: errors.append((ref.timestamp, str(exc))),
        )
        assert [when for when, _ in errors] == [self.BAD]
        message = errors[0][1]
        assert re.fullmatch(r"load \S+ on end '.+' outside \[0, 100\]", message)
        shards = fresh_engines(store)
        assert shards is not None
        skipped_messages = {
            epoch: entry.message
            for _, skipped in shards
            for epoch, entry in skipped.items()
        }
        assert skipped_messages == {int(self.BAD.timestamp()): message}
        assert sum(rows for rows, _ in shards) == len(DAYS) * PER_DAY - 1

    def test_every_read_path_reports_it_alike(self, store):
        compact_map_shards(store, MAP, on_error=lambda ref, exc: None)
        outputs = []
        for read, kwargs in (
            (load_all, {}),
            (load_all, {"use_index": False}),
            (iter_snapshots, {}),
        ):
            errors = []
            snapshots = list(
                read(
                    store,
                    MAP,
                    on_error=lambda ref, exc: errors.append(
                        (ref.timestamp, type(exc), str(exc))
                    ),
                    **kwargs,
                )
            )
            outputs.append((snapshots, errors))
        assert outputs[0][1][0][0] == self.BAD
        assert len(outputs[0][0]) == len(DAYS) * PER_DAY - 1
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
