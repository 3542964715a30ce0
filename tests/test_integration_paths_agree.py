"""End-to-end integration: the two data paths agree.

A downstream researcher reads YAML files; our benches read the simulator
directly.  Collect a short window through the full website → crawl →
process pipeline and assert that every analysis produces identical
results from the stored YAMLs and from simulator-direct snapshots.
"""

from datetime import datetime, timedelta, timezone

import pytest

from repro.analysis.imbalance import collect_imbalances
from repro.analysis.infrastructure import evolution_from_snapshots
from repro.analysis.loads import collect_load_samples
from repro.constants import MapName
from repro.dataset.corruption import CorruptionInjector
from repro.dataset.gaps import AvailabilityModel, CollectionSegment
from repro.dataset.loader import load_all
from repro.dataset.engine import process_map_parallel
from repro.dataset.store import DatasetStore
from repro.website.site import WeathermapWebsite
from repro.website.webcollector import PollingCollector

START = datetime(2022, 9, 10, 8, 0, tzinfo=timezone.utc)
END = START + timedelta(minutes=45)
MAP = MapName.ASIA_PACIFIC


@pytest.fixture(scope="module")
def pipeline_outputs(tmp_path_factory, simulator):
    """(YAML-loaded snapshots, simulator-direct snapshots)."""
    root = tmp_path_factory.mktemp("agree")
    store = DatasetStore(root)
    site = WeathermapWebsite(
        simulator, corruption=CorruptionInjector(seed=1, rate=0.0)
    )
    window = CollectionSegment(
        simulator.config.window_start, simulator.config.window_end
    )
    availability = AvailabilityModel(
        seed=1,
        segments={map_name: (window,) for map_name in MapName},
        europe_miss_rate=0.0,
        other_miss_rate_before_fix=0.0,
        other_miss_rate_after_fix=0.0,
        outage_day_rate=0.0,
    )
    collector = PollingCollector(site, store, availability=availability, backfill=False)
    collector.run(START, END, maps=[MAP])
    stats = process_map_parallel(store, MAP, workers=1)
    assert stats.unprocessed == 0

    loaded = load_all(store, MAP)
    direct = [
        simulator.snapshot(MAP, START + timedelta(minutes=5 * i))
        for i in range(9)
    ]
    return loaded, direct


class TestPathsAgree:
    def test_snapshot_counts(self, pipeline_outputs):
        loaded, direct = pipeline_outputs
        assert len(loaded) == len(direct) == 9
        for a, b in zip(loaded, direct):
            assert a.timestamp == b.timestamp
            assert a.summary_counts() == b.summary_counts()

    def test_load_samples_identical(self, pipeline_outputs):
        loaded, direct = pipeline_outputs
        from_yaml = collect_load_samples(loaded)
        from_simulator = collect_load_samples(direct)
        assert sorted(from_yaml.all_loads) == sorted(from_simulator.all_loads)
        assert sorted(from_yaml.internal) == sorted(from_simulator.internal)
        assert sorted(from_yaml.external) == sorted(from_simulator.external)

    def test_imbalances_identical(self, pipeline_outputs):
        loaded, direct = pipeline_outputs
        from_yaml = collect_imbalances(loaded)
        from_simulator = collect_imbalances(direct)
        assert sorted(from_yaml.internal) == sorted(from_simulator.internal)
        assert sorted(from_yaml.external) == sorted(from_simulator.external)

    def test_evolution_identical(self, pipeline_outputs):
        loaded, direct = pipeline_outputs
        from_yaml = evolution_from_snapshots(loaded)
        from_simulator = evolution_from_snapshots(direct)
        assert from_yaml.routers.values == from_simulator.routers.values
        assert from_yaml.internal_links.values == from_simulator.internal_links.values
        assert from_yaml.external_links.values == from_simulator.external_links.values

    def test_node_sets_identical(self, pipeline_outputs):
        loaded, direct = pipeline_outputs
        for a, b in zip(loaded, direct):
            assert set(a.nodes) == set(b.nodes)
