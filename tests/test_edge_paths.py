"""Edge-path coverage: error branches and small helpers across modules."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.constants import MapName

NOON = datetime(2022, 9, 11, 12, 0, tzinfo=timezone.utc)


class TestCliParsing:
    def test_bad_timestamp_rejected(self):
        from repro.cli.main import main

        with pytest.raises(ValueError):
            main(["render", "--when", "not-a-time"])

    def test_render_when(self, tmp_path, capsys):
        from repro.cli.main import main

        target = tmp_path / "w.svg"
        code = main(
            ["render", "--map", "world", "--when", "2022-03-05T10:00:00",
             "--output", str(target)]
        )
        assert code == 0
        assert "2022-03-05" in target.read_text(encoding="utf-8")


class TestPlacementOverflow:
    def test_crowded_canvas_raises(self):
        from repro.errors import SimulationError
        from repro.layout.placement import NodePlacer

        placer = NodePlacer("tiny")
        placer.plan([("r1", "s", 2), ("r2", "s", 2)], [])
        # Shrink the canvas behind the placer's back, then overflow it.
        placer.width = 260.0
        placer.height = 200.0
        with pytest.raises(SimulationError):
            for index in range(40):
                placer._place_router(f"extra{index}", "s", 2)


class TestNiceTicks:
    def test_basic_range(self):
        from repro.charts.svgchart import _nice_ticks

        ticks = _nice_ticks(0, 100)
        assert ticks[0] <= 0 and ticks[-1] >= 100
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_degenerate_range(self):
        from repro.charts.svgchart import _nice_ticks

        ticks = _nice_ticks(5, 5)
        assert len(ticks) >= 2

    def test_negative_range(self):
        from repro.charts.svgchart import _nice_ticks

        ticks = _nice_ticks(-50, 50)
        assert any(t <= -50 for t in ticks) or ticks[0] <= -50
        assert ticks[-1] >= 50

    def test_tiny_values(self):
        from repro.charts.svgchart import _nice_ticks

        ticks = _nice_ticks(0.001, 0.009)
        assert len(ticks) >= 3


class TestWebsiteCorruptionPath:
    def test_site_served_corruption_counts_as_unprocessable(
        self, simulator, tmp_path
    ):
        """A corrupt document published by the *site* flows through the
        crawler into the store and surfaces in processing accounting."""
        from repro.dataset.corruption import CorruptionInjector
        from repro.dataset.gaps import AvailabilityModel, CollectionSegment
        from repro.dataset.engine import process_map_parallel
        from repro.dataset.store import DatasetStore
        from repro.website.site import WeathermapWebsite
        from repro.website.webcollector import PollingCollector

        site = WeathermapWebsite(
            simulator, corruption=CorruptionInjector(seed=3, rate=1.0)
        )
        window = CollectionSegment(
            simulator.config.window_start, simulator.config.window_end
        )
        availability = AvailabilityModel(
            seed=3,
            segments={m: (window,) for m in MapName},
            europe_miss_rate=0.0,
            other_miss_rate_before_fix=0.0,
            other_miss_rate_after_fix=0.0,
            outage_day_rate=0.0,
        )
        store = DatasetStore(tmp_path)
        collector = PollingCollector(
            site, store, availability=availability, backfill=False
        )
        collector.run(NOON, NOON + timedelta(minutes=15), maps=[MapName.WORLD])
        stats = process_map_parallel(store, MapName.WORLD, workers=1)
        assert stats.total == 3
        assert stats.unprocessed == 3


class TestModelHelpers:
    def test_links_of(self):
        from repro.topology.model import Link, LinkEnd, MapSnapshot, Node

        snapshot = MapSnapshot(map_name=MapName.EUROPE, timestamp=NOON)
        for name in ("r1", "r2", "r3"):
            snapshot.add_node(Node.from_name(name))
        snapshot.add_link(Link(LinkEnd("r1", "#1", 1), LinkEnd("r2", "#1", 2)))
        snapshot.add_link(Link(LinkEnd("r2", "#1", 3), LinkEnd("r3", "#1", 4)))
        assert len(snapshot.links_of("r2")) == 2
        assert len(snapshot.links_of("r1")) == 1
        assert snapshot.links_of("ghost") == []

    def test_presence_without_changes(self):
        from repro.peeringdb.model import CapacityRecord, NetworkPresence

        presence = NetworkPresence(
            peering="X",
            records=(CapacityRecord("X", 100, NOON),),
        )
        assert presence.changes() == []

    def test_same_capacity_update_not_a_change(self):
        from repro.peeringdb.model import CapacityRecord, NetworkPresence

        presence = NetworkPresence(
            peering="X",
            records=(
                CapacityRecord("X", 100, NOON),
                CapacityRecord("X", 100, NOON + timedelta(days=1)),
            ),
        )
        assert presence.changes() == []


class TestStoreOverwrite:
    def test_rewrite_replaces_content(self, tmp_path):
        from repro.dataset.store import DatasetStore

        store = DatasetStore(tmp_path)
        store.write(MapName.WORLD, NOON, "svg", "first")
        store.write(MapName.WORLD, NOON, "svg", "second")
        assert store.read_bytes(MapName.WORLD, NOON, "svg") == b"second"
        assert store.file_stats(MapName.WORLD, "svg") == (1, 6)
