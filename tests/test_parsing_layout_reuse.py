"""Tests for layout reuse: Algorithm 2 replayed when a map's layout repeats.

The contract under test: a fast-path document whose layout signature and
label threshold equal those of the map's previous successful accelerated
attribution is attributed by replaying that plan, and the result is
byte-identical to running Algorithm 2 afresh and to the faithful loop.
Anything that changes what Algorithm 2 reads — a moved box, a renamed
router, another threshold — runs it again, errors included.
"""

from __future__ import annotations

import re
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import timedelta

import pytest

from repro.constants import REFERENCE_DATE, MapName
from repro.errors import MissingLabelError, SelfLinkError
from repro.layout.renderer import MapRenderer
from repro.parsing import pipeline
from repro.parsing.pipeline import ParseOptions, parse_svg
from repro.parsing.stream import stream_extract
from repro.telemetry import MetricsRegistry, use_registry
from repro.yamlio.serialize import snapshot_to_yaml

APAC = MapName.ASIA_PACIFIC
T0 = REFERENCE_DATE - timedelta(hours=1)
T1 = T0 + timedelta(minutes=5)


@pytest.fixture(autouse=True)
def registry(monkeypatch):
    """Empty reuse slots and a private metrics registry for every test."""
    monkeypatch.setattr(pipeline, "_LAYOUTS", {})
    private = MetricsRegistry()
    with use_registry(private):
        yield private


def reuse(registry: MetricsRegistry) -> dict[str, float]:
    counter = registry.get("repro_parse_layout_reuse_total")
    return {outcome: counter.value(outcome=outcome) for outcome in ("hit", "miss")}


def yaml_of(svg: str, map_name: MapName = APAC, when=T0, **options) -> str:
    parsed = parse_svg(svg, map_name, when, options=ParseOptions(**options))
    return snapshot_to_yaml(parsed.snapshot)


@pytest.fixture(scope="module")
def ticks(simulator) -> tuple[str, str]:
    """Two consecutive 5-minute asia-pacific documents: one layout, new loads."""
    renderer = MapRenderer()
    return tuple(renderer.render(simulator.snapshot(APAC, when)) for when in (T0, T1))


@pytest.fixture(scope="module")
def world_tick(simulator) -> str:
    return MapRenderer().render(simulator.snapshot(MapName.WORLD, T0))


def edit_once(pattern: str, replace, svg: str) -> str:
    edited, count = re.subn(pattern, replace, svg, count=1)
    assert count == 1 and edited != svg
    return edited


def move_first_label(svg: str) -> str:
    return edit_once(
        r'(<rect class="node" x=")([\d.]+)',
        lambda m: f"{m.group(1)}{float(m.group(2)) + 0.5:.2f}",
        svg,
    )


def rename_first_router(svg: str) -> str:
    return edit_once(r"(>)([a-z0-9-]+)(</text></g>)", r"\1\2-renamed\3", svg)


def hand_document(
    label_x: float = 80,
    names: tuple[str, str] = ("rbx-g1", "fra-g1"),
    loads: tuple[int, int] = (12, 57),
) -> str:
    """Two routers, one link, two labels; end a's label box starts at ``label_x``.

    End a's arrow base sits at x=80, so ``label_x - 80`` is its label distance.
    """
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="800" height="600">
  <g class="object"><rect x="10" y="10" width="60" height="20"/><text>{names[0]}</text></g>
  <g class="object"><rect x="210" y="10" width="60" height="20"/><text>{names[1]}</text></g>
  <polygon class="arrow" points="70,20 90,15 90,25" fill="#00cc00"/>
  <polygon class="arrow" points="210,20 190,15 190,25" fill="#cc0000"/>
  <text class="labellink" x="95" y="18">{loads[0]}%</text>
  <text class="labellink" x="175" y="18">{loads[1]}%</text>
  <rect class="node" x="{label_x}" y="12" width="20" height="14"/>
  <text class="node" x="82" y="22">#1</text>
  <rect class="node" x="180" y="12" width="20" height="14"/>
  <text class="node" x="182" y="22">#1</text>
</svg>"""


class TestReplay:
    def test_same_layout_new_loads_replays_identically(self, ticks, registry, monkeypatch):
        first, second = ticks
        parse_svg(first, APAC, T0)
        replayed = parse_svg(second, APAC, T1)
        assert reuse(registry) == {"hit": 1.0, "miss": 1.0}
        monkeypatch.setattr(pipeline, "_LAYOUTS", {})
        fresh = yaml_of(second, when=T1)
        assert reuse(registry) == {"hit": 1.0, "miss": 2.0}
        assert snapshot_to_yaml(replayed.snapshot) == fresh
        assert fresh == yaml_of(second, when=T1, accelerated=False)
        # The loads really moved between the ticks.
        loads = [
            [(link.a.load, link.b.load) for link in parse_svg(svg, APAC).snapshot.links]
            for svg in ticks
        ]
        assert loads[0] != loads[1]

    def test_hand_document_new_loads(self, registry):
        parse_svg(hand_document(loads=(12, 57)), APAC)
        replayed = yaml_of(hand_document(loads=(30, 4)))
        assert reuse(registry) == {"hit": 1.0, "miss": 1.0}
        assert "load: 30.0" in replayed and "load: 4.0" in replayed
        assert replayed == yaml_of(hand_document(loads=(30, 4)), accelerated=False)


class TestRecompute:
    @pytest.mark.parametrize("edit", [move_first_label, rename_first_router])
    def test_changed_layout_runs_algorithm_2(self, ticks, registry, edit):
        edited = edit(ticks[1])
        parse_svg(ticks[0], APAC, T0)
        result = yaml_of(edited, when=T1)
        assert reuse(registry) == {"hit": 0.0, "miss": 2.0}
        assert result == yaml_of(edited, when=T1, accelerated=False)

    def test_new_threshold_runs_algorithm_2(self, ticks, registry):
        parse_svg(ticks[0], APAC, T0)
        parse_svg(ticks[1], APAC, T1, options=ParseOptions(label_distance_threshold=35.0))
        assert reuse(registry) == {"hit": 0.0, "miss": 2.0}
        parse_svg(ticks[0], APAC, T0, options=ParseOptions(label_distance_threshold=35.0))
        assert reuse(registry) == {"hit": 1.0, "miss": 2.0}

    def test_tighter_threshold_still_raises(self, registry):
        parse_svg(hand_document(label_x=85), APAC)  # 5 px, within 40
        for _ in range(2):  # a failing layout is never stored
            with pytest.raises(MissingLabelError, match="5.0 px"):
                parse_svg(
                    hand_document(label_x=85),
                    APAC,
                    options=ParseOptions(label_distance_threshold=4.0),
                )
        assert reuse(registry) == {"hit": 0.0, "miss": 3.0}

    def test_rename_into_a_self_link_still_raises(self, registry):
        parse_svg(hand_document(), APAC)
        self_link = hand_document(names=("rbx-g1", "rbx-g1"))
        for _ in range(2):
            with pytest.raises(SelfLinkError):
                parse_svg(self_link, APAC)
        assert reuse(registry) == {"hit": 0.0, "miss": 3.0}
        parse_svg(hand_document(loads=(1, 2)), APAC)  # the stored slot survived
        assert reuse(registry) == {"hit": 1.0, "miss": 3.0}


def same_parse(svg: str, when=T0) -> tuple[str, object, object]:
    """``(YAML, report, extraction)`` of one parse with default options."""
    parsed = parse_svg(svg, APAC, when, strict=False)
    return snapshot_to_yaml(parsed.snapshot), parsed.report, parsed.extraction


def oracle_parses(svg: str, when=T0) -> list[tuple[str, object, object]]:
    """The same triple from the faithful loop and from the DOM path."""
    return [
        (
            snapshot_to_yaml(parsed.snapshot),
            parsed.report,
            parsed.extraction,
        )
        for parsed in (
            parse_svg(svg, APAC, when, strict=False, options=options)
            for options in (ParseOptions(accelerated=False), ParseOptions(fast_path=False))
        )
    ]


@pytest.fixture(scope="module")
def rotating(simulator) -> list[str]:
    """Two asia-pacific layouts 120 days apart, alternating."""
    renderer = MapRenderer()
    first, second = (
        renderer.render(simulator.snapshot(APAC, T0 - timedelta(days=days)))
        for days in (0, 120)
    )
    return [first, second, first, second]


class TestHitPathEqualsTheOracles:
    """A replayed parse builds no geometry, yet matches both oracles."""

    def test_consecutive_ticks(self, simulator, registry):
        renderer = MapRenderer()
        for step in range(4):
            when = T0 + timedelta(minutes=5 * step)
            svg = renderer.render(simulator.snapshot(APAC, when))
            assert oracle_parses(svg, when) == [same_parse(svg, when)] * 2
        assert reuse(registry)["hit"] >= 2

    def test_rotating_documents(self, rotating, registry):
        for svg in rotating:
            assert oracle_parses(svg) == [same_parse(svg)] * 2
        assert reuse(registry) == {"hit": 0.0, "miss": 4.0}


def recolor_first_arrow(svg: str) -> str:
    from repro.svgdoc.colors import WEATHERMAP_SCALE

    red = WEATHERMAP_SCALE.color_for(95)
    blue = WEATHERMAP_SCALE.color_for(5)
    return edit_once(
        r'(<polygon [^>]*fill=")([^"]+)',
        lambda m: m.group(1) + (blue if m.group(2) == red else red),
        svg,
    )


def reload_first_arrow(svg: str) -> str:
    return edit_once(
        r'(<text class="labellink"[^>]*>)([\d.]+)%',
        lambda m: f"{m.group(1)}{(float(m.group(2)) + 50) % 100:g}%",
        svg,
    )


def relabel_first_end(svg: str) -> str:
    return edit_once(r'(<text class="node"[^>]*>)(#\d+)', r"\g<1>#99", svg)


def move_first_label_one_pixel(svg: str) -> str:
    return edit_once(
        r'(<rect class="node" x=")([\d.]+)',
        lambda m: f"{m.group(1)}{float(m.group(2)) + 1:.2f}",
        svg,
    )


class TestHitCarriesTheNewValues:
    """Fills, loads and label texts are not in the signature: a change to
    one is a hit, and the result carries the document's own value."""

    def test_one_arrow_fill(self, ticks, registry):
        first, second = ticks
        parse_svg(first, APAC, T0)
        edited = recolor_first_arrow(second)
        yaml_text, report, extraction = same_parse(edited, T1)
        assert reuse(registry) == {"hit": 1.0, "miss": 1.0}
        assert report.color_mismatches == 1
        assert [(yaml_text, report, extraction)] * 2 == oracle_parses(edited, T1)

    def test_one_load(self, ticks, registry):
        first, second = ticks
        parse_svg(first, APAC, T0)
        edited = reload_first_arrow(second)
        yaml_text, report, extraction = same_parse(edited, T1)
        assert reuse(registry) == {"hit": 1.0, "miss": 1.0}
        loads = [load for link in extraction.links for load in link.loads]
        unedited = [load for link in same_parse(second, T1)[2].links for load in link.loads]
        assert loads[0] != unedited[0] and loads[1:] == unedited[1:]
        assert [(yaml_text, report, extraction)] * 2 == oracle_parses(edited, T1)

    def test_one_label_text(self, ticks, registry):
        first, second = ticks
        parse_svg(first, APAC, T0)
        edited = relabel_first_end(second)
        yaml_text, report, extraction = same_parse(edited, T1)
        assert reuse(registry) == {"hit": 1.0, "miss": 1.0}
        assert "label: '#99'" in yaml_text
        assert extraction.labels[0].text == "#99"
        assert [(yaml_text, report, extraction)] * 2 == oracle_parses(edited, T1)

    def test_a_label_box_moved_one_pixel_is_a_miss(self, ticks, registry):
        first, second = ticks
        parse_svg(first, APAC, T0)
        edited = move_first_label_one_pixel(second)
        assert [same_parse(edited, T1)] * 2 == oracle_parses(edited, T1)
        assert reuse(registry) == {"hit": 0.0, "miss": 2.0}


class _Untouchable(dict):
    """A slot table that fails the test on any read or write."""

    def _touched(self, *args, **kwargs):
        raise AssertionError("the layout slot was touched")

    get = __getitem__ = __setitem__ = __contains__ = setdefault = _touched


class TestSlotBypass:
    @pytest.fixture
    def untouchable(self, monkeypatch):
        monkeypatch.setattr(pipeline, "_LAYOUTS", _Untouchable())

    def test_default_options_use_the_slot(self, ticks, untouchable):
        with pytest.raises(AssertionError, match="slot was touched"):
            parse_svg(ticks[0], APAC)

    @pytest.mark.parametrize(
        "options", [ParseOptions(accelerated=False), ParseOptions(fast_path=False)]
    )
    def test_faithful_and_dom_parses_never_touch_the_slot(
        self, ticks, untouchable, registry, options
    ):
        assert parse_svg(ticks[0], APAC, options=options).snapshot.links
        assert reuse(registry) == {"hit": 0.0, "miss": 0.0}

    def test_dom_fallback_document_never_touches_the_slot(self, untouchable, registry):
        # A child inside a router's name text: the fast path falls back,
        # the DOM path keeps the text before the child.
        fallback = hand_document().replace(
            "<text>fra-g1</text>", "<text>fra-g1<tspan>x</tspan></text>"
        )
        assert stream_extract(fallback) is None
        assert parse_svg(fallback, APAC).snapshot.links
        assert reuse(registry) == {"hit": 0.0, "miss": 0.0}


class TestThreads:
    def test_four_threads_over_two_maps_agree_with_serial(self, ticks, world_tick, monkeypatch):
        jobs = [
            (APAC, ticks[0]),
            (MapName.WORLD, world_tick),
            (APAC, ticks[1]),
            (MapName.WORLD, move_first_label(world_tick)),
            (APAC, rename_first_router(ticks[1])),
            (MapName.WORLD, world_tick),
        ] * 4

        def parse(job):
            map_name, svg = job
            return yaml_of(svg, map_name)

        serial = [parse(job) for job in jobs]
        monkeypatch.setattr(pipeline, "_LAYOUTS", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-slot as often as possible
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(parse, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


class TestPooledCounters:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_hits_plus_misses_equal_fast_path_hits(
        self, tmp_path, ticks, registry, monkeypatch, workers
    ):
        from repro.dataset import workers as workers_module
        from repro.dataset.engine import process_map_parallel
        from repro.dataset.store import DatasetStore

        # Two workers even on a one-core host, where they would collapse to one.
        monkeypatch.setattr(workers_module.os, "cpu_count", lambda: 2)
        store = DatasetStore(tmp_path)
        for index in range(6):
            store.write(APAC, T0 + timedelta(minutes=5 * index), "svg", ticks[index % 2])
        stats = process_map_parallel(store, APAC, workers=workers)
        assert stats.processed == 6
        fast = registry.get("repro_parse_fast_path_total").value(outcome="hit")
        counts = reuse(registry)
        assert fast == 6
        assert counts["hit"] + counts["miss"] == fast
        assert counts["hit"] >= 6 - workers
