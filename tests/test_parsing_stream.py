"""Tests for the streaming fast-path extractor and its support code.

The contract under test: on a well-shaped document :func:`stream_extract`
produces *exactly* the extraction the DOM path would (so the downstream
pipeline cannot tell which path ran), and on anything else it returns
``None`` so the DOM path owns all error reporting.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro.constants import MapName
from repro.errors import MalformedSvgError
from repro.parsing import stream as stream_module
from repro.parsing.algorithm1 import extract_objects
from repro.parsing.pipeline import ParseOptions, StageTimings, parse_svg
from repro.parsing.stream import stream_extract
from repro.svgdoc import reader as reader_module
from repro.svgdoc.reader import (
    parse_dimension_value,
    read_svg_tags,
)
from repro.yamlio.serialize import snapshot_to_yaml

SVG_NS = 'xmlns="http://www.w3.org/2000/svg"'


def document(body: str, root_attrs: str = 'width="800" height="600"') -> str:
    return f"<svg {SVG_NS} {root_attrs}>{body}</svg>"


#: A minimal well-shaped weathermap: two routers, one link (two arrows +
#: two loads), two labels.
MINIMAL = document(
    """
  <g class="object">
    <rect x="10" y="10" width="60" height="20"/>
    <text x="12" y="24">rbx-g1</text>
  </g>
  <g class="object">
    <rect x="210" y="10" width="60" height="20"/>
    <text x="212" y="24">fra-g1</text>
  </g>
  <polygon class="arrow" points="70,20 90,15 90,25" fill="#00cc00"/>
  <polygon class="arrow" points="210,20 190,15 190,25" fill="#cc0000"/>
  <text class="labellink" x="95" y="18">12%</text>
  <text class="labellink" x="175" y="18">57%</text>
  <rect class="node" x="80" y="12" width="20" height="14"/>
  <text class="node" x="82" y="22">#1</text>
  <rect class="node" x="180" y="12" width="20" height="14"/>
  <text class="node" x="182" y="22">#1</text>
"""
)


class TestStreamEqualsDom:
    def test_minimal_document(self):
        streamed = stream_extract(MINIMAL)
        assert streamed is not None
        extraction, width, height = streamed
        dom = extract_objects(read_svg_tags(MINIMAL))
        assert extraction == dom
        assert (width, height) == (800.0, 600.0)

    def test_rendered_documents(self, apac_svg, apac_reference):
        streamed = stream_extract(apac_svg)
        assert streamed is not None
        assert streamed[0] == extract_objects(read_svg_tags(apac_svg))

    def test_bytes_and_str_sources_agree(self, apac_svg):
        assert stream_extract(apac_svg) == stream_extract(
            apac_svg.encode("utf-8")
        )

    def test_path_source(self, tmp_path):
        path = tmp_path / "map.svg"
        path.write_text(MINIMAL, encoding="utf-8")
        assert stream_extract(path) == stream_extract(MINIMAL)

    def test_unreadable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            stream_extract(tmp_path / "absent.svg")


class TestFallbackTriggers:
    """Out-of-shape inputs return None — never a raised extraction error."""

    @pytest.mark.parametrize(
        "source",
        [
            "",  # no XML at all
            "not xml",
            "<svg broken",  # well past any shape check
            document("<g class='object'><rect x='1' y='1' width='5' height='5'/></g>"),  # nameless group
            document("<g class='object'><text>ghost</text></g>"),  # boxless group
            document("<polygon class='arrow' points='0,0 1,1'/>"),  # short points
            document("<text class='labellink' x='1' y='1'>12%</text>"),  # load before arrows
            document("<rect class='node' x='1' y='1' width='4' height='4'/>"),  # dangling label box
            document("<text class='node' x='1' y='1'>#1</text>"),  # label text, no box
            document("<div class='labellink'>12%</div>"),  # classify_tag rejects
            document("<rect class='node' x='1' y='1' width='0' height='4'/>"),  # zero extent
            document("", root_attrs='width="800pxx" height="600"'),  # bad dimension
            "<root></root>",  # root is not <svg>
            "<svg>&undefined;</svg>",  # undefined entity: expat error
        ],
    )
    def test_returns_none(self, source):
        assert stream_extract(source) is None

    def test_defined_entity_expands_like_the_dom_path(self):
        source = "<!DOCTYPE svg [<!ENTITY e 'x'>]><svg>&e;</svg>"
        streamed = stream_extract(source)
        # Both paths expand the internal entity to plain text and extract
        # nothing; the fast path need not fall back to agree.
        assert streamed is not None
        assert streamed[0] == extract_objects(read_svg_tags(source))

    def test_fallback_reaches_dom_error(self):
        """parse_svg surfaces the DOM path's exact typed error."""
        bad = document("<div class='labellink'>12%</div>")
        with pytest.raises(MalformedSvgError) as via_fast:
            parse_svg(bad, MapName.EUROPE)
        with pytest.raises(MalformedSvgError) as via_dom:
            parse_svg(bad, MapName.EUROPE, options=ParseOptions(fast_path=False))
        assert str(via_fast.value) == str(via_dom.value)

    def test_fast_path_never_touches_the_dom_reader(self, apac_svg, monkeypatch):
        """A well-shaped document must be handled without the DOM pipeline."""

        def forbidden(source):
            raise AssertionError("fast path fell back to read_svg_tags")

        import repro.parsing.pipeline as pipeline_module

        monkeypatch.setattr(pipeline_module, "read_svg_tags", forbidden)
        parsed = parse_svg(apac_svg, MapName.ASIA_PACIFIC)
        assert parsed.snapshot.links


class TestDifferentialYaml:
    def test_byte_identical_yaml(self, apac_svg, apac_reference):
        fast = parse_svg(apac_svg, MapName.ASIA_PACIFIC, apac_reference.timestamp)
        slow = parse_svg(
            apac_svg,
            MapName.ASIA_PACIFIC,
            apac_reference.timestamp,
            options=ParseOptions(fast_path=False),
        )
        assert snapshot_to_yaml(fast.snapshot) == snapshot_to_yaml(slow.snapshot)


class TestStageTimings:
    def test_fast_path_hit_accounting(self, apac_svg):
        timings = StageTimings()
        parse_svg(apac_svg, MapName.ASIA_PACIFIC, timings=timings)
        assert timings.fast_path_hits == 1
        assert timings.fallbacks == 0
        assert timings.seconds["read"] == 0.0  # fused pass: no separate read
        assert timings.seconds["extract"] > 0.0
        assert timings.total == sum(timings.seconds.values())

    def test_fallback_accounting(self):
        bad = document("<div class='labellink'>12%</div>")
        timings = StageTimings()
        with pytest.raises(MalformedSvgError):
            parse_svg(bad, MapName.EUROPE, timings=timings)
        assert timings.fast_path_hits == 0
        assert timings.fallbacks == 1

    def test_as_dict_shape(self):
        timings = StageTimings()
        timings.add("extract", 0.5)
        view = timings.as_dict()
        assert set(view) == {"seconds", "fast_path_hits", "fallbacks"}
        assert view["seconds"]["extract"] == 0.5


class TestDimensionParsing:
    @pytest.mark.parametrize(
        ("raw", "expected"),
        [
            ("800", 800.0),
            ("800px", 800.0),
            (" 640.5 pt ", 640.5),
            ("100%", 100.0),
            ("-3.5mm", -3.5),
            (".5in", 0.5),
            ("1e3", 1000.0),
            ("2E2px", 200.0),
        ],
    )
    def test_accepts_number_with_optional_unit(self, raw, expected):
        assert parse_dimension_value(raw) == expected

    @pytest.mark.parametrize(
        "raw",
        ["", "px", "800pxx", "800 600", "12furlong", "1..2", "--5", "8,0", "nan"],
    )
    def test_rejects_malformed(self, raw):
        with pytest.raises(MalformedSvgError):
            parse_dimension_value(raw)

    def test_root_attribute_error_names_the_attribute(self):
        with pytest.raises(MalformedSvgError, match="width.*800pxx"):
            read_svg_tags(document("", root_attrs='width="800pxx" height="1"'))


class TestTagStreamCaching:
    def test_tags_returns_the_same_tuple(self, apac_svg):
        stream = read_svg_tags(apac_svg)
        assert stream.tags is stream.tags
        assert isinstance(stream.tags, tuple)
        assert len(stream.tags) == len(stream)


class TestRetainedParseState:
    """Parsing keeps no per-coordinate state between documents."""

    def test_sixteen_documents_retain_under_one_mib(self, simulator, monkeypatch):
        """4 maps x 4 instants 120 days apart; only each map's layout stays."""
        from datetime import timedelta

        from repro.constants import REFERENCE_DATE
        from repro.layout.renderer import MapRenderer
        from repro.parsing import pipeline
        from repro.telemetry import MetricsRegistry, use_registry

        monkeypatch.setattr(pipeline, "_LAYOUTS", {})
        renderer = MapRenderer()
        documents = [
            (map_name, renderer.render(simulator.snapshot(map_name, when)))
            for when in [REFERENCE_DATE - timedelta(days=120 * k) for k in range(4)]
            for map_name in MapName
        ]
        registry = MetricsRegistry()
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            with use_registry(registry):
                for map_name, svg in documents:
                    parse_svg(svg, map_name)
            gc.collect()
            retained = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, "*repro/parsing/*")]
            )
        finally:
            if not was_tracing:
                tracemalloc.stop()
        size = sum(stat.size for stat in retained.statistics("filename"))
        assert size < 1 << 20, f"{size / (1 << 20):.2f} MiB retained"
        # Every map but the world map changed its layout at each instant,
        # so the slots were replaced, not accumulated.
        reuse = registry.get("repro_parse_layout_reuse_total")
        assert reuse.value(outcome="miss") == 13
        assert reuse.value(outcome="hit") == 3
