"""Integration tests: the full SVG → snapshot extraction pipeline.

The decisive test of the reproduction: a snapshot rendered by our
weathermap renderer and pushed through Algorithms 1+2 must come back
*identical* — same nodes, same links, same labels, same loads.
"""

from collections import Counter

import pytest

from repro.constants import MapName, REFERENCE_DATE
from repro.errors import IsolatedRouterError, MalformedSvgError
from repro.layout.renderer import MapRenderer
from repro.parsing.checks import run_sanity_checks
from repro.parsing.pipeline import ParseOptions, parse_svg


def _link_signatures(snapshot) -> Counter:
    return Counter(
        tuple(
            sorted(
                (
                    (link.a.node, link.a.label, link.a.load),
                    (link.b.node, link.b.label, link.b.load),
                )
            )
        )
        for link in snapshot.links
    )


class TestRoundTrip:
    def test_apac_counts(self, apac_reference, apac_parsed):
        assert apac_parsed.snapshot.summary_counts() == apac_reference.summary_counts()

    def test_apac_exact_links(self, apac_reference, apac_parsed):
        assert _link_signatures(apac_parsed.snapshot) == _link_signatures(apac_reference)

    def test_apac_node_sets(self, apac_reference, apac_parsed):
        assert set(apac_parsed.snapshot.nodes) == set(apac_reference.nodes)

    def test_report_clean(self, apac_parsed):
        assert apac_parsed.report.ok
        assert apac_parsed.report.unused_labels == 0

    def test_timestamp_stamped(self, apac_parsed, apac_reference):
        assert apac_parsed.snapshot.timestamp == apac_reference.timestamp

    @pytest.mark.parametrize(
        "map_name", [MapName.EUROPE, MapName.WORLD, MapName.NORTH_AMERICA]
    )
    def test_all_maps_round_trip(self, simulator, map_name):
        snapshot = simulator.snapshot(map_name, REFERENCE_DATE)
        svg = MapRenderer().render(snapshot)
        parsed = parse_svg(svg, map_name, snapshot.timestamp)
        assert _link_signatures(parsed.snapshot) == _link_signatures(snapshot)

    def test_mid_window_round_trip(self, simulator):
        from datetime import datetime, timezone

        when = datetime(2021, 3, 17, 8, 45, tzinfo=timezone.utc)
        snapshot = simulator.snapshot(MapName.ASIA_PACIFIC, when)
        svg = MapRenderer().render(snapshot)
        parsed = parse_svg(svg, MapName.ASIA_PACIFIC, when)
        assert _link_signatures(parsed.snapshot) == _link_signatures(snapshot)


class TestFailureModes:
    def test_not_xml(self):
        with pytest.raises(MalformedSvgError):
            parse_svg("this is not xml at all")

    def test_truncated_document(self, apac_svg):
        with pytest.raises(MalformedSvgError):
            parse_svg(apac_svg[: len(apac_svg) // 2])

    def test_mangled_attribute(self, apac_svg):
        import re

        # Mangle an attribute on a tag the extraction actually parses (a
        # link-label box), like the malformed values the paper observed.
        corrupted = re.sub(
            r'class="node" x="[\d.]+"', 'class="node" x="12..34"', apac_svg, count=1
        )
        assert corrupted != apac_svg
        with pytest.raises(MalformedSvgError):
            parse_svg(corrupted)

    def test_missing_objects(self, apac_svg):
        import re

        from repro.errors import AttributionError

        corrupted = re.sub(
            r'<g class="object[^"]*">.*?</g>', "", apac_svg, flags=re.DOTALL
        )
        with pytest.raises(AttributionError):
            parse_svg(corrupted)


class TestSanityChecks:
    def test_isolated_router_strict(self, apac_parsed):
        from repro.svgdoc.elements import ObjectElement
        from repro.geometry import Rect

        extraction = apac_parsed.extraction
        extraction.routers.append(
            ObjectElement(name="ghost-router", box=Rect(1, 1, 10, 10))
        )
        links = []  # nothing connects ghost-router
        with pytest.raises(IsolatedRouterError):
            run_sanity_checks(extraction, links, strict=True)
        extraction.routers.pop()

    def test_isolated_router_lenient(self, apac_parsed):
        from repro.svgdoc.elements import ObjectElement
        from repro.geometry import Rect

        extraction = apac_parsed.extraction
        extraction.routers.append(
            ObjectElement(name="ghost-router", box=Rect(1, 1, 10, 10))
        )
        report = run_sanity_checks(extraction, [], strict=False)
        extraction.routers.pop()
        assert "ghost-router" in report.isolated_routers
        assert not report.ok

    def test_peerings_may_be_linkless(self):
        """Only OVH *routers* must have a link; peerings are exempt."""
        from repro.geometry import Rect
        from repro.parsing.algorithm1 import ExtractionResult
        from repro.svgdoc.elements import ObjectElement

        extraction = ExtractionResult(
            routers=[ObjectElement(name="SOMEPEER", box=Rect(0, 0, 10, 10))]
        )
        report = run_sanity_checks(extraction, [], strict=True)
        assert report.peering_count == 1


class TestFileParsing:
    """File- and bytes-based parsing must accept the same options."""

    def test_options_forwarded(self, tmp_path, apac_svg, apac_reference):
        from repro.parsing.pipeline import parse_svg_file

        path = tmp_path / "apac.svg"
        path.write_text(apac_svg, encoding="utf-8")
        options = ParseOptions(label_distance_threshold=123.0, accelerated=False)
        from_file = parse_svg_file(
            path,
            MapName.ASIA_PACIFIC,
            apac_reference.timestamp,
            options=options,
        )
        from_bytes = parse_svg(
            apac_svg.encode("utf-8"),
            MapName.ASIA_PACIFIC,
            apac_reference.timestamp,
            options=options,
        )
        assert _link_signatures(from_file.snapshot) == _link_signatures(
            from_bytes.snapshot
        )
        assert from_file.snapshot.summary_counts() == from_bytes.snapshot.summary_counts()

    def test_every_option_reaches_parse_svg(self, tmp_path, apac_svg, monkeypatch):
        """No option may be silently dropped on the file path."""
        from repro.parsing import pipeline

        captured = {}

        def recording(source, **kwargs):
            captured.update(kwargs)
            return "sentinel"

        monkeypatch.setattr(pipeline, "parse_svg", recording)
        path = tmp_path / "apac.svg"
        path.write_text(apac_svg, encoding="utf-8")
        result = pipeline.parse_svg_file(
            path,
            MapName.ASIA_PACIFIC,
            strict=False,
            options=ParseOptions(label_distance_threshold=42.0, accelerated=False),
        )
        assert result == "sentinel"
        assert captured["strict"] is False
        assert captured["map_name"] == MapName.ASIA_PACIFIC
        options = captured["options"]
        assert options.label_distance_threshold == 42.0
        assert options.accelerated is False
        assert options.fast_path is True
