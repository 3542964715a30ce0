"""Tests for the grid index and accelerated-vs-faithful equivalence."""

import pytest

from repro.geometry import Point, Rect
from repro.parsing.spatial import GridIndex


class TestGridIndex:
    def test_empty(self):
        index = GridIndex([])
        assert len(index) == 0
        assert index.near(Point(0, 0), 100) == []

    def test_finds_nearby(self):
        index = GridIndex([(Rect(10, 10, 20, 20), "a"), (Rect(500, 500, 20, 20), "b")])
        found = [payload for _, payload in index.near(Point(15, 15), 50)]
        assert found == ["a"]

    def test_radius_respected(self):
        # Box left edge at x=100; query point at x=0 → distance 100.
        index = GridIndex([(Rect(100, 0, 10, 10), "a")])
        assert index.near(Point(0, 5), 99) == []
        assert len(index.near(Point(0, 5), 101)) == 1

    def test_large_box_spanning_cells(self):
        index = GridIndex([(Rect(0, 0, 1000, 30), "wide")], cell_size=64)
        # Query far from the box origin but on the box.
        found = index.near(Point(900, 15), 10)
        assert len(found) == 1

    def test_no_duplicates_across_cells(self):
        index = GridIndex([(Rect(0, 0, 500, 500), "big")], cell_size=64)
        assert len(index.near(Point(250, 250), 300)) == 1

    def test_negative_coordinates(self):
        index = GridIndex([(Rect(-200, -200, 20, 20), "neg")])
        assert len(index.near(Point(-190, -190), 10)) == 1


class TestEquivalence:
    """Accelerated attribution must match the paper's faithful loop."""

    def test_identical_output_on_real_map(self, apac_svg, apac_reference):
        from repro.constants import MapName
        from repro.parsing.pipeline import ParseOptions, parse_svg

        fast = parse_svg(apac_svg, MapName.ASIA_PACIFIC, apac_reference.timestamp)
        slow = parse_svg(
            apac_svg,
            MapName.ASIA_PACIFIC,
            apac_reference.timestamp,
            options=ParseOptions(accelerated=False),
        )
        assert fast.snapshot.links == slow.snapshot.links

    @pytest.mark.parametrize(
        "routers, expected",
        [
            # The label tie alone: #A and #B both touch end a's base.
            ([("left", Rect(60, -8, 60, 26))], ("left", "#A")),
            # A router tie too: "inner" holds the base, "outer" touches it.
            (
                [("inner", Rect(130, -8, 20, 26)), ("outer", Rect(60, -8, 70, 26))],
                ("inner", "#A"),
            ),
        ],
    )
    def test_exact_distance_ties_break_on_document_order(self, routers, expected):
        """The grid scans cell by cell; a tie must still go to the first box."""
        from repro.parsing.algorithm1 import (
            ExtractedLabel,
            ExtractedLink,
            ExtractionResult,
        )
        from repro.parsing.algorithm2 import attribute_objects
        from repro.svgdoc.elements import ArrowElement, ObjectElement

        world = ExtractionResult(
            routers=[ObjectElement(name=name, box=box) for name, box in routers]
            + [ObjectElement(name="right", box=Rect(420, -8, 40, 26))],
            links=[
                ExtractedLink(
                    arrows=[
                        ArrowElement(points=(Point(130, 0), Point(200, 5), Point(130, 10))),
                        ArrowElement(points=(Point(400, 0), Point(330, 5), Point(400, 10))),
                    ],
                    loads=[10.0, 20.0],
                )
            ],
            labels=[
                ExtractedLabel(box=Rect(130, 0, 20, 10), text="#A"),
                ExtractedLabel(box=Rect(100, 0, 30, 10), text="#B"),
                ExtractedLabel(box=Rect(395, 0, 10, 10), text="#C"),
            ],
        )
        fast = attribute_objects(world, accelerated=True)
        assert fast == attribute_objects(world, accelerated=False)
        (link,) = fast
        assert (link.a.router.name, link.a.label.text) == expected
        assert (link.b.router.name, link.b.label.text) == ("right", "#C")

    def test_identical_errors(self):
        """Both modes fail the same way on a label-less document."""
        from repro.errors import MissingLabelError
        from repro.geometry import Rect
        from repro.parsing.algorithm1 import ExtractedLink, ExtractionResult
        from repro.parsing.algorithm2 import attribute_objects
        from repro.svgdoc.elements import ArrowElement, ObjectElement

        def arrow(x):
            return ArrowElement(points=(Point(x, 0), Point(x + 20, 5), Point(x, 10)))

        world = ExtractionResult(
            routers=[
                ObjectElement(name="left", box=Rect(0, -8, 40, 26)),
                ObjectElement(name="right", box=Rect(300, -8, 40, 26)),
            ],
            links=[ExtractedLink(arrows=[arrow(50), arrow(280)], loads=[10.0, 20.0])],
            labels=[],
        )
        with pytest.raises(MissingLabelError):
            attribute_objects(world, accelerated=True)
        with pytest.raises(MissingLabelError):
            attribute_objects(world, accelerated=False)
