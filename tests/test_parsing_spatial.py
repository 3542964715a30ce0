"""Tests for the grid index and accelerated-vs-faithful equivalence."""

import pytest

from repro.geometry import Point, Rect, Segment
from repro.parsing.spatial import GridIndex


#: A horizontal line through y=15, crossing every box the tests place there.
ACROSS = Segment(Point(-1000, 15), Point(1000, 15))


class TestGridIndex:
    def test_empty(self):
        index = GridIndex([])
        assert len(index) == 0
        assert index.nearest_on_line(Point(0, 0), ACROSS, 100) == (-1, float("inf"))

    def test_finds_nearby(self):
        index = GridIndex([Rect(10, 10, 20, 20), Rect(500, 500, 20, 20)])
        assert index.nearest_on_line(Point(15, 15), ACROSS, 50) == (0, 0.0)

    def test_radius_respected(self):
        # Box left edge at x=100; query point at x=0 → distance 100.
        index = GridIndex([Rect(100, 0, 10, 20)])
        assert index.nearest_on_line(Point(0, 15), ACROSS, 99)[0] == -1
        assert index.nearest_on_line(Point(0, 15), ACROSS, 101) == (0, 100.0)

    def test_line_must_cross_the_box(self):
        index = GridIndex([Rect(10, 40, 20, 20), Rect(10, 80, 20, 20)])
        assert index.nearest_on_line(Point(15, 15), ACROSS, 200)[0] == -1
        vertical = Segment(Point(15, 0), Point(15, 1))
        assert index.nearest_on_line(Point(15, 15), vertical, 200) == (0, 25.0)

    def test_nearest_wins_and_ties_go_to_the_first_index(self):
        index = GridIndex(
            [Rect(40, 0, 10, 20), Rect(20, 0, 10, 20), Rect(-30, 0, 10, 20)]
        )
        # Boxes 1 and 2 are both 20 px away; box 0 is 40 px away.
        assert index.nearest_on_line(Point(0, 15), ACROSS, 50) == (1, 20.0)

    def test_skipped_entries_are_ignored(self):
        index = GridIndex([Rect(10, 10, 20, 20), Rect(40, 10, 20, 20)])
        assert index.nearest_on_line(Point(15, 15), ACROSS, 50, [True, False]) == (1, 25.0)

    def test_large_box_spanning_cells(self):
        index = GridIndex([Rect(0, 0, 1000, 30)], cell_size=64)
        # Query far from the box origin but on the box.
        assert index.nearest_on_line(Point(900, 15), ACROSS, 10) == (0, 0.0)

    def test_no_duplicates_across_cells(self):
        index = GridIndex([Rect(0, 0, 500, 500)], cell_size=64)
        stamps = []
        index._stamps = _Recording(index._stamps, stamps)
        assert index.nearest_on_line(Point(250, 250), ACROSS, 300) == (0, 0.0)
        assert stamps == [0]

    def test_negative_coordinates(self):
        index = GridIndex([Rect(-200, -200, 20, 20)])
        diagonal = Segment(Point(-300, -300), Point(300, 300))
        assert index.nearest_on_line(Point(-190, -190), diagonal, 10) == (0, 0.0)

    def test_agrees_with_rect_methods(self):
        """Same float expressions: distance and line test match Rect's."""
        import random

        rng = random.Random(7)
        boxes = [
            Rect(rng.uniform(-300, 300), rng.uniform(-300, 300), rng.uniform(1, 60), rng.uniform(1, 40))
            for _ in range(60)
        ]
        index = GridIndex(boxes)
        for _ in range(200):
            point = Point(rng.uniform(-300, 300), rng.uniform(-300, 300))
            line = Segment(point, Point(rng.uniform(-300, 300), rng.uniform(-300, 300)))
            radius = rng.choice((8.0, 90.0))
            expected = min(
                (
                    (box.distance_to_point(point), position)
                    for position, box in enumerate(boxes)
                    if box.distance_to_point(point) <= radius and box.intersects_line(line)
                ),
                default=(float("inf"), -1),
            )
            assert index.nearest_on_line(point, line, radius) == expected[::-1]


class _Recording(list):
    """A stamp list that records which entries a query stamps."""

    def __init__(self, stamps, seen):
        super().__init__(stamps)
        self._seen = seen

    def __setitem__(self, entry, value):
        self._seen.append(entry)
        super().__setitem__(entry, value)


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
