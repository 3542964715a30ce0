"""Spatial grid index used to accelerate Algorithm 2.

The paper's Algorithm 2 intersects every link's line with *every* router
and label box — quadratic in map size, which is fine for one file but slow
for bulk processing.  The accelerated attribution only needs candidates
near a link's two ends: the end's own router box sits a few pixels away
and its label essentially on it, so any candidate farther than a small
radius can never be the nearest.  Falling back to the full scan when the
neighbourhood is empty preserves the error behaviour exactly; tests assert
output equivalence with the faithful mode.

Boxes live in flat coordinate lists addressed by their document index;
each grid cell holds indices.  One query,
:meth:`GridIndex.nearest_on_line`, does the whole candidate search: it
rejects a box on either axis before paying for ``math.hypot``, runs
:meth:`~repro.geometry.Rect.intersects_line` only on the boxes within
the radius that could still be the nearest, and keeps the smallest
``(distance, index)``.  A box spanning several cells is visited once per
query through a per-query epoch stamp on the entry.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

from repro.geometry import Point, Rect, Segment

_INFINITY = float("inf")


class GridIndex:
    """A uniform grid over axis-aligned boxes, indexed in input order."""

    def __init__(self, boxes: Iterable[Rect], cell_size: float = 64.0) -> None:
        self._cell_size = cell_size
        # The same floats Rect.distance_to_point uses: ``x``, ``y``,
        # ``x + width`` and ``y + height``.
        self._boxes: list[Rect] = []
        self._lefts: list[float] = []
        self._tops: list[float] = []
        self._rights: list[float] = []
        self._bottoms: list[float] = []
        cells: dict[tuple[int, int], list[int]] = defaultdict(list)
        for entry, box in enumerate(boxes):
            left, top = box.x, box.y
            right, bottom = box.x + box.width, box.y + box.height
            self._boxes.append(box)
            self._lefts.append(left)
            self._tops.append(top)
            self._rights.append(right)
            self._bottoms.append(bottom)
            for x in range(int(left // cell_size), int(right // cell_size) + 1):
                for y in range(int(top // cell_size), int(bottom // cell_size) + 1):
                    cells[(x, y)].append(entry)
        self._cells = dict(cells)
        #: Per-entry stamp of the last query that touched it; a query is
        #: one bump of ``_epoch``, so "stamp == epoch" means "already seen".
        self._stamps = [0] * len(self._lefts)
        self._epoch = 0

    def __len__(self) -> int:
        return len(self._lefts)

    def nearest_on_line(
        self,
        point: Point,
        line: Segment,
        radius: float,
        skip: Sequence[bool] | None = None,
    ) -> tuple[int, float]:
        """The nearest box within ``radius`` of ``point`` that ``line`` crosses.

        ``line`` is taken as infinite, as in
        :meth:`~repro.geometry.Rect.intersects_line`; distances are
        :meth:`~repro.geometry.Rect.distance_to_point`'s.  Entries whose
        ``skip`` flag is set are ignored.  Returns ``(index, distance)``
        of the smallest ``(distance, index)``, or ``(-1, inf)`` when no
        box qualifies.
        """
        cell_size = self._cell_size
        px = point.x
        py = point.y
        self._epoch += 1
        epoch = self._epoch
        stamps = self._stamps
        lefts = self._lefts
        tops = self._tops
        rights = self._rights
        bottoms = self._bottoms
        cells = self._cells
        boxes = self._boxes
        best = -1
        best_distance = _INFINITY
        for x in range(int((px - radius) // cell_size), int((px + radius) // cell_size) + 1):
            for y in range(
                int((py - radius) // cell_size), int((py + radius) // cell_size) + 1
            ):
                bucket = cells.get((x, y))
                if bucket is None:
                    continue
                for entry in bucket:
                    if stamps[entry] == epoch:
                        continue
                    stamps[entry] = epoch
                    if skip is not None and skip[entry]:
                        continue
                    dx = lefts[entry] - px
                    if dx < 0.0:
                        dx = px - rights[entry]
                        if dx < 0.0:
                            dx = 0.0
                    if dx > radius:
                        continue
                    dy = tops[entry] - py
                    if dy < 0.0:
                        dy = py - bottoms[entry]
                        if dy < 0.0:
                            dy = 0.0
                    if dy > radius:
                        continue
                    distance = math.hypot(dx, dy)
                    if distance > radius or distance > best_distance or (
                        distance == best_distance and entry > best
                    ):
                        continue
                    if boxes[entry].intersects_line(line):
                        best = entry
                        best_distance = distance
        return best, best_distance
