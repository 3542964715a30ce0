"""Algorithm 2 — object attribution.

For each link, the straight line through the midpoints of its two arrow
bases is intersected with every router box and every (unconsumed) label
box.  Each of the two link ends is then connected to the intersecting
router closest to it and assigned the intersecting label closest to it;
the label is removed from the pool so "labels get assigned to a link only
once" — the paper's defence against duplicate label texts on parallel
links.

Two execution modes produce identical results:

* ``accelerated=False`` — the faithful quadratic loop exactly as the paper
  states it (every link line against every box);
* ``accelerated=True`` (default) — a grid index limits candidates to boxes
  near each link end.  Any box farther than the search radius can never be
  the nearest (the true router sits a few pixels from the end, the label
  essentially on it), and an empty neighbourhood falls back to the full
  scan, so the error behaviour is preserved too.

Both modes break exact-distance ties on document order.  Both compute
a plan first (:func:`attribution_plan`): the chosen router and label
index of every link end.  :func:`replay_plan` turns a plan into links,
and the pipeline replays a stored plan for a later document with the
same layout without re-running the search.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from repro.constants import LABEL_DISTANCE_THRESHOLD
from repro.errors import (
    GeometryError,
    MissingLabelError,
    MissingRouterError,
    SelfLinkError,
)
from repro.geometry import Point, Segment
from repro.parsing.algorithm1 import ExtractedLabel, ExtractionResult
from repro.parsing.spatial import GridIndex
from repro.svgdoc.elements import ObjectElement

#: Candidate search radii around each link end in accelerated mode, tried
#: in turn.  Chosen routers sit at most 4.94 px and labels 0 px from their
#: link ends on the four reference maps, so the first radius nearly always
#: decides; the second is comfortably above both the arrow base gap and
#: the label threshold.
_SEARCH_RADII = (8.0, 90.0)

_INFINITY = float("inf")


@dataclass(frozen=True, slots=True)
class AttributedEnd:
    """One fully attributed link end."""

    position: Point
    router: ObjectElement
    label: ExtractedLabel
    load: float


@dataclass(frozen=True, slots=True)
class AttributedLink:
    """A link whose ends are connected to routers and labels.

    ``a`` is the end of the first arrow in document order; ``a.load`` is
    the egress load from ``a.router`` towards ``b.router``.
    """

    a: AttributedEnd
    b: AttributedEnd


def attribute_objects(
    extraction: ExtractionResult,
    label_distance_threshold: float = LABEL_DISTANCE_THRESHOLD,
    accelerated: bool = True,
) -> list[AttributedLink]:
    """Run Algorithm 2 on Algorithm 1's output.

    Args:
        extraction: the flat router/link/label lists.
        label_distance_threshold: maximum distance between a link end and
            its label box — the paper's "few pixels" sanity threshold.
        accelerated: use the grid-index candidate search (identical
            results, much faster on large maps).

    Raises:
        MissingRouterError: a link end intersects no router box ("SVG files
            lacking elements, such as OVH routers").
        SelfLinkError: both ends resolve to the same router (the scripts
            "report an error when a link is not connected to two (distinct)
            routers").
        MissingLabelError: no unconsumed label intersects the line within
            the distance threshold.
    """
    return replay_plan(
        extraction, attribution_plan(extraction, label_distance_threshold, accelerated)
    )


def attribution_plan(
    extraction: ExtractionResult,
    label_distance_threshold: float,
    accelerated: bool,
) -> array:
    """Algorithm 2's choices, as :func:`replay_plan` reads them.

    The plan holds, per link end in order, the document index of the
    chosen router and of the chosen label.  Raises what
    :func:`attribute_objects` raises.
    """
    routers = extraction.routers
    labels = extraction.labels
    consumed = [False] * len(labels)
    plan = array("i")

    router_index: GridIndex | None = None
    label_index: GridIndex | None = None
    if accelerated:
        router_index = GridIndex(router.box for router in routers)
        label_index = GridIndex(label.box for label in labels)

    for link in extraction.links:
        base_first, base_second = link.bases
        try:
            line = Segment(base_first, base_second)
        except GeometryError as exc:
            raise MissingRouterError(f"degenerate link geometry: {exc}") from exc

        routers_on_line: list[int] | None = None
        labels_on_line: list[int] | None = None

        def full_routers() -> list[int]:
            nonlocal routers_on_line
            if routers_on_line is None:
                routers_on_line = [
                    position
                    for position, router in enumerate(routers)
                    if router.box.intersects_line(line)
                ]
            return routers_on_line

        def full_labels() -> list[int]:
            nonlocal labels_on_line
            if labels_on_line is None:
                labels_on_line = [
                    index
                    for index, label in enumerate(labels)
                    if label.box.intersects_line(line)
                ]
            return labels_on_line

        chosen_routers: list[int] = []
        for end_position in (base_first, base_second):
            # Every nearest search below keeps the smallest (distance,
            # document index), like min() over the document-order lists
            # of the faithful loop.  A radius that finds a box holds the
            # overall nearest, so the grid searches widen only on a miss,
            # and the full scans run in document order with a strict "<".
            # --- router attribution -------------------------------------
            best_router = -1
            router_distance = _INFINITY
            if router_index is not None:
                for radius in _SEARCH_RADII:
                    best_router, router_distance = router_index.nearest_on_line(
                        end_position, line, radius
                    )
                    if best_router >= 0:
                        break
            if best_router < 0:
                for position in full_routers():
                    distance = routers[position].box.distance_to_point(end_position)
                    if distance < router_distance:
                        router_distance = distance
                        best_router = position
            if best_router < 0:
                raise MissingRouterError(
                    f"no router box intersects the link line near "
                    f"({end_position.x:.0f}, {end_position.y:.0f})"
                )

            # --- label attribution --------------------------------------
            best_index = -1
            distance = _INFINITY
            if label_index is not None:
                for radius in _SEARCH_RADII:
                    best_index, distance = label_index.nearest_on_line(
                        end_position, line, radius, consumed
                    )
                    if best_index >= 0:
                        break
            if best_index < 0:
                for position in full_labels():
                    if consumed[position]:
                        continue
                    candidate_distance = labels[position].box.distance_to_point(
                        end_position
                    )
                    if candidate_distance < distance:
                        distance = candidate_distance
                        best_index = position
            if best_index < 0:
                raise MissingLabelError(
                    f"no label intersects the link line near "
                    f"({end_position.x:.0f}, {end_position.y:.0f})"
                )
            if distance > label_distance_threshold:
                raise MissingLabelError(
                    f"closest label {labels[best_index].text!r} is {distance:.1f} px "
                    f"from the link end, beyond the {label_distance_threshold:.0f} px "
                    "threshold",
                    distance=distance,
                )
            consumed[best_index] = True
            plan.append(best_router)
            plan.append(best_index)
            chosen_routers.append(best_router)

        first, second = (routers[position].name for position in chosen_routers)
        if first == second:
            raise SelfLinkError(f"link attributed to router {first!r} at both ends")

    return plan


def replay_plan(extraction: ExtractionResult, plan: array) -> list[AttributedLink]:
    """Rebuild :func:`attribute_objects`' links from its ``plan``.

    Valid only for a document whose layout equals the planned one: the
    same router boxes and names, label boxes and arrows, in the same
    order.  Routers, labels, positions and loads come from
    ``extraction``, so only its loads and label texts may differ.
    """
    routers = extraction.routers
    labels = extraction.labels
    chosen = iter(plan)
    return [
        AttributedLink(
            *(
                AttributedEnd(position, routers[next(chosen)], labels[next(chosen)], load)
                for position, load in zip(link.bases, link.loads)
            )
        )
        for link in extraction.links
    ]
