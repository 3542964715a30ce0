"""Post-attribution sanity checks (Section 4, "Parsing sanity checks").

Algorithm 1 already enforces the in-stream checks (loads within [0, 100],
two arrows per link); Algorithm 2 enforces the geometric ones (label
distance threshold, single-use labels, two distinct routers per link).
This module runs the remaining whole-map checks and produces the
:class:`ParseReport` the dataset pipeline stores alongside each YAML.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Sequence

from repro.errors import IsolatedRouterError
from repro.parsing.algorithm1 import ExtractionResult
from repro.parsing.algorithm2 import AttributedLink
from repro.svgdoc.colors import WEATHERMAP_SCALE, LoadColorScale
from repro.svgdoc.elements import is_peering_name


@dataclass
class ParseReport:
    """Statistics and warnings from parsing one SVG document."""

    router_count: int = 0
    peering_count: int = 0
    link_count: int = 0
    label_count: int = 0
    unused_labels: int = 0
    color_mismatches: int = 0
    isolated_routers: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the document passed every check."""
        return not self.isolated_routers and not self.warnings


def check_load_colors(
    extraction: ExtractionResult,
    scale: LoadColorScale = WEATHERMAP_SCALE,
) -> int:
    """Count load texts whose arrow colour disagrees with the percentage.

    The weathermap encodes each load twice — "explicitly with a percentage
    and implicitly through its color" — so the two can be cross-checked.
    A mismatch means a stale or tampered document (or a scale change).
    """
    return _color_mismatches(*fills_and_loads(extraction), scale=scale)


def _color_mismatches(
    fills: Sequence[str],
    loads: Sequence[float],
    scale: LoadColorScale = WEATHERMAP_SCALE,
) -> int:
    """:func:`check_load_colors` over parallel per-arrow fill and load lists.

    An arrow without a fill is never a mismatch.
    """
    return sum(
        1 for fill, load in zip(fills, loads) if fill and not scale.is_consistent(load, fill)
    )


def fills_and_loads(extraction: ExtractionResult) -> tuple[list[str], list[float]]:
    """Every arrow's fill and load, in document order."""
    fills: list[str] = []
    loads: list[float] = []
    for link in extraction.links:
        for arrow, load in zip(link.arrows, link.loads):
            fills.append(arrow.fill)
            loads.append(load)
    return fills, loads


def run_sanity_checks(
    extraction: ExtractionResult,
    links: list[AttributedLink],
    strict: bool = True,
    check_colors: bool = True,
) -> ParseReport:
    """Validate a fully attributed map.

    Args:
        extraction: Algorithm 1 output (for element totals).
        links: Algorithm 2 output.
        strict: raise on failed checks instead of recording warnings.
        check_colors: cross-check each load percentage against its arrow
            colour (mismatches are warnings, never fatal).

    Raises:
        IsolatedRouterError: in strict mode, when an OVH router ends up
            with no link — the paper's final check ("we ensure that each
            router is attributed at least one link").
    """
    connected: set[str] = set()
    for link in links:
        connected.add(link.a.router.name)
        connected.add(link.b.router.name)
    fills, loads = fills_and_loads(extraction) if check_colors else ([], [])
    return check_map(
        [obj.name for obj in extraction.routers],
        connected,
        label_count=len(extraction.labels),
        link_count=len(links),
        fills=fills,
        loads=loads,
        strict=strict,
    )


def check_map(
    names: Sequence[str],
    connected: Collection[str],
    *,
    label_count: int,
    link_count: int,
    fills: Sequence[str],
    loads: Sequence[float],
    strict: bool,
) -> ParseReport:
    """:func:`run_sanity_checks` over plain values, no geometry.

    ``names`` are the map's routers and peerings in document order,
    ``connected`` the router names at any attributed link end, and
    ``fills``/``loads`` the per-arrow colours and percentages to
    cross-check (empty to skip the colour check).  The pipeline calls it
    directly, so a parse that replays a stored layout builds no objects.
    """
    peerings = sum(1 for name in names if is_peering_name(name))
    report = ParseReport(
        router_count=len(names) - peerings,
        peering_count=peerings,
        link_count=link_count,
        label_count=label_count,
        unused_labels=label_count - 2 * link_count,
    )

    report.color_mismatches = _color_mismatches(fills, loads)
    if report.color_mismatches:
        report.warnings.append(
            f"{report.color_mismatches} loads disagree with their arrow colour"
        )

    isolated = sorted(
        name for name in names if not is_peering_name(name) and name not in connected
    )
    if isolated:
        if strict:
            raise IsolatedRouterError(
                f"{len(isolated)} routers have no attributed link: "
                f"{isolated[:5]}"
            )
        report.isolated_routers = isolated
        report.warnings.append(f"{len(isolated)} isolated routers")

    if report.unused_labels:
        report.warnings.append(
            f"{report.unused_labels} labels were never attributed to a link end"
        )
    return report
