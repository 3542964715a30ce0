"""Typed views over the raw SVG tags of a weathermap document.

Algorithm 1 of the paper dispatches on two properties of each tag: its
``class`` attribute and its tag name.  ``classify_tag`` performs exactly that
dispatch, turning a :class:`RawTag` into one of the typed element views:

* ``ObjectElement`` — a router or physical-peering white box with its name
  (``class`` starts with ``object``),
* ``ArrowElement`` — one ``polygon`` arrow, half of a bidirectional link,
* ``LoadTextElement`` — a ``labellink`` text carrying a load percentage,
* ``LabelBoxElement`` / ``LabelTextElement`` — the two tags of a link label
  (``class`` is ``node``; first the white ``rect``, then the ``text``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MalformedSvgError
from repro.geometry import Point, Rect


@dataclass(frozen=True, slots=True)
class RawTag:
    """A raw SVG tag in document order, as produced by the reader.

    ``children`` is only populated for grouped tags (router objects); links
    and labels appear flat at the top level of the document.
    """

    tag: str
    attributes: dict[str, str]
    text: str | None = None
    children: tuple["RawTag", ...] = field(default=())

    @property
    def svg_class(self) -> str:
        """The ``class`` attribute, or an empty string."""
        return self.attributes.get("class", "")

    def float_attribute(self, name: str) -> float:
        """Parse a numeric attribute, raising the paper's malformed-SVG error.

        The paper reports real files "with malformed attribute values"; every
        numeric parse funnels through here so such files fail with
        :class:`~repro.errors.MalformedSvgError` and get counted as
        unprocessed in Table 2.
        """
        value = self.attributes.get(name)
        if value is None:
            raise MalformedSvgError(f"<{self.tag}> missing attribute {name!r}")
        try:
            return float(value)
        except ValueError as exc:
            raise MalformedSvgError(
                f"<{self.tag}> attribute {name!r} has malformed value {value!r}"
            ) from exc


def is_peering_name(name: str) -> bool:
    """Peerings are written in upper case on the map (Section 4)."""
    return name.upper() == name


@dataclass(frozen=True, slots=True)
class ObjectElement:
    """A router or physical peering: a white box and a name.

    OVH routers carry lower-case names (``fra-fr5-pb6-nc5``); physical
    peerings carry upper-case names (``ARELION``).
    """

    name: str
    box: Rect

    @property
    def is_peering(self) -> bool:
        """Peerings are written in upper case on the map (Section 4)."""
        return is_peering_name(self.name)

    @property
    def is_router(self) -> bool:
        """OVH routers are written in lower case on the map."""
        return not self.is_peering


@dataclass(frozen=True, slots=True)
class ArrowElement:
    """One arrow polygon: half of a bidirectional link.

    The renderer emits arrow polygons with the two base corners first and
    last in the point list, so ``base_midpoint`` recovers "the middle
    coordinates of the basis" that Algorithm 2 builds the link line from.
    """

    points: tuple[Point, ...]
    fill: str = ""

    @property
    def base_midpoint(self) -> Point:
        """Midpoint of the arrow's rear edge (its basis)."""
        return self.points[0].midpoint(self.points[-1])

    @property
    def tip(self) -> Point:
        """The arrow head tip (the point farthest from the basis)."""
        base = self.base_midpoint
        return max(self.points, key=base.distance_to)


@dataclass(frozen=True, slots=True)
class LoadTextElement:
    """A ``labellink`` text tag carrying one direction's load percentage."""

    raw_text: str
    anchor: Point

    @property
    def load(self) -> float:
        """The percentage as a float in [0, 100].

        Raises:
            MalformedSvgError: when the text is not ``<number>%``.
        """
        text = self.raw_text.strip()
        if not text.endswith("%"):
            raise MalformedSvgError(f"load text {self.raw_text!r} lacks a % suffix")
        try:
            return float(text[:-1].strip())
        except ValueError as exc:
            raise MalformedSvgError(
                f"load text {self.raw_text!r} is not a percentage"
            ) from exc


@dataclass(frozen=True, slots=True)
class LabelBoxElement:
    """The white rectangle of a link label (first tag of the pair)."""

    box: Rect


@dataclass(frozen=True, slots=True)
class LabelTextElement:
    """The text of a link label, e.g. ``#1`` (second tag of the pair)."""

    text: str


ClassifiedElement = (
    ObjectElement | ArrowElement | LoadTextElement | LabelBoxElement | LabelTextElement
)


def _parse_points(raw: str) -> tuple[Point, ...]:
    """Parse an SVG ``points`` attribute into Point tuples."""
    cleaned = raw.replace(",", " ").split()
    if len(cleaned) < 6 or len(cleaned) % 2 != 0:
        raise MalformedSvgError(f"polygon points attribute malformed: {raw!r}")
    try:
        values = [float(token) for token in cleaned]
    except ValueError as exc:
        raise MalformedSvgError(f"polygon points attribute malformed: {raw!r}") from exc
    return tuple(Point(values[i], values[i + 1]) for i in range(0, len(values), 2))


def _rect_from_tag(tag: RawTag) -> Rect:
    """Build a Rect from a ``<rect>`` tag's geometry attributes."""
    return Rect(
        tag.float_attribute("x"),
        tag.float_attribute("y"),
        tag.float_attribute("width"),
        tag.float_attribute("height"),
    )


def _parse_object(tag: RawTag) -> ObjectElement:
    """Parse a router/peering group: one ``<rect>`` box and one ``<text>`` name."""
    box: Rect | None = None
    name: str | None = None
    for child in tag.children:
        if child.tag == "rect" and box is None:
            box = _rect_from_tag(child)
        elif child.tag == "text" and name is None:
            name = (child.text or "").strip()
    if box is None or not name:
        raise MalformedSvgError(
            "object group lacks elements (no box or name) — cannot extract router"
        )
    return ObjectElement(name=name, box=box)


def classify_tag(tag: RawTag) -> ClassifiedElement | None:
    """Dispatch one raw tag exactly as Algorithm 1 does.

    Returns ``None`` for tags the algorithm ignores (background, legend,
    decorations), letting the caller simply skip them.
    """
    svg_class = tag.svg_class
    if svg_class.startswith("object"):
        return _parse_object(tag)
    if tag.tag == "polygon":
        return ArrowElement(
            points=_parse_points(tag.attributes.get("points", "")),
            fill=tag.attributes.get("fill", ""),
        )
    if svg_class == "labellink":
        if tag.tag != "text":
            raise MalformedSvgError("labellink class on a non-text tag")
        return LoadTextElement(
            raw_text=tag.text or "",
            anchor=Point(tag.float_attribute("x"), tag.float_attribute("y")),
        )
    if svg_class == "node":
        if tag.tag == "rect":
            return LabelBoxElement(box=_rect_from_tag(tag))
        if tag.tag == "text":
            return LabelTextElement(text=(tag.text or "").strip())
        raise MalformedSvgError(f"node class on unexpected tag <{tag.tag}>")
    return None
