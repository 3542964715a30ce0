"""Streaming fast-path extraction — reader + Algorithm 1 in one expat pass.

The faithful pipeline materialises a full ElementTree DOM, copies it into
:class:`~repro.svgdoc.elements.RawTag` records, then walks those records in
Algorithm 1 — three passes and two throwaway object layers over
machine-generated documents with a fixed shape.  :func:`stream_extract`
fuses all of that into a single pass over ``xml.parsers.expat`` events:
every start/end/character event is dispatched straight into Algorithm 1's
accumulator state machine (routers, arrow/load pairs, label box/text
pairs).  Only router-group subtrees keep any state at all, so box and name
still travel together; nothing else is ever buffered.

Correctness contract
--------------------

The fast path **never** decides that a document is malformed.  On *any*
deviation from the expected weathermap shape — an XML error, an entity
reference, an unparsable attribute, arrows/loads/labels out of order, a
``class`` combination ``classify_tag`` would reject — it returns ``None``
and the caller re-runs the faithful DOM path, which then either succeeds
or raises its usual typed error.  A successful stream therefore implies
the DOM path would have produced the *same* extraction, and a failing
document always surfaces the DOM path's exact exception type and message.
The differential fuzz tests assert both properties.

Layout signature
----------------

Weathermap series repeat the same layout for hours: between two
topology changes only the loads move.  The pass therefore also records
everything Algorithm 2 reads except loads and label texts — each
router's raw ``<rect>`` attributes and name, each label box's raw
attributes and each arrow's raw ``points`` string, in document order —
and joins it into one signature string.
:func:`repro.parsing.pipeline.parse_svg` compares it with the previous
document of the same map and, when equal, replays that document's
attribution instead of re-running Algorithm 2.  Coordinates themselves
are parsed fresh every time: a process-wide memo of every coordinate
string ever seen cost megabytes of resident memory and saved no
measurable time.  Only the small tag/class/name vocabularies are cached.
"""

from __future__ import annotations

from pathlib import Path
from xml.parsers import expat

from repro.constants import LOAD_MAX, LOAD_MIN
from repro.errors import ReproError
from repro.geometry import Point, Rect
from repro.parsing.algorithm1 import (
    ExtractedLabel,
    ExtractedLink,
    ExtractionResult,
)
from repro.svgdoc.elements import ArrowElement, ObjectElement
from repro.svgdoc.reader import load_source, parse_dimension_value

__all__ = ["stream_extract"]

_SVG_NAMESPACE = "http://www.w3.org/2000/svg}"

#: Dispatch codes for one top-level tag, mirroring ``classify_tag``.
_IGNORE = 0
_OBJECT = 1
_ARROW = 2
_LOAD = 3
_LABEL_BOX = 4
_LABEL_TEXT = 5
_BAD = 6  # classify_tag would raise MalformedSvgError

#: Caps keep the shared caches bounded on adversarial input; real series
#: have a small, stable vocabulary that never comes close.
_CACHE_LIMIT = 65536

_NAME_CACHE: dict[str, str] = {}
_DISPATCH_CACHE: dict[str, dict[str, int]] = {}
_INTERN: dict[str, str] = {}

#: Type tags of the layout signature's records; each is followed by a
#: fixed number of raw attribute strings, so the joined signature is
#: unambiguous (well-formed XML never contains the NUL separator).
_SIG_ROUTER = "R"  # x, y, width, height, name
_SIG_LABEL = "L"  # x, y, width, height
_SIG_ARROW = "A"  # points


class _Fallback(Exception):
    """Internal signal: shape outside the fast path — use the DOM path."""


def _element_name(raw: str) -> str:
    """Map an expat name to the form ``classify_tag`` compares against.

    expat (namespace separator ``"}"``) reports ``uri}local``; ElementTree
    reports ``{uri}local`` and the reader strips only the SVG namespace.
    """
    name = _NAME_CACHE.get(raw)
    if name is None:
        if raw.startswith(_SVG_NAMESPACE):
            name = raw[len(_SVG_NAMESPACE):]
        elif "}" in raw:
            name = "{" + raw
        else:
            name = raw
        if len(_NAME_CACHE) > _CACHE_LIMIT:
            _NAME_CACHE.clear()
        _NAME_CACHE[raw] = name
    return name


def _dispatch_code(tag: str, svg_class: str) -> int:
    """Replicate ``classify_tag``'s dispatch order exactly."""
    if svg_class.startswith("object"):
        return _OBJECT
    if tag == "polygon":
        return _ARROW
    if svg_class == "labellink":
        return _LOAD if tag == "text" else _BAD
    if svg_class == "node":
        if tag == "rect":
            return _LABEL_BOX
        if tag == "text":
            return _LABEL_TEXT
        return _BAD
    return _IGNORE


def _points(raw: str) -> tuple[Point, ...]:
    """Twin of ``elements._parse_points`` (reject → fall back)."""
    tokens = raw.replace(",", " ").split()
    if len(tokens) < 6 or len(tokens) % 2 != 0:
        raise _Fallback
    values = map(float, tokens)  # ValueError falls back to the DOM path
    return tuple(map(Point, values, values))


def _rect(attributes: dict[str, str], tag: str, layout: list[str]) -> Rect:
    """Twin of ``elements._rect_from_tag`` (reject → fall back).

    Appends ``tag`` and the raw geometry strings to ``layout``.
    """
    try:
        x = attributes["x"]
        y = attributes["y"]
        width = attributes["width"]
        height = attributes["height"]
    except KeyError:
        raise _Fallback from None
    layout.extend((tag, x, y, width, height))
    # float() ValueError and non-positive-extent GeometryError both
    # propagate out of the pass, which then falls back to the DOM path.
    return Rect(float(x), float(y), float(width), float(height))


def _interned(text: str) -> str:
    if len(_INTERN) > _CACHE_LIMIT:
        _INTERN.clear()
    return _INTERN.setdefault(text, text)


class _StreamMachine:
    """Algorithm 1's accumulator state machine, fed by expat events."""

    __slots__ = (
        "depth",
        "skip_above",
        "routers",
        "links",
        "labels",
        "link",
        "pending_label_box",
        "capture",
        "capture_code",
        "group_depth",
        "group_box",
        "group_name",
        "root_seen",
        "width",
        "height",
        "layout",
    )

    def __init__(self) -> None:
        self.depth = 0
        self.skip_above = 0  # >0: ignore content until depth drops below it
        self.routers: list[ObjectElement] = []
        self.links: list[ExtractedLink] = []
        self.labels: list[ExtractedLabel] = []
        self.link: ExtractedLink | None = None
        self.pending_label_box: Rect | None = None
        self.capture: list[str] | None = None
        self.capture_code = 0
        self.group_depth = 0  # depth of the open object group, 0 if none
        self.group_box: Rect | None = None
        self.group_name: str | None = None
        self.root_seen = False
        self.width = 0.0
        self.height = 0.0
        #: The layout signature's pieces, in document order.
        self.layout: list[str] = []

    # -- expat handlers ---------------------------------------------------

    def start_element(self, raw_name: str, attributes: dict[str, str]) -> None:
        depth = self.depth + 1
        self.depth = depth
        if self.skip_above:
            return
        if self.capture is not None:
            # A child inside a text-bearing element: the DOM path keeps
            # only the text before the first child.  Rare — fall back.
            raise _Fallback

        if depth == 2:
            name = _element_name(raw_name)
            svg_class = attributes.get("class", "")
            by_class = _DISPATCH_CACHE.get(name)
            if by_class is None:
                by_class = _DISPATCH_CACHE[name] = {}
            code = by_class.get(svg_class)
            if code is None:
                code = by_class[svg_class] = _dispatch_code(name, svg_class)
            if code == _IGNORE:
                self.skip_above = depth
            elif code == _ARROW:
                self._arrow(attributes)
                self.skip_above = depth
            elif code == _OBJECT:
                self.group_depth = depth
                self.group_box = None
                self.group_name = None
            elif code == _LOAD:
                # classify_tag validates the x/y anchor even though the
                # load value is all Algorithm 1 consumes.
                try:
                    float(attributes["x"])
                    float(attributes["y"])
                except (KeyError, ValueError):
                    raise _Fallback from None
                self.capture = []
                self.capture_code = _LOAD
            elif code == _LABEL_BOX:
                if self.pending_label_box is not None:
                    raise _Fallback  # "two label boxes without text between"
                self.pending_label_box = _rect(attributes, _SIG_LABEL, self.layout)
                self.skip_above = depth
            elif code == _LABEL_TEXT:
                if self.pending_label_box is None:
                    raise _Fallback  # "label text with no preceding label box"
                self.capture = []
                self.capture_code = _LABEL_TEXT
            else:  # _BAD: classify_tag would raise MalformedSvgError
                raise _Fallback
        elif depth == 1:
            if _element_name(raw_name) != "svg":
                raise _Fallback
            self.root_seen = True
            # The reader validates width/height right after parsing; do it
            # here so the fast path never succeeds where the reader raises.
            try:
                self.width = parse_dimension_value(attributes.get("width", "0"))
                self.height = parse_dimension_value(attributes.get("height", "0"))
            except ReproError:
                raise _Fallback from None
        elif self.group_depth and depth == self.group_depth + 1:
            name = _element_name(raw_name)
            if name == "rect" and self.group_box is None:
                self.group_box = _rect(attributes, _SIG_ROUTER, self.layout)
                self.skip_above = depth
            elif name == "text" and self.group_name is None:
                self.capture = []
                self.capture_code = _OBJECT
            else:
                # Extra children are ignored by _parse_object — their
                # attributes are never parsed, so don't validate them.
                self.skip_above = depth
        else:
            raise _Fallback

    def end_element(self, raw_name: str) -> None:
        depth = self.depth
        self.depth = depth - 1
        if self.skip_above:
            if depth == self.skip_above:
                self.skip_above = 0
            return
        capture = self.capture
        if capture is not None:
            self.capture = None
            text = "".join(capture)
            code = self.capture_code
            if code == _LOAD:
                self._load(text)
            elif code == _LABEL_TEXT:
                self.labels.append(
                    ExtractedLabel(box=self.pending_label_box, text=text.strip())
                )
                self.pending_label_box = None
            else:  # _OBJECT: the group's name text
                self.group_name = text.strip()
            return
        if self.group_depth and depth == self.group_depth:
            self.group_depth = 0
            if self.group_box is None or not self.group_name:
                raise _Fallback  # "object group lacks elements"
            name = _interned(self.group_name)
            self.layout.append(name)
            self.routers.append(ObjectElement(name=name, box=self.group_box))

    def character_data(self, data: str) -> None:
        if self.capture is not None:
            self.capture.append(data)

    def default_handler(self, data: str) -> None:
        # With DefaultHandlerExpand set, defined internal entities still
        # expand into character data; anything reported here that looks
        # like an entity reference is outside the fast path's shape.
        if data.startswith("&"):
            raise _Fallback

    # -- Algorithm 1 transitions ------------------------------------------

    def _arrow(self, attributes: dict[str, str]) -> None:
        raw = attributes.get("points", "")
        element = ArrowElement(
            points=_points(raw), fill=_interned(attributes.get("fill", ""))
        )
        self.layout.extend((_SIG_ARROW, raw))
        link = self.link
        if link is None:
            self.link = ExtractedLink(arrows=[element])
        elif len(link.arrows) == 1 and not link.loads:
            link.arrows.append(element)
        else:
            raise _Fallback  # "third arrow before ... loads completed"

    def _load(self, raw_text: str) -> None:
        link = self.link
        if link is None or len(link.arrows) != 2:
            raise _Fallback  # "load percentage with no preceding arrow pair"
        text = raw_text.strip()
        if not text.endswith("%"):
            raise _Fallback  # "lacks a % suffix"
        load = float(text[:-1].strip())
        if not LOAD_MIN <= load <= LOAD_MAX:
            raise _Fallback  # LoadRangeError in the DOM path
        link.loads.append(load)
        if len(link.loads) == 2:
            self.links.append(link)
            self.link = None


def stream_extract(
    source: str | Path | bytes,
) -> tuple[ExtractionResult, float, float] | None:
    """Extract a weathermap document in one streaming pass.

    Returns ``(extraction, width, height)`` when the document matches the
    expected shape, or ``None`` when the caller must fall back to the
    faithful ``read_svg_tags`` + ``extract_objects`` path — including for
    every malformed document, so the DOM path owns all error reporting.

    Raises:
        OSError: when ``source`` names a file that cannot be read (the
            same error the DOM path would raise).
    """
    streamed = _stream_extract(source)
    return None if streamed is None else streamed[:3]


def _stream_extract(
    source: str | Path | bytes,
) -> tuple[ExtractionResult, float, float, str] | None:
    """:func:`stream_extract` plus the document's layout signature."""
    data = load_source(source)
    machine = _StreamMachine()
    try:
        if isinstance(data, str):
            # ElementTree re-encodes text sources to UTF-8 before expat
            # sees them; doing the same keeps encoding-declaration edge
            # cases (and their errors) byte-identical between the paths.
            data = data.encode("utf-8")
        parser = expat.ParserCreate(None, "}")
        parser.buffer_text = True
        parser.specified_attributes = True
        parser.StartElementHandler = machine.start_element
        parser.EndElementHandler = machine.end_element
        parser.CharacterDataHandler = machine.character_data
        parser.DefaultHandlerExpand = machine.default_handler
        parser.Parse(data, True)
    except (
        _Fallback,
        expat.ExpatError,
        ReproError,
        ValueError,
        LookupError,
        OverflowError,
    ):
        return None
    if (
        not machine.root_seen
        or machine.link is not None
        or machine.pending_label_box is not None
    ):
        return None
    return (
        ExtractionResult(
            routers=machine.routers, links=machine.links, labels=machine.labels
        ),
        machine.width,
        machine.height,
        "\x00".join(machine.layout),
    )
