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
topology changes only the loads move.  The pass therefore records
everything Algorithm 2 reads except loads and label texts — each
router's raw ``<rect>`` attributes and name, each label box's raw
attributes and each arrow's raw ``points`` string, each kind in
document order — as the strings of one signature, plus the arrow
fills, loads and label texts beside it (:class:`StreamedDocument`).  It builds no
geometry: :func:`build_extraction` turns the strings into boxes, points
and arrows, and :func:`repro.parsing.pipeline.parse_svg` calls it only
when the signature differs from the map's previous document.  A
signature that repeats is one whose strings already built and
attributed, so the replayed parse needs neither the objects nor their
validation.  Coordinates are parsed fresh on every build: a
process-wide memo of every coordinate string ever seen cost megabytes
of resident memory and saved no measurable time.  Only the small
tag/class/name vocabularies are cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from xml.parsers import expat

from repro.constants import LOAD_MAX, LOAD_MIN
from repro.errors import MalformedSvgError, ReproError
from repro.geometry import Point, Rect
from repro.parsing.algorithm1 import (
    ExtractedLabel,
    ExtractedLink,
    ExtractionResult,
)
from repro.svgdoc.elements import ArrowElement, ObjectElement
from repro.svgdoc.reader import load_source, parse_dimension_value

__all__ = ["StreamedDocument", "build_extraction", "stream_document", "stream_extract"]

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

#: Separators of the layout signature: between strings, and between the
#: router, label and arrow sections.  Every section holds a fixed number
#: of strings per element, and well-formed XML contains neither
#: character, so the joined signature is unambiguous.
_SIG_FIELD = "\x00"
_SIG_SECTION = "\x01"


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
    """Twin of ``elements._parse_points``; raises what ``BUILD_ERRORS`` lists."""
    tokens = raw.replace(",", " ").split()
    if len(tokens) < 6 or len(tokens) % 2 != 0:
        raise MalformedSvgError(f"polygon points attribute malformed: {raw!r}")
    values = map(float, tokens)
    return tuple(map(Point, values, values))


def _rect(x: str, y: str, width: str, height: str) -> Rect:
    """Twin of ``elements._rect_from_tag``; ``ValueError`` or
    ``GeometryError`` (non-positive extent) → fall back."""
    return Rect(float(x), float(y), float(width), float(height))


def _interned(text: str) -> str:
    if len(_INTERN) > _CACHE_LIMIT:
        _INTERN.clear()
    return _INTERN.setdefault(text, text)


@dataclass(frozen=True, slots=True)
class StreamedDocument:
    """What the streaming pass keeps of a document: strings and loads.

    No geometry is built.  ``routers`` holds five strings per router (its
    ``<rect>``'s raw ``x``, ``y``, ``width`` and ``height``, then its
    name), ``labels`` four per label box and ``arrows`` each arrow's raw
    ``points``: everything Algorithm 2 reads, so together they are the
    layout signature.  The other lists hold what the signature leaves
    out, in document order.  Link ``i`` is arrows ``2i`` and ``2i+1``
    with loads ``2i`` and ``2i+1``; label ``j`` has text ``texts[j]``.
    :func:`build_extraction` turns the strings into Algorithm 1's
    objects when a caller needs them.
    """

    routers: list[str]
    labels: list[str]
    arrows: list[str]
    texts: list[str]
    fills: list[str]
    loads: list[float]
    width: float
    height: float

    @property
    def names(self) -> list[str]:
        """The router and peering names, in document order."""
        return self.routers[4::5]

    @property
    def signature(self) -> str:
        """The layout strings joined into one comparable string.

        Algorithm 1 keeps routers, labels and links in three separate
        lists, so how the three kinds interleave in the document does
        not change its output, and is not part of the signature.
        """
        return _SIG_SECTION.join(
            (
                _SIG_FIELD.join(self.routers),
                _SIG_FIELD.join(self.labels),
                _SIG_FIELD.join(self.arrows),
            )
        )


#: What :func:`build_extraction` raises on a coordinate the DOM path
#: would reject (``GeometryError`` is a ``ReproError``).
BUILD_ERRORS = (ValueError, ReproError)


def build_extraction(document: StreamedDocument) -> ExtractionResult:
    """Algorithm 1's objects from a streamed document's strings.

    The one place the fast path builds geometry.  The result equals the
    DOM path's extraction of the same document.

    Raises:
        ValueError, ReproError: a coordinate the DOM path would reject
            (see :data:`BUILD_ERRORS`); the caller falls back to it.
    """
    routers = document.routers
    labels = document.labels
    arrows = [
        ArrowElement(points=_points(raw), fill=fill)
        for raw, fill in zip(document.arrows, document.fills)
    ]
    loads = document.loads
    return ExtractionResult(
        routers=[
            ObjectElement(name=name, box=_rect(x, y, width, height))
            for x, y, width, height, name in zip(
                routers[0::5], routers[1::5], routers[2::5], routers[3::5], routers[4::5]
            )
        ],
        links=[
            ExtractedLink(arrows=[first, second], loads=[load_first, load_second])
            for first, second, load_first, load_second in zip(
                arrows[0::2], arrows[1::2], loads[0::2], loads[1::2]
            )
        ],
        labels=[
            ExtractedLabel(box=_rect(x, y, width, height), text=text)
            for x, y, width, height, text in zip(
                labels[0::4], labels[1::4], labels[2::4], labels[3::4], document.texts
            )
        ],
    )


class _StreamMachine:
    """Algorithm 1's accumulator state machine, fed by expat events.

    It checks the document's shape (arrow/load/label order, the tags
    ``classify_tag`` accepts) and records strings; coordinates are left
    to :func:`build_extraction`.
    """

    __slots__ = (
        "depth",
        "skip_above",
        "link_arrows",
        "link_loads",
        "label_open",
        "capture",
        "capture_code",
        "group_depth",
        "group_boxed",
        "group_name",
        "root_seen",
        "width",
        "height",
        "routers",
        "labels",
        "arrows",
        "texts",
        "fills",
        "loads",
    )

    def __init__(self) -> None:
        self.depth = 0
        self.skip_above = 0  # >0: ignore content until depth drops below it
        self.link_arrows = 0  # arrows of the open link (0: none open)
        self.link_loads = 0  # loads of the open link
        self.label_open = False  # a label box waits for its text
        self.capture: list[str] | None = None
        self.capture_code = 0
        self.group_depth = 0  # depth of the open object group, 0 if none
        self.group_boxed = False
        self.group_name: str | None = None
        self.root_seen = False
        self.width = 0.0
        self.height = 0.0
        #: The layout signature's strings (see StreamedDocument).
        self.routers: list[str] = []
        self.labels: list[str] = []
        self.arrows: list[str] = []
        self.texts: list[str] = []
        self.fills: list[str] = []
        self.loads: list[float] = []

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
                self.group_boxed = False
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
                if self.label_open:
                    raise _Fallback  # "two label boxes without text between"
                self._box(attributes, self.labels)
                self.label_open = True
                self.skip_above = depth
            elif code == _LABEL_TEXT:
                if not self.label_open:
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
            if name == "rect" and not self.group_boxed:
                self._box(attributes, self.routers)
                self.group_boxed = True
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
                self.texts.append(text.strip())
                self.label_open = False
            else:  # _OBJECT: the group's name text
                self.group_name = text.strip()
            return
        if self.group_depth and depth == self.group_depth:
            self.group_depth = 0
            if not self.group_boxed or not self.group_name:
                raise _Fallback  # "object group lacks elements"
            self.routers.append(_interned(self.group_name))

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

    def _box(self, attributes: dict[str, str], strings: list[str]) -> None:
        """Append a ``<rect>``'s raw geometry strings to ``strings``."""
        try:
            strings.extend(
                (
                    attributes["x"],
                    attributes["y"],
                    attributes["width"],
                    attributes["height"],
                )
            )
        except KeyError:
            raise _Fallback from None

    def _arrow(self, attributes: dict[str, str]) -> None:
        if self.link_arrows == 2:
            raise _Fallback  # "third arrow before ... loads completed"
        self.link_arrows += 1
        self.arrows.append(attributes.get("points", ""))
        self.fills.append(attributes.get("fill", ""))

    def _load(self, raw_text: str) -> None:
        if self.link_arrows != 2:
            raise _Fallback  # "load percentage with no preceding arrow pair"
        text = raw_text.strip()
        if not text.endswith("%"):
            raise _Fallback  # "lacks a % suffix"
        load = float(text[:-1].strip())
        if not LOAD_MIN <= load <= LOAD_MAX:
            raise _Fallback  # LoadRangeError in the DOM path
        self.loads.append(load)
        self.link_loads += 1
        if self.link_loads == 2:
            self.link_arrows = self.link_loads = 0


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
    document = stream_document(source)
    if document is None:
        return None
    try:
        extraction = build_extraction(document)
    except BUILD_ERRORS:
        return None
    return extraction, document.width, document.height


def stream_document(source: str | Path | bytes) -> StreamedDocument | None:
    """The streaming pass alone: a document's strings, or ``None`` when
    its shape is outside the fast path.

    A document this returns may still hold a coordinate the DOM path
    rejects; :func:`build_extraction` finds it.
    """
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
    if not machine.root_seen or machine.link_arrows or machine.label_open:
        return None
    return StreamedDocument(
        routers=machine.routers,
        labels=machine.labels,
        arrows=machine.arrows,
        texts=machine.texts,
        fills=machine.fills,
        loads=machine.loads,
        width=machine.width,
        height=machine.height,
    )
