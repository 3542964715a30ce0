"""Document-order SVG tag-stream reader.

Feeds Algorithm 1, which "iterates over SVG tags" in the order they appear in
the file.  The reader flattens the document's top level into a sequence of
:class:`~repro.svgdoc.elements.RawTag` records; router/peering groups keep
their children attached so their box and name travel together, while link
arrows, load texts, and label tags stay flat — exactly the mixed structure
the paper describes.
"""

from __future__ import annotations

import io
import re
import xml.etree.ElementTree as ElementTree
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import MalformedSvgError
from repro.svgdoc.elements import RawTag

_SVG_NAMESPACE = "{http://www.w3.org/2000/svg}"

#: A CSS-style length: a float, optionally followed by one known unit.
#: Anything else — including a mangled unit suffix like ``800pxx`` that the
#: old character-strip heuristic silently accepted — is malformed.
_DIMENSION_RE = re.compile(
    r"\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(?:px|pt|pc|cm|mm|in|em|ex|%)?\s*$"
)


def _local_name(tag: str) -> str:
    """Strip the SVG XML namespace from a tag name."""
    if tag.startswith(_SVG_NAMESPACE):
        return tag[len(_SVG_NAMESPACE):]
    return tag


def _to_raw_tag(element: ElementTree.Element) -> RawTag:
    """Convert an ElementTree node (and its subtree) to a RawTag."""
    children = tuple(_to_raw_tag(child) for child in element)
    return RawTag(
        tag=_local_name(element.tag),
        attributes=dict(element.attrib),
        text=element.text,
        children=children,
    )


class SvgTagStream:
    """The flat tag stream of one weathermap SVG document."""

    def __init__(self, tags: Iterable[RawTag], width: float, height: float) -> None:
        self._tags = tuple(tags)
        self.width = width
        self.height = height

    def __iter__(self) -> Iterator[RawTag]:
        return iter(self._tags)

    def __len__(self) -> int:
        return len(self._tags)

    @property
    def tags(self) -> tuple[RawTag, ...]:
        """All top-level tags in document order (immutable, not a copy)."""
        return self._tags


def parse_dimension_value(raw: str) -> float:
    """Parse one CSS-style length value (``800``, ``800px``, ``100%``...).

    Raises:
        MalformedSvgError: when the value is not a number followed by at
            most one known unit — malformed suffixes must fail loudly, not
            silently mis-parse.
    """
    match = _DIMENSION_RE.match(raw)
    if match is None:
        raise MalformedSvgError(f"malformed dimension value: {raw!r}")
    return float(match.group(1))


def _parse_dimension(root: ElementTree.Element, name: str) -> float:
    """Parse the root ``width``/``height`` attribute (may carry units)."""
    raw = root.attrib.get(name, "0")
    try:
        return parse_dimension_value(raw)
    except MalformedSvgError as exc:
        raise MalformedSvgError(
            f"svg root {name} attribute malformed: {raw!r}"
        ) from exc


def load_source(source: str | Path | bytes) -> bytes | str:
    """Resolve a parse source to document data.

    A ``Path`` (or a path-looking single-line ``.svg`` string) is read from
    disk; raw bytes/text pass through.  Shared by this reader and the
    streaming fast path (:mod:`repro.parsing.stream`) so both parse the
    same document and raise the same ``OSError`` for an unreadable file.
    """
    if isinstance(source, Path):
        return source.read_bytes()
    if isinstance(source, str) and "\n" not in source and source.endswith(".svg"):
        return Path(source).read_bytes()
    return source


def read_svg_tags(source: str | Path | bytes) -> SvgTagStream:
    """Read a weathermap SVG into its flat tag stream.

    Args:
        source: a filesystem path, or the raw document bytes/text.

    Raises:
        MalformedSvgError: when the document is not well-formed XML or its
            root is not an ``<svg>`` element — the real dataset contains such
            files and they must be countable, not fatal.
    """
    data = load_source(source)

    if isinstance(data, str):
        stream: io.IOBase = io.StringIO(data)
    else:
        stream = io.BytesIO(data)

    try:
        tree = ElementTree.parse(stream)
    except ElementTree.ParseError as exc:
        raise MalformedSvgError(f"not well-formed XML: {exc}") from exc
    except (LookupError, ValueError) as exc:
        # expat surfaces a bad/unknown encoding declaration as LookupError
        # (and a few malformed prologs as ValueError), not as ParseError.
        raise MalformedSvgError(f"undecodable XML document: {exc}") from exc

    root = tree.getroot()
    if _local_name(root.tag) != "svg":
        raise MalformedSvgError(f"root element is <{_local_name(root.tag)}>, not <svg>")

    tags = [_to_raw_tag(child) for child in root]
    return SvgTagStream(
        tags=tags,
        width=_parse_dimension(root, "width"),
        height=_parse_dimension(root, "height"),
    )
