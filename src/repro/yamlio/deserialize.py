"""YAML document → MapSnapshot, with schema validation.

Two read paths build the document :func:`snapshot_from_document` checks:

* :func:`fast_document` accepts only the layout
  :func:`~repro.yamlio.serialize.snapshot_to_yaml` emits and builds
  exactly the document ``yaml.load`` would, with the same types, at a
  fraction of the cost;
* for any other text it returns ``None`` and ``yaml.load`` parses it,
  which also owns every YAML error message.

Which path ran depends only on the input text and never shows in the
result; ``repro_yaml_fast_path_total{outcome}`` counts the split.

The fast reader is :func:`read_layout`, the one strict reader of the
emitter's layout, with two sinks: :func:`fast_document` here, and the
index build's column decoder (:mod:`repro.dataset.index`), which skips
the document and the snapshot.  Every file is read through
:func:`read_twin`, which makes text that is not UTF-8 a ``SchemaError``.
"""

from __future__ import annotations

import re
from datetime import datetime
from pathlib import Path
from typing import Iterator

import yaml
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

from repro.constants import MapName
from repro.errors import LoadRangeError, SchemaError
from repro.telemetry import get_registry
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node, NodeKind

#: libyaml's parser when compiled in, the pure-Python one otherwise.  Both
#: build identical documents; the C parser is ~7x faster on this schema.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# ---------------------------------------------------------------------------
# The fast reader
# ---------------------------------------------------------------------------
#
# The layout, as the emitter writes it (flow lists wrap before an item
# that would start past column 120, continuing two spaces in):
#
#     map: europe
#     timestamp: '2022-09-12T10:05:00+00:00'
#     routers: [fra-r1, par-r2, ...,
#       wrapped-name]
#     peerings: [AMS-IX]
#     links:
#     - a: {node: fra-r1, label: '#1', load: 42.0}
#       b: {node: par-r2, label: '#1', load: 9.0}
#
# Every scalar is single-line.  Plain scalars are restricted to characters
# that can neither end nor re-type a token in flow context, so the token
# boundaries here are the ones YAML sees; PyYAML's implicit resolver then
# decides whether a plain token is a string at all.

#: Printable ASCII except space and ``,[]{}:?``; ``#`` may not start a
#: word, where it would open a comment.
_PLAIN_CHAR = r"[!-+\--9;->@-Z\\^-z|~]"
_WORD_START = r"[!-\"$-+\--9;->@-Z\\^-z|~]"
#: Words of those characters joined by single spaces, starting with a
#: character that is no YAML indicator.
_PLAIN = rf"[A-Za-z0-9_./+()]{_PLAIN_CHAR}*(?: {_WORD_START}{_PLAIN_CHAR}*)*"
_SINGLE = r"'(?:[ -&(-~]|'')*'"
_DOUBLE = r'"(?:[ !#-\[\]-~]|\\[!-~])*"'
_SCALAR = rf"(?:{_PLAIN}|{_SINGLE}|{_DOUBLE})"
#: ``repr(float)`` digits with the dot YAML 1.1 needs to resolve a float.
_LOAD = r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?"
_LIST = rf"\[(?:{_SCALAR}(?:,(?: |\n  ){_SCALAR})*)?\]"


def _link_pattern(group: str) -> str:
    """One link's line pair; ``group`` opens each field's group."""
    end = rf"\{{node: {group}{_SCALAR}), label: {group}{_SCALAR}), load: {group}{_LOAD})\}}"
    return rf"- a: {end}\n  b: {end}\n"


#: Everything before the first link; the last group is set for ``links: []``.
_HEADER = re.compile(
    rf"map: ({_SCALAR})\ntimestamp: ({_SCALAR})\n"
    rf"routers: ({_LIST})\npeerings: ({_LIST})\n"
    rf"links:(?:( \[\]\n)|\n)"
)
_ITEM = re.compile(_SCALAR)
_LINK = re.compile(_link_pattern("("))

#: The escapes the emitter writes besides ``\x``, ``\u`` and ``\U``.
_ESCAPES = {
    "0": "\0", "a": "\x07", "b": "\x08", "t": "\t", "n": "\n", "v": "\x0b",
    "f": "\x0c", "r": "\r", "e": "\x1b", '"': '"', "\\": "\\",
    "N": "\x85", "_": "\xa0", "L": "\u2028", "P": "\u2029",
}
_ESCAPE = re.compile(r"\\(?:x([0-9A-Fa-f]{2})|u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|(.))")

_STR_TAG = "tag:yaml.org,2002:str"
_RESOLVER = Resolver()

#: Caps keep the shared caches bounded on adversarial input, so a
#: long-lived process cannot grow with the archive; a real series repeats
#: a small vocabulary of names, labels and loads.
_CACHE_LIMIT = 65536

_SCALAR_CACHE: dict[str, str] = {}
_LOAD_CACHE: dict[str, float] = {}


def _unescape(body: str) -> str | None:
    """A double-quoted scalar's value; ``None`` for an escape not taken."""
    pieces = []
    start = 0
    for match in _ESCAPE.finditer(body):
        pieces.append(body[start : match.start()])
        start = match.end()
        digits = match.group(1) or match.group(2) or match.group(3)
        if digits is None:
            char = _ESCAPES.get(match.group(4))
            if char is None:
                return None
            pieces.append(char)
            continue
        code = int(digits, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            return None  # libyaml rejects these escapes
        pieces.append(chr(code))
    pieces.append(body[start:])
    return "".join(pieces)


def scalar_value(token: str) -> str | None:
    """The ``str`` a scalar token loads as, or ``None`` if it is no string."""
    value = _SCALAR_CACHE.get(token)
    if value is not None:
        return value
    first = token[0]
    if first == "'":
        value = token[1:-1].replace("''", "'")
    elif first == '"':
        value = _unescape(token[1:-1])
        if value is None:
            return None
    elif _RESOLVER.resolve(ScalarNode, token, (True, False)) == _STR_TAG:
        value = token
    else:
        return None
    if len(_SCALAR_CACHE) > _CACHE_LIMIT:
        _SCALAR_CACHE.clear()
    _SCALAR_CACHE[token] = value
    return value


def load_value(token: str) -> float | None:
    """The float a load token loads as, if the token is its ``repr``."""
    value = _LOAD_CACHE.get(token)
    if value is not None:
        return value
    value = float(token)
    if repr(value) != token:
        return None
    if len(_LOAD_CACHE) > _CACHE_LIMIT:
        _LOAD_CACHE.clear()
    _LOAD_CACHE[token] = value
    return value


def _link_tokens(text: str, position: int, empty: bool) -> Iterator[tuple[str, ...] | None]:
    """Each link's six raw tokens from ``position`` on; a last ``None`` if
    the rest of ``text`` leaves the layout.

    The links are matched one line pair at a time, so the regex engine
    keeps one link's match state, not the whole document's.
    """
    end = len(text)
    if empty:
        if position != end:
            yield None
        return
    match = _LINK.match
    while True:
        link = match(text, position)
        if link is None:
            yield None
            return
        yield link.groups()
        position = link.end()
        if position == end:
            return


def read_layout(
    text: str,
) -> tuple[str, str, list[str], list[str], Iterator[tuple[str, ...] | None]] | None:
    """``text`` split into the raw tokens of the emitter's layout.

    The one strict reader of that layout, with two sinks:
    :func:`fast_document` builds ``yaml.load``'s document from it and the
    index build decodes twins from it straight into columns
    (:class:`repro.dataset.index.SnapshotIndex`).  Returns ``None`` if the
    header (everything before the first link) leaves the layout, else
    ``(map, timestamp, routers, peerings, links)``: the scalar tokens, the
    two lists' item tokens, and an iterator of each link's ``(a node,
    a label, a load, b node, b label, b load)`` tokens that ends with
    ``None`` if a later line leaves the layout.  :func:`scalar_value` and
    :func:`load_value` say what a token loads as.
    """
    header = _HEADER.match(text)
    if header is None:
        return None
    map_token, timestamp_token, routers, peerings, no_links = header.groups()
    return (
        map_token,
        timestamp_token,
        _ITEM.findall(routers),
        _ITEM.findall(peerings),
        _link_tokens(text, header.end(), no_links is not None),
    )


def _strings(tokens: list[str]) -> list[str] | None:
    values = [scalar_value(token) for token in tokens]
    return None if None in values else values


def _end(node: str, label: str, load: str) -> dict | None:
    end = {"node": scalar_value(node), "label": scalar_value(label), "load": load_value(load)}
    return None if None in end.values() else end


def fast_document(text: str) -> dict | None:
    """The document ``yaml.load(text)`` builds, if ``text`` has our layout.

    Returns ``None``, never raising, for any text outside the layout
    :func:`~repro.yamlio.serialize.snapshot_to_yaml` emits: a comment, a
    tab, CRLF line endings, a wrapped link line, an int or ``.nan`` load,
    a plain scalar PyYAML would not resolve to a string, and so on.
    """
    layout = read_layout(text)
    if layout is None:
        return None
    map_token, timestamp_token, routers, peerings, link_tokens = layout
    document = {
        "map": scalar_value(map_token),
        "timestamp": scalar_value(timestamp_token),
        "routers": _strings(routers),
        "peerings": _strings(peerings),
    }
    if None in document.values():
        return None
    links = []
    for tokens in link_tokens:
        if tokens is None:
            return None
        a_node, a_label, a_load, b_node, b_label, b_load = tokens
        a = _end(a_node, a_label, a_load)
        b = _end(b_node, b_label, b_load)
        if a is None or b is None:
            return None
        links.append({"a": a, "b": b})
    document["links"] = links
    return document


# ---------------------------------------------------------------------------
# Document → snapshot
# ---------------------------------------------------------------------------


def _require(document: dict, key: str, kind: type) -> object:
    """Fetch a typed field or raise a SchemaError naming it."""
    if key not in document:
        raise SchemaError(f"document missing required field {key!r}")
    value = document[key]
    if not isinstance(value, kind):
        raise SchemaError(
            f"field {key!r} should be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _parse_end(raw: object, side: str) -> LinkEnd:
    """Validate and build one link end."""
    if not isinstance(raw, dict):
        raise SchemaError(f"link end {side!r} is not a mapping")
    node = raw.get("node")
    label = raw.get("label")
    load = raw.get("load")
    if not isinstance(node, str) or not node:
        raise SchemaError(f"link end {side!r} has no node name")
    if not isinstance(label, str):
        raise SchemaError(f"link end {side!r} has no label")
    if not isinstance(load, (int, float)) or isinstance(load, bool):
        raise SchemaError(f"link end {side!r} load is not a number")
    return LinkEnd(node=node, label=label, load=float(load))


def snapshot_from_document(document: dict) -> MapSnapshot:
    """Build a snapshot from a parsed YAML document."""
    if not isinstance(document, dict):
        raise SchemaError("YAML root is not a mapping")

    map_value = _require(document, "map", str)
    try:
        map_name = MapName(map_value)
    except ValueError as exc:
        raise SchemaError(f"unknown map name {map_value!r}") from exc

    timestamp_text = _require(document, "timestamp", str)
    try:
        timestamp = datetime.fromisoformat(timestamp_text)
    except ValueError as exc:
        raise SchemaError(f"bad timestamp {timestamp_text!r}") from exc

    snapshot = MapSnapshot(map_name=map_name, timestamp=timestamp)
    for name in _require(document, "routers", list):
        if not isinstance(name, str):
            raise SchemaError("router names must be strings")
        snapshot.add_node(Node(name=name, kind=NodeKind.ROUTER))
    for name in _require(document, "peerings", list):
        if not isinstance(name, str):
            raise SchemaError("peering names must be strings")
        snapshot.add_node(Node(name=name, kind=NodeKind.PEERING))

    for raw_link in _require(document, "links", list):
        if not isinstance(raw_link, dict):
            raise SchemaError("link entries must be mappings")
        snapshot.add_link(
            Link(a=_parse_end(raw_link.get("a"), "a"), b=_parse_end(raw_link.get("b"), "b"))
        )
    return snapshot


def snapshot_from_yaml(text: str) -> MapSnapshot:
    """Parse YAML text into a snapshot.

    Raises:
        SchemaError: on YAML syntax errors or schema violations.
    """
    registry = get_registry()
    document = fast_document(text)
    registry.counter(
        "repro_yaml_fast_path_total",
        "YAML documents the fast reader built (hit) or left to yaml.load (fallback)",
    ).inc(1, outcome="fallback" if document is None else "hit")
    try:
        if document is None:
            document = yaml.load(text, Loader=_LOADER)
        snapshot = snapshot_from_document(document)
    except (yaml.YAMLError, SchemaError) as exc:
        registry.counter(
            "repro_yaml_errors_total", "YAML documents rejected by operation"
        ).inc(1, op="deserialize")
        if isinstance(exc, SchemaError):
            raise
        raise SchemaError(f"invalid YAML: {exc}") from exc
    registry.counter("repro_yaml_docs_total", "YAML documents by operation").inc(
        1, op="deserialize"
    )
    return snapshot


def read_twin(path: str | Path) -> str:
    """One YAML file's text: the read every twin reader shares.

    Raises:
        SchemaError: the file is not valid UTF-8, so it is one bad
            source like any other, never an aborted walk or build.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        get_registry().counter(
            "repro_yaml_errors_total", "YAML documents rejected by operation"
        ).inc(1, op="deserialize")
        raise SchemaError(f"not valid UTF-8: {exc}") from exc


def read_snapshot(path: str | Path) -> MapSnapshot:
    """Read one snapshot from a YAML file."""
    return snapshot_from_yaml(read_twin(path))


def try_read_snapshot(path: str | Path) -> tuple[MapSnapshot | None, str]:
    """Pool worker: one YAML file → ``(snapshot, "")`` or ``(None, message)``.

    A twin that breaks the schema, or carries a load outside [0, 100]
    (``LoadRangeError``, a ``ParseError`` rather than a ``SchemaError``),
    is one bad source: its message is returned, so one file never aborts
    a batch.
    """
    try:
        return read_snapshot(path), ""
    except (SchemaError, LoadRangeError) as exc:
        return None, str(exc)
