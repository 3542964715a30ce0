"""MapSnapshot → YAML document, written directly as text.

:func:`snapshot_to_yaml` is the mirror image of
:func:`~repro.yamlio.deserialize.fast_document`: it formats the layout
that reader accepts line by line.  A name of printable ASCII without
spaces is written plain when it is in the reader's plain class and
PyYAML's resolver reads it back as a string, and single-quoted when it
resolves to another type or starts with an indicator.  A load is written
as ``repr(float)`` when that has a dot and no exponent.  Any other value
(a name with a space, non-ASCII, empty or outside both rules; an int,
bool, nan, inf or exponent load; a link line long enough to wrap) sends
the document to :func:`_dump`, the ``yaml.dump`` call whose text the
direct path reproduces byte for byte.  ``repro_yaml_emit_total{outcome}``
counts the split.
"""

from __future__ import annotations

import re
from pathlib import Path

import yaml
from yaml.nodes import ScalarNode

from repro.errors import SchemaError
from repro.telemetry import get_registry
from repro.topology.model import MapSnapshot
from repro.yamlio.deserialize import _PLAIN_CHAR, _RESOLVER, _STR_TAG

#: libyaml's emitter when compiled in, the pure-Python one otherwise.  The
#: two produce byte-identical documents for this schema (asserted by the
#: test suite), so which one a machine uses never shows in the dataset.
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

_WIDTH = 120

#: Printable ASCII without space: plain or single-quoted, never wrapped.
_PRINTABLE = re.compile(r"[!-~]+")
#: The subset written plain here: the fast reader's plain words.
_PLAIN = re.compile(rf"(?!\.\.\.)[A-Za-z0-9_./+()]{_PLAIN_CHAR}*")
#: A first character that rules out a plain scalar in a flow collection.
_INDICATORS = "#,[]{}&*!|>'\"%@`?:"

#: Name → flow token, or ``None`` for ``yaml.dump``; cleared at the cap so
#: a long-lived process cannot grow with the archive.
_CACHE_LIMIT = 65536
_TOKENS: dict[str, str | None] = {}


def _end_document(end) -> dict:
    return {"node": end.node, "label": end.label, "load": end.load}


def snapshot_to_document(snapshot: MapSnapshot) -> dict:
    """Build the plain-data document for one snapshot.

    The schema mirrors what the extraction produces: the map, the
    observation time, the two node lists, and one entry per link carrying
    both ends (node, label, egress load).
    """
    return {
        "map": snapshot.map_name.value,
        "timestamp": snapshot.timestamp.isoformat(),
        "routers": sorted(node.name for node in snapshot.routers),
        "peerings": sorted(node.name for node in snapshot.peerings),
        "links": [
            {"a": _end_document(link.a), "b": _end_document(link.b)}
            for link in snapshot.links
        ],
    }


def _token(value, flow: bool) -> str | None:
    """A name as the emitter writes it, or ``None`` to fall back."""
    if type(value) is not str or not _PRINTABLE.fullmatch(value):
        return None
    if (flow and value[0] in _INDICATORS) or _RESOLVER.resolve(
        ScalarNode, value, (True, False)
    ) != _STR_TAG:
        return "'" + value.replace("'", "''") + "'"
    return value if _PLAIN.fullmatch(value) else None


def _flow_token(value) -> str | None:
    """:func:`_token` in a flow collection, memoised."""
    if type(value) is not str:  # a str subclass would hit its str's entry
        return None
    if value not in _TOKENS:
        if len(_TOKENS) > _CACHE_LIMIT:
            _TOKENS.clear()
        _TOKENS[value] = _token(value, flow=True)
    return _TOKENS[value]


def _load_token(load) -> str | None:
    """``repr(load)`` for a float written with a dot and no exponent."""
    if type(load) is not float:
        return None
    text = repr(load)
    return text if "." in text and "e" not in text else None


def _flow_list(key: str, values) -> str | None:
    """``key: [a, b, …]``, a line broken after a ``,`` past the width."""
    tokens = [_flow_token(value) for value in values]
    if None in tokens:
        return None
    lines, line = [], f"{key}: ["
    for index, token in enumerate(tokens):
        if index:
            line += ","
            if len(line) > _WIDTH:
                lines.append(line)
                line = " "
            line += " "
        line += token
    return "\n".join([*lines, line + "]\n"])


def _emit(snapshot: MapSnapshot) -> str | None:
    """The document written directly, or ``None`` for ``yaml.dump``."""
    map_token = _token(snapshot.map_name.value, flow=False)
    timestamp_token = _token(snapshot.timestamp.isoformat(), flow=False)
    routers = _flow_list("routers", sorted(node.name for node in snapshot.routers))
    peerings = _flow_list("peerings", sorted(node.name for node in snapshot.peerings))
    if None in (map_token, timestamp_token, routers, peerings):
        return None
    parts = [
        f"map: {map_token}\ntimestamp: {timestamp_token}\n",
        routers,
        peerings,
        "links:\n" if snapshot.links else "links: []\n",
    ]
    for link in snapshot.links:
        a, b = link.a, link.b
        a_node, a_label, a_load = _flow_token(a.node), _flow_token(a.label), _load_token(a.load)
        b_node, b_label, b_load = _flow_token(b.node), _flow_token(b.label), _load_token(b.load)
        if None in (a_node, a_label, a_load, b_node, b_label, b_load):
            return None
        # "- a: {node: " + node + ", label: " + label + "," is the widest
        # column a wrap check sees; past the width the line would wrap.
        if max(len(a_node) + len(a_label), len(b_node) + len(b_label)) + 22 > _WIDTH:
            return None
        parts.append(
            f"- a: {{node: {a_node}, label: {a_label}, load: {a_load}}}\n"
            f"  b: {{node: {b_node}, label: {b_label}, load: {b_load}}}\n"
        )
    return "".join(parts)


def _leaves(value, path: str):
    """``(path, value)`` for every scalar of a document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _leaves(item, f"{path}[{index}]")
    else:
        yield path, value


def _dump(snapshot: MapSnapshot) -> str:
    """The oracle: ``yaml.dump`` of the snapshot's document.

    Raises:
        SchemaError: naming the field whose value YAML cannot represent.
    """
    document = snapshot_to_document(snapshot)
    try:
        return yaml.dump(
            document,
            Dumper=_DUMPER,
            sort_keys=False,
            default_flow_style=None,
            width=_WIDTH,
        )
    except yaml.representer.RepresenterError as exc:
        bad = exc.args[-1]
        field = next((path for path, value in _leaves(document, "") if value is bad), "?")
        raise SchemaError(
            f"field {field!r} holds a {type(bad).__name__}, which YAML cannot represent"
        ) from exc


def snapshot_to_yaml(snapshot: MapSnapshot) -> str:
    """Serialise one snapshot to YAML text.

    The text is byte-identical to ``yaml.dump`` of
    :func:`snapshot_to_document` (see the module docstring).

    Raises:
        SchemaError: for a value YAML cannot represent, naming its field.
    """
    registry = get_registry()
    text = _emit(snapshot)
    registry.counter(
        "repro_yaml_emit_total",
        "YAML documents written directly (direct) or left to yaml.dump (fallback)",
    ).inc(1, outcome="fallback" if text is None else "direct")
    if text is None:
        text = _dump(snapshot)
    registry.counter("repro_yaml_docs_total", "YAML documents by operation").inc(
        1, op="serialize"
    )
    return text


def write_snapshot(snapshot: MapSnapshot, path: str | Path) -> int:
    """Write one snapshot to a YAML file; returns the byte count."""
    text = snapshot_to_yaml(snapshot)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = text.encode("utf-8")
    path.write_bytes(data)
    return len(data)
