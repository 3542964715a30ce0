"""Topology exports for downstream research tooling.

The paper positions its dataset next to Rocketfuel and the Topology Zoo;
researchers consuming those use standard graph formats.  This module
exports snapshots as GraphML (node/edge attributes preserved) and as
adjacency CSV, both round-trippable back into a snapshot.
"""

from __future__ import annotations

import csv
import io
from datetime import datetime
from pathlib import Path

import networkx

from repro.constants import MapName
from repro.errors import SchemaError
from repro.topology.graph import to_networkx
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node, NodeKind


def to_graphml(snapshot: MapSnapshot, path: str | Path | None = None) -> str:
    """Serialise a snapshot as GraphML text, optionally writing a file."""
    graph = to_networkx(snapshot)
    buffer = io.BytesIO()
    networkx.write_graphml(graph, buffer)
    text = buffer.getvalue().decode("utf-8")
    if path is not None:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return text


def from_graphml(text: str) -> MapSnapshot:
    """Rebuild a snapshot from GraphML produced by :func:`to_graphml`.

    Nothing in the pipeline reads GraphML back: this is
    :func:`to_graphml`'s round-trip oracle, which proves the export keeps
    every node, link end, label and load.
    """
    try:
        graph = networkx.read_graphml(io.BytesIO(text.encode("utf-8")), force_multigraph=True)
    except Exception as exc:  # networkx raises several parse error types
        raise SchemaError(f"invalid GraphML: {exc}") from exc

    try:
        map_name = MapName(graph.graph["map_name"])
        timestamp = datetime.fromisoformat(graph.graph["timestamp"])
    except (KeyError, ValueError) as exc:
        raise SchemaError("GraphML lacks map metadata") from exc

    snapshot = MapSnapshot(map_name=map_name, timestamp=timestamp)
    for name, data in graph.nodes(data=True):
        kind = NodeKind(data.get("kind", "router"))
        snapshot.add_node(Node(name=str(name), kind=kind))
    for a, b, data in graph.edges(data=True):
        snapshot.add_link(
            Link(
                a=LinkEnd(
                    node=str(a),
                    label=str(data.get("label_a", "#1")),
                    load=float(data.get("load_ab", 0.0)),
                ),
                b=LinkEnd(
                    node=str(b),
                    label=str(data.get("label_b", "#1")),
                    load=float(data.get("load_ba", 0.0)),
                ),
            )
        )
    return snapshot


def to_adjacency_csv(snapshot: MapSnapshot, path: str | Path | None = None) -> str:
    """One row per link: endpoints, labels, loads, category."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["node_a", "label_a", "load_ab", "node_b", "label_b", "load_ba", "external"]
    )
    for link in snapshot.links:
        writer.writerow(
            [
                link.a.node,
                link.a.label,
                link.a.load,
                link.b.node,
                link.b.label,
                link.b.load,
                int(snapshot.is_external(link)),
            ]
        )
    text = buffer.getvalue()
    if path is not None:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text, encoding="utf-8")
    return text
