"""Topology model of a backbone weather map.

A :class:`~repro.topology.model.MapSnapshot` is the ground truth the simulator
produces, the structure the parser extracts from SVG, and the unit the dataset
stores as YAML.  The model mirrors the map semantics of Section 4: OVH routers
(lower-case names) and physical peerings (upper-case names) as nodes,
bidirectional links with per-direction load percentages and per-end labels,
parallel links between the same pair of nodes, and the internal/external link
distinction the analysis relies on.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS: dict[str, str] = {
    "Link": "repro.topology.model",
    "LinkEnd": "repro.topology.model",
    "MapSnapshot": "repro.topology.model",
    "Node": "repro.topology.model",
    "NodeKind": "repro.topology.model",
    "ParallelGroup": "repro.topology.model",
    "directed_parallel_groups": "repro.topology.graph",
    "node_degrees": "repro.topology.graph",
    "parallel_groups": "repro.topology.graph",
    "to_networkx": "repro.topology.graph",
    "SnapshotDiff": "repro.topology.diff",
    "diff_snapshots": "repro.topology.diff",
    "NameGenerator": "repro.topology.names",
    "PEERING_NAMES": "repro.topology.names",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
