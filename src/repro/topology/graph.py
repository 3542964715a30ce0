"""Graph views over a map snapshot (networkx adapters, degrees, ECMP groups)."""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.topology.model import MapSnapshot, ParallelGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx


def to_networkx(snapshot: MapSnapshot) -> networkx.MultiGraph:
    """Build a MultiGraph: one node per router/peering, one edge per link.

    Parallel links become parallel edges, so graph-theoretic measures
    (degree, connectivity, path diversity) match the paper's counting.
    """
    import networkx  # only this adapter uses it, and importing it is slow

    graph = networkx.MultiGraph(
        map_name=snapshot.map_name.value,
        timestamp=snapshot.timestamp.isoformat(),
    )
    for node in snapshot.nodes.values():
        graph.add_node(node.name, kind=node.kind.value)
    for link in snapshot.links:
        graph.add_edge(
            link.a.node,
            link.b.node,
            label_a=link.a.label,
            label_b=link.b.label,
            load_ab=link.a.load,
            load_ba=link.b.load,
            external=snapshot.is_external(link),
        )
    return graph


def node_degrees(snapshot: MapSnapshot, routers_only: bool = True) -> dict[str, int]:
    """Degree of each node, counting all parallel links (Figure 4c).

    Args:
        routers_only: restrict to OVH routers, as the paper's CCDF does.
    """
    degrees: dict[str, int] = defaultdict(int)
    for node in snapshot.nodes.values():
        if routers_only and not node.is_router:
            continue
        degrees[node.name] = 0
    for link in snapshot.links:
        for endpoint in link.nodes:
            if endpoint in degrees:
                degrees[endpoint] += 1
    return dict(degrees)


def parallel_groups(snapshot: MapSnapshot) -> dict[tuple[str, str], list]:
    """Undirected parallel-link groups keyed by sorted endpoint pair."""
    groups: dict[tuple[str, str], list] = defaultdict(list)
    for link in snapshot.links:
        groups[link.key].append(link)
    return dict(groups)


def directed_parallel_groups(snapshot: MapSnapshot) -> list[ParallelGroup]:
    """Every *directed* set of parallel links, as used by Figure 5c.

    Each undirected group of n parallel links yields two directed groups of
    n loads each (one per traffic direction).
    """
    result: list[ParallelGroup] = []
    for (left, right), links in sorted(parallel_groups(snapshot).items()):
        external = snapshot.is_external(links[0])
        loads_forward = tuple(link.load_from(left) for link in links)
        loads_backward = tuple(link.load_from(right) for link in links)
        result.append(
            ParallelGroup(source=left, target=right, loads=loads_forward, external=external)
        )
        result.append(
            ParallelGroup(source=right, target=left, loads=loads_backward, external=external)
        )
    return result


def mean_parallel_link_count(snapshot: MapSnapshot) -> float:
    """Average number of parallel links per connected node pair.

    Section 5 reports 6.58 for the Europe map on the reference date.
    """
    groups = parallel_groups(snapshot)
    if not groups:
        return 0.0
    return len(snapshot.links) / len(groups)


def isolated_routers(snapshot: MapSnapshot) -> list[str]:
    """Routers with no link at all — the parser's final sanity check flags
    these ("we ensure that each router is attributed at least one link")."""
    degrees = node_degrees(snapshot, routers_only=True)
    return sorted(name for name, degree in degrees.items() if degree == 0)
