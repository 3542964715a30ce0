"""Generative round-trip fuzzing: random topologies survive render→parse.

The strongest correctness property of the reproduction: *any* structurally
valid map the simulator could plausibly produce — random node counts,
random parallel groups, duplicate labels, zero loads — must come back
identical through the renderer and the extraction pipeline.
"""

from collections import Counter
from datetime import datetime, timezone

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.constants import MapName
from repro.layout.renderer import MapRenderer
from repro.parsing.pipeline import ParseOptions, StageTimings, parse_svg
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node
from repro.yamlio.serialize import snapshot_to_yaml

NOW = datetime(2022, 9, 12, tzinfo=timezone.utc)

_SITES = ("fra", "rbx", "gra", "lon", "waw")
_PEERINGS = ("ARELION", "OMANTEL", "VODAFONE", "AMS-IX", "DE-CIX")


@st.composite
def renderable_snapshots(draw):
    """Small random snapshots with the weathermap's structural quirks.

    Every router must end up with at least one link (the parser's
    isolated-router check is part of the contract), so links are grown
    over a random tree first.
    """
    router_count = draw(st.integers(min_value=2, max_value=7))
    routers = [
        f"{_SITES[i % len(_SITES)]}-r{i}" for i in range(router_count)
    ]
    peering_count = draw(st.integers(min_value=0, max_value=3))
    peerings = list(_PEERINGS[:peering_count])

    snapshot = MapSnapshot(map_name=MapName.EUROPE, timestamp=NOW)
    for name in routers + peerings:
        snapshot.add_node(Node.from_name(name))

    loads = st.integers(min_value=0, max_value=100)

    def add_group(a: str, b: str) -> None:
        size = draw(st.integers(min_value=1, max_value=4))
        duplicate = draw(st.booleans())
        for index in range(size):
            label = "#1" if duplicate else f"#{index + 1}"
            snapshot.add_link(
                Link(
                    a=LinkEnd(a, label, float(draw(loads))),
                    b=LinkEnd(b, label, float(draw(loads))),
                )
            )

    # Spanning tree over routers keeps everyone connected.
    for index in range(1, router_count):
        parent = routers[draw(st.integers(min_value=0, max_value=index - 1))]
        add_group(routers[index], parent)
    # Each peering attaches to one router.
    for peering in peerings:
        target = routers[draw(st.integers(min_value=0, max_value=router_count - 1))]
        add_group(target, peering)
    # A few extra random adjacencies.
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        a = routers[draw(st.integers(min_value=0, max_value=router_count - 1))]
        b = routers[draw(st.integers(min_value=0, max_value=router_count - 1))]
        if a != b:
            add_group(a, b)
    return snapshot


def _signatures(snapshot) -> Counter:
    return Counter(
        tuple(
            sorted(
                (
                    (link.a.node, link.a.label, link.a.load),
                    (link.b.node, link.b.label, link.b.load),
                )
            )
        )
        for link in snapshot.links
    )


@given(renderable_snapshots(), st.integers(min_value=0, max_value=5))
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_topology_round_trips(snapshot, seed):
    svg = MapRenderer(seed=seed).render(snapshot)
    parsed = parse_svg(svg, MapName.EUROPE, NOW)
    assert set(parsed.snapshot.nodes) == set(snapshot.nodes)
    assert _signatures(parsed.snapshot) == _signatures(snapshot)


@given(renderable_snapshots())
@settings(max_examples=15, deadline=None)
def test_faithful_mode_matches_accelerated(snapshot):
    svg = MapRenderer(seed=1).render(snapshot)
    fast = parse_svg(svg, MapName.EUROPE, NOW)
    slow = parse_svg(svg, MapName.EUROPE, NOW, options=ParseOptions(accelerated=False))
    assert _signatures(fast.snapshot) == _signatures(slow.snapshot)


@given(renderable_snapshots(), st.integers(min_value=0, max_value=5))
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_fast_path_yaml_byte_identical_on_rendered_documents(snapshot, seed):
    """The streaming fast path must be invisible in the dataset.

    For any rendered document, the fused expat pass and the faithful DOM
    pipeline must serialise to *byte-identical* YAML — and the fast path
    must actually have run (zero fallbacks), or the equivalence proves
    nothing.
    """
    svg = MapRenderer(seed=seed).render(snapshot)
    timings = StageTimings()
    streamed = parse_svg(svg, MapName.EUROPE, NOW, timings=timings)
    faithful = parse_svg(svg, MapName.EUROPE, NOW, options=ParseOptions(fast_path=False))
    assert timings.fast_path_hits == 1 and timings.fallbacks == 0
    assert snapshot_to_yaml(streamed.snapshot) == snapshot_to_yaml(
        faithful.snapshot
    )
