"""Ablations on the extraction pipeline's design choices.

Three studies backing DESIGN.md §6:

* **faithful vs accelerated attribution** — the paper's quadratic
  formulation of Algorithm 2 against the grid-indexed equivalent (output
  is asserted identical; the speedup is what makes half-a-million-file
  processing practical);
* **parser throughput vs map size** — Europe-, North-America- and
  World-scale documents through the full pipeline;
* **label-distance threshold sweep** — how tolerant the attribution is to
  the paper's "few pixels" threshold choice.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import print_header

from repro.constants import MapName, REFERENCE_DATE
from repro.errors import MissingLabelError
from repro.layout.renderer import MapRenderer
from repro.parsing.algorithm1 import extract_objects
from repro.parsing.algorithm2 import attribute_objects
from repro.parsing.pipeline import ParseOptions, parse_svg
from repro.svgdoc.reader import read_svg_tags


@pytest.fixture(scope="module")
def europe_svg(simulator):
    snapshot = simulator.snapshot(MapName.EUROPE, REFERENCE_DATE)
    return MapRenderer().render(snapshot)


@pytest.fixture(scope="module")
def europe_extraction(europe_svg):
    return extract_objects(read_svg_tags(europe_svg))


def _signatures(links) -> Counter:
    return Counter(
        tuple(
            sorted(
                (
                    (link.a.router.name, link.a.label.text, link.a.load),
                    (link.b.router.name, link.b.label.text, link.b.load),
                )
            )
        )
        for link in links
    )


def test_ablation_faithful_attribution(benchmark, europe_extraction):
    """The paper's exact quadratic Algorithm 2 on the Europe map."""
    result = benchmark.pedantic(
        lambda: attribute_objects(europe_extraction, accelerated=False),
        rounds=2,
        iterations=1,
    )
    assert len(result) == 1009


def test_ablation_accelerated_attribution(benchmark, europe_extraction):
    """Grid-indexed Algorithm 2: identical output, order-of-magnitude faster."""
    result = benchmark(lambda: attribute_objects(europe_extraction, accelerated=True))
    faithful = attribute_objects(europe_extraction, accelerated=False)
    assert _signatures(result) == _signatures(faithful)

    print_header("Ablation — faithful vs accelerated Algorithm 2")
    print("outputs identical on the Europe map (1,009 links); see the")
    print("benchmark table for the speedup.")


@pytest.mark.parametrize(
    "map_name", [MapName.WORLD, MapName.NORTH_AMERICA, MapName.EUROPE]
)
def test_ablation_parser_throughput_by_map_size(benchmark, simulator, map_name):
    """Full-pipeline extraction cost across map sizes."""
    snapshot = simulator.snapshot(map_name, REFERENCE_DATE)
    svg = MapRenderer().render(snapshot)
    benchmark.extra_info["links"] = len(snapshot.links)
    benchmark.extra_info["svg_kib"] = len(svg) // 1024
    parsed = benchmark(lambda: parse_svg(svg, map_name, REFERENCE_DATE))
    assert parsed.snapshot.summary_counts() == snapshot.summary_counts()


def test_ablation_label_threshold_sweep(benchmark, simulator, europe_svg):
    """Sweep the Algorithm 2 label-distance threshold.

    On well-formed maps each link end's label box *contains* the arrow
    base (attribution distance zero), so the extraction succeeds at every
    positive threshold — the paper's "few pixels" threshold is a guard
    against malformed or displaced labels, not a tuned parameter.  The
    sweep confirms that, and a displaced-label probe confirms the guard
    actually fires.
    """

    def outcome(threshold: float, svg: str) -> str:
        try:
            parse_svg(
                svg,
                MapName.EUROPE,
                REFERENCE_DATE,
                options=ParseOptions(label_distance_threshold=threshold),
            )
            return "ok"
        except MissingLabelError:
            return "label-miss"

    thresholds = (0.5, 2.0, 5.0, 10.0, 20.0, 40.0, 80.0)
    results = benchmark.pedantic(
        lambda: {t: outcome(t, europe_svg) for t in thresholds},
        rounds=1,
        iterations=1,
    )

    print_header("Ablation — label-distance threshold sweep (Europe map)")
    for threshold, status in results.items():
        print(f"  threshold {threshold:>5.1f} px : {status}")

    # Every positive threshold works on a well-formed map: labels sit on
    # the arrow bases, the attribution distance is ~0.
    assert all(status == "ok" for status in results.values())

    # The guard fires on displaced labels: strip every label *box* x
    # offset by shifting one of them far away.
    import re

    displaced = re.sub(
        r'<rect class="node" x="([\d.]+)"',
        lambda m: f'<rect class="node" x="{float(m.group(1)) + 500:.2f}"',
        europe_svg,
        count=1,
    )
    assert outcome(40.0, displaced) == "label-miss"
    print("  displaced-label probe  : label-miss (guard fires)")
