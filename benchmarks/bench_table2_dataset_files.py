"""Table 2 — collected and processed files per map.

The paper's Table 2 accounts 542,049 SVGs (227.93 GiB) collected over 26
months and 541,819 processed YAMLs (28.46 GiB), with "less than a hundred
files per map unprocessed".  We replay the same workflow at 1/~10,000
scale: a one-hour collection campaign over all four maps at the full
five-minute cadence, with the corruption injector dialled up so the
unprocessed column is non-empty at this scale.

Shape checks:

* per-map SVG counts follow the availability model (Europe complete,
  the others may drop ticks);
* every uncorrupted SVG processes to a YAML;
* corrupted files are counted as unprocessed, never fatal;
* YAMLs are several times smaller than SVGs (paper: ~8.0x overall);
* per-map size ordering matches the paper (Europe largest, World
  smallest per file).
"""

from __future__ import annotations

from datetime import timedelta

from conftest import print_header

from repro.constants import MapName, REFERENCE_DATE, TABLE2_PAPER, TABLE2_PAPER_TOTAL
from repro.dataset.collector import SimulatedCollector
from repro.dataset.corruption import CorruptionInjector
from repro.dataset.ingest import IngestDaemon
from repro.dataset.store import DatasetStore
from repro.dataset.summary import build_table2, format_table2

#: One hour of collection at the 5-minute cadence (12 ticks per map).
WINDOW = timedelta(hours=1)


def test_table2_collection_and_processing(benchmark, simulator, tmp_path_factory):
    """Collect, corrupt, process, tabulate — the Table 2 workflow."""
    root = tmp_path_factory.mktemp("table2")
    store = DatasetStore(root)
    collector = SimulatedCollector(
        simulator,
        store,
        corruption=CorruptionInjector(seed=simulator.config.seed, rate=0.04),
    )
    start = REFERENCE_DATE - WINDOW
    collect_stats = collector.collect(start, REFERENCE_DATE)

    def process_all():
        return IngestDaemon(store).run(simulator.map_names, rebuild=True).per_map

    processing = benchmark.pedantic(process_all, rounds=1, iterations=1)
    rows = build_table2(store, processing)

    print_header("Table 2 — Collected and processed files (scaled: 1 hour)")
    print("measured:")
    print(format_table2(rows))
    print()
    print("paper (26 months):")
    for map_name, (svgs, svg_gib, yamls, yaml_gib) in TABLE2_PAPER.items():
        print(
            f"{map_name.title:<15} {svgs:>10,} {svg_gib:>10.2f} "
            f"{yamls:>10,} {yaml_gib:>10.2f} {svgs - yamls:>8,}"
        )
    total = TABLE2_PAPER_TOTAL
    print(
        f"{'Total':<15} {total[0]:>10,} {total[1]:>10.2f} "
        f"{total[2]:>10,} {total[3]:>10.2f} {total[0] - total[2]:>8,}"
    )

    by_map = {row.map_name: row for row in rows if row.map_name is not None}

    # Every map collected something; Europe collected (nearly) every tick.
    expected_ticks = int(WINDOW / timedelta(minutes=5))
    assert by_map[MapName.EUROPE].svg_files >= expected_ticks - 1
    for map_name in simulator.map_names:
        assert by_map[map_name].svg_files > 0

    # Unprocessed files are exactly the corrupted ones.
    for map_name in simulator.map_names:
        assert by_map[map_name].unprocessed == collect_stats.corrupted[map_name]
        assert (
            processing[map_name].unprocessed == collect_stats.corrupted[map_name]
        )

    # YAML compression factor in the paper's ballpark (~8x overall).
    total_row = rows[-1]
    assert 3.0 < total_row.compression_factor < 20.0

    # Per-file size ordering matches the paper: Europe SVGs are the
    # largest, World SVGs the smallest.
    per_file = {
        map_name: by_map[map_name].svg_bytes / by_map[map_name].svg_files
        for map_name in simulator.map_names
    }
    assert per_file[MapName.EUROPE] == max(per_file.values())
    assert per_file[MapName.WORLD] == min(per_file.values())
