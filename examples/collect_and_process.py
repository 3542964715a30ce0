#!/usr/bin/env python3
"""Collection campaign — replay the dataset-building workflow (Table 2).

Collects half an hour of five-minute snapshots for all four maps into a
temporary dataset directory, processes every SVG into its YAML twin,
and prints the catalog and tables the paper reports.

Run:  python examples/collect_and_process.py
"""

import tempfile
from datetime import timedelta

from repro import BackboneSimulator, REFERENCE_DATE, MapName
from repro.dataset.catalog import DatasetCatalog
from repro.dataset.collector import SimulatedCollector
from repro.dataset.engine import process_map_parallel
from repro.dataset.store import DatasetStore
from repro.dataset.summary import build_table1, build_table2, format_table1, format_table2
from repro.yamlio.deserialize import snapshot_from_yaml


def main() -> None:
    simulator = BackboneSimulator()
    with tempfile.TemporaryDirectory(prefix="ovh-weather-") as root:
        store = DatasetStore(root)
        collector = SimulatedCollector(simulator, store)

        start = REFERENCE_DATE - timedelta(minutes=30)
        print(f"collecting {start.isoformat()} → {REFERENCE_DATE.isoformat()} ...")
        stats = collector.collect(start, REFERENCE_DATE)
        for map_name, files in stats.files_written.items():
            print(f"  {map_name.value:<15} {files:>3} SVGs  "
                  f"{stats.bytes_written[map_name] / 1024:,.0f} KiB")

        print("\nprocessing SVG → YAML ...")
        for map_name in simulator.map_names:
            result = process_map_parallel(store, map_name)
            print(f"  {map_name.value:<15} processed {result.processed:>3}, "
                  f"unprocessed {result.unprocessed}")

        catalog = DatasetCatalog(store)
        print("\ncollection quality:")
        for map_name in simulator.map_names:
            fraction = catalog.fraction_at_resolution(map_name)
            print(f"  {map_name.value:<15} {fraction * 100:5.1f}% of gaps at "
                  "the 5-minute resolution")

        # Table 1 from the *processed* YAML files, like a dataset user would.
        snapshots = {}
        for map_name in simulator.map_names:
            refs = list(store.iter_refs(map_name, "yaml"))
            snapshots[map_name] = snapshot_from_yaml(
                refs[-1].path.read_text(encoding="utf-8")
            )
        print("\nTable 1 (from processed YAMLs):")
        print(format_table1(build_table1(snapshots)))
        print("\nTable 2 (this campaign):")
        print(format_table2(build_table2(store)))


if __name__ == "__main__":
    main()
