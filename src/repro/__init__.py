"""repro — reproduction of the OVH Weather dataset paper (IMC '22).

The library rebuilds the paper's whole stack:

* a deterministic **backbone simulator** standing in for the live OVH
  Network Weathermap (:mod:`repro.simulation`),
* the **SVG renderer** that draws weathermap documents
  (:mod:`repro.layout`),
* the paper's **extraction pipeline** — Algorithms 1 and 2 plus sanity
  checks (:mod:`repro.parsing`),
* the **dataset substrate** — collection, storage, cataloguing, YAML
  processing (:mod:`repro.dataset`, :mod:`repro.yamlio`),
* a synthetic **PeeringDB** (:mod:`repro.peeringdb`),
* an always-on **telemetry registry** — counters, histograms, spans,
  Prometheus/JSON export (:mod:`repro.telemetry`),
* the **analysis library** regenerating every table and figure
  (:mod:`repro.analysis`).

Quickstart::

    from repro import BackboneSimulator, MapName, REFERENCE_DATE
    from repro.layout import render_snapshot
    from repro.parsing import parse_svg

    simulator = BackboneSimulator()
    snapshot = simulator.snapshot(MapName.EUROPE, REFERENCE_DATE)
    svg = render_snapshot(snapshot)
    parsed = parse_svg(svg, MapName.EUROPE, snapshot.timestamp)
    assert parsed.snapshot.summary_counts() == snapshot.summary_counts()

Everything listed in ``__all__`` is the **stable public surface**; it
imports lazily (PEP 562), so ``import repro`` stays cheap — pulling in
:class:`BackboneSimulator` does not drag the analysis stack along.
Names living outside ``__all__`` (and anything underscore-prefixed) are
internal and may change between releases; see the README's
"Public vs internal API" section.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

__version__ = "8.0.0"

#: name → defining module for every lazily exported public name.
_EXPORTS: dict[str, str] = {
    # constants
    "COLLECTION_START": "repro.constants",
    "MapName": "repro.constants",
    "REFERENCE_DATE": "repro.constants",
    "SNAPSHOT_INTERVAL": "repro.constants",
    # simulation
    "BackboneSimulator": "repro.simulation",
    "SimulationConfig": "repro.simulation",
    "default_config": "repro.simulation",
    # topology model
    "Link": "repro.topology.model",
    "LinkEnd": "repro.topology.model",
    "MapSnapshot": "repro.topology.model",
    "Node": "repro.topology.model",
    "NodeKind": "repro.topology.model",
    # parsing pipeline
    "ParseOptions": "repro.parsing.pipeline",
    "parse_svg": "repro.parsing.pipeline",
    "parse_svg_file": "repro.parsing.pipeline",
    # dataset substrate
    "DatasetStore": "repro.dataset.store",
    "ShardedDatasetStore": "repro.dataset.store",
    "open_store": "repro.dataset.store",
    "load_all": "repro.dataset.loader",
    "iter_snapshots": "repro.dataset.loader",
    "latest_snapshot": "repro.dataset.loader",
    "process_svg_bytes": "repro.dataset.processor",
    "process_map_parallel": "repro.dataset.engine",
    "validate_dataset": "repro.dataset.validate",
    # zero-copy query engine
    "MappedIndex": "repro.dataset.query",
    "ScanPredicate": "repro.dataset.query",
    "ScanResult": "repro.dataset.query",
    "compact_map_shards": "repro.dataset.shards",
    "resolve_read_handle": "repro.dataset.handles",
    # http read api
    "ServeOptions": "repro.server",
    "WeatherServer": "repro.server",
    "GenerationWatcher": "repro.server",
    "create_server": "repro.server",
    "serve": "repro.server",
    # ingestion daemon
    "IngestConfig": "repro.dataset.ingest",
    "IngestDaemon": "repro.dataset.ingest",
    # yaml twins
    "snapshot_from_yaml": "repro.yamlio.deserialize",
    "snapshot_to_yaml": "repro.yamlio.serialize",
    # telemetry
    "MetricsRegistry": "repro.telemetry",
    "get_registry": "repro.telemetry",
    "use_registry": "repro.telemetry",
    "snapshot_to_prometheus": "repro.telemetry",
}

__all__ = sorted([*_EXPORTS, "__version__"])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
