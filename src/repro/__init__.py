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

__version__ = "2.0.0"

#: name → (module, attribute) for every lazily exported public name.
_EXPORTS: dict[str, tuple[str, str]] = {
    # constants
    "COLLECTION_START": ("repro.constants", "COLLECTION_START"),
    "MapName": ("repro.constants", "MapName"),
    "REFERENCE_DATE": ("repro.constants", "REFERENCE_DATE"),
    "SNAPSHOT_INTERVAL": ("repro.constants", "SNAPSHOT_INTERVAL"),
    # simulation
    "BackboneSimulator": ("repro.simulation", "BackboneSimulator"),
    "SimulationConfig": ("repro.simulation", "SimulationConfig"),
    "default_config": ("repro.simulation", "default_config"),
    # topology model
    "Link": ("repro.topology.model", "Link"),
    "LinkEnd": ("repro.topology.model", "LinkEnd"),
    "MapSnapshot": ("repro.topology.model", "MapSnapshot"),
    "Node": ("repro.topology.model", "Node"),
    "NodeKind": ("repro.topology.model", "NodeKind"),
    # parsing pipeline
    "ParseOptions": ("repro.parsing.pipeline", "ParseOptions"),
    "parse_svg": ("repro.parsing.pipeline", "parse_svg"),
    "parse_svg_file": ("repro.parsing.pipeline", "parse_svg_file"),
    # dataset substrate
    "DatasetStore": ("repro.dataset.store", "DatasetStore"),
    "InMemoryStore": ("repro.dataset.store", "InMemoryStore"),
    "ShardedDatasetStore": ("repro.dataset.store", "ShardedDatasetStore"),
    "StorageBackend": ("repro.dataset.store", "StorageBackend"),
    "open_store": ("repro.dataset.store", "open_store"),
    "load_all": ("repro.dataset.loader", "load_all"),
    "iter_snapshots": ("repro.dataset.loader", "iter_snapshots"),
    "latest_snapshot": ("repro.dataset.loader", "latest_snapshot"),
    "process_map": ("repro.dataset.processor", "process_map"),
    "process_svg_bytes": ("repro.dataset.processor", "process_svg_bytes"),
    "process_map_parallel": ("repro.dataset.engine", "process_map_parallel"),
    "validate_dataset": ("repro.dataset.validate", "validate_dataset"),
    # zero-copy query engine
    "MappedIndex": ("repro.dataset.query", "MappedIndex"),
    "ScanPredicate": ("repro.dataset.query", "ScanPredicate"),
    "ScanResult": ("repro.dataset.query", "ScanResult"),
    "open_query": ("repro.dataset.query", "open_query"),
    "open_sharded_query": ("repro.dataset.shards", "open_sharded_query"),
    "compact_map_shards": ("repro.dataset.shards", "compact_map_shards"),
    "resolve_read_handle": ("repro.dataset.handles", "resolve_read_handle"),
    # http read api
    "ServeOptions": ("repro.server", "ServeOptions"),
    "WeatherServer": ("repro.server", "WeatherServer"),
    "GenerationWatcher": ("repro.server", "GenerationWatcher"),
    "create_server": ("repro.server", "create_server"),
    "serve": ("repro.server", "serve"),
    # ingestion daemon
    "IngestConfig": ("repro.dataset.ingest", "IngestConfig"),
    "IngestDaemon": ("repro.dataset.ingest", "IngestDaemon"),
    "resume_ingest": ("repro.dataset.ingest", "resume_ingest"),
    # yaml twins
    "snapshot_from_yaml": ("repro.yamlio.deserialize", "snapshot_from_yaml"),
    "snapshot_to_yaml": ("repro.yamlio.serialize", "snapshot_to_yaml"),
    # telemetry
    "MetricsRegistry": ("repro.telemetry", "MetricsRegistry"),
    "get_registry": ("repro.telemetry", "get_registry"),
    "use_registry": ("repro.telemetry", "use_registry"),
    "snapshot_to_prometheus": ("repro.telemetry", "snapshot_to_prometheus"),
    # runtime lock sanitizer
    "install_sanitizer": ("repro.devtools.sanitizer", "install_sanitizer"),
    "uninstall_sanitizer": ("repro.devtools.sanitizer", "uninstall_sanitizer"),
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    """Resolve a public name on first touch (PEP 562 lazy export)."""
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(module_name), attribute)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
