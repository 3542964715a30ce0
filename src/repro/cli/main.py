"""``repro-weather`` — drive the whole reproduction from the shell.

Subcommands::

    generate   simulate a collection campaign into a dataset directory
    ingest     run the SVG→YAML extraction (the crash-safe ingestion
               daemon), or show its status
    index      build or inspect the columnar snapshot index
    query      zero-copy scans over the index (time range, node, link, load)
    serve      run the cached HTTP read API over a dataset directory
    catalog    print per-map time frames and snapshot-distance stats
    tables     print Table 1 and Table 2 for a dataset directory
    render     render one snapshot SVG to stdout or a file
    upgrade    replay the Figure 6 case study
    metrics    render a saved telemetry snapshot (Prometheus or JSON)

``ingest run``, ``index build``, and ``export`` accept ``--metrics-out PATH``
to dump the run's telemetry registry as a JSON snapshot, which ``metrics``
renders back in either exposition format.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

from repro.constants import MapName, REFERENCE_DATE
from repro.dataset.store import open_store
from repro.errors import CliUsageError
from repro.telemetry import get_registry, write_metrics_file


def _parse_when(text: str) -> datetime:
    """Parse an ISO timestamp, defaulting to UTC when naive."""
    when = datetime.fromisoformat(text)
    if when.tzinfo is None:
        when = when.replace(tzinfo=timezone.utc)
    return when


def _workers_argument(text: str) -> int | str:
    if text == "auto":
        return text
    try:
        workers = int(text)
    except ValueError:
        raise CliUsageError(f"invalid workers value: {text!r}") from None
    if workers < 0:
        raise CliUsageError(
            f"workers must be >= 0 (0 or 'auto' = one per CPU core), got {workers}"
        )
    return workers


def _positive_argument(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise CliUsageError(f"invalid count: {text!r}") from None
    if value < 1:
        raise CliUsageError(f"must be >= 1, got {value}")
    return value


def _maybe_write_metrics(args: argparse.Namespace) -> None:
    """Honour ``--metrics-out`` by snapshotting the active registry."""
    path = getattr(args, "metrics_out", None)
    if path:
        write_metrics_file(Path(path), get_registry())
        print(f"wrote metrics to {path}", file=sys.stderr)


def _map_argument(text: str) -> MapName:
    try:
        return MapName(text)
    except ValueError:
        valid = ", ".join(m.value for m in MapName)
        raise CliUsageError(f"unknown map {text!r}; one of: {valid}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2022, help="simulation seed")


def cmd_generate(args: argparse.Namespace) -> int:
    """Simulate a collection campaign into a dataset directory."""
    from repro.dataset.collector import SimulatedCollector
    from repro.simulation.network import BackboneSimulator

    simulator = BackboneSimulator()
    store = open_store(args.output)
    store.mark()
    collector = SimulatedCollector(simulator, store)
    maps = [args.map] if args.map else None
    start = _parse_when(args.start)
    end = _parse_when(args.end)
    stats = collector.collect(
        start, end, maps=maps, interval=timedelta(minutes=args.interval)
    )
    for map_name, files in stats.files_written.items():
        print(
            f"{map_name.value:<15} {files:>6} files "
            f"{stats.bytes_written[map_name] / 1024 / 1024:>9.1f} MiB "
            f"({stats.corrupted[map_name]} corrupted, "
            f"{stats.ticks_skipped[map_name]} ticks skipped)"
        )
    return 0


def cmd_ingest_run(args: argparse.Namespace) -> int:
    """Run the crash-safe ingestion daemon over a dataset directory."""
    from repro.dataset.ingest import IngestConfig, IngestDaemon
    from repro.dataset.workers import resolve_workers

    store = open_store(args.dataset)
    store.mark()
    config = IngestConfig(
        workers=resolve_workers(args.workers),
        checkpoint_every=args.checkpoint_every,
        fsync_every=args.fsync_every,
        max_files=args.max_files,
        strict=args.strict,
        update_index=not args.no_index,
    )
    maps = [args.map] if args.map else None
    stats = IngestDaemon(store, config).run(maps, rebuild=args.overwrite)
    print(
        f"ingested {stats.ingested} files "
        f"({stats.processed} processed, {stats.failed} failed, "
        f"{stats.skipped} skipped, {stats.replayed} replayed from journal) "
        f"in {stats.run_seconds:.1f} s — {stats.sustained_fps:.1f} files/s"
    )
    if stats.recovery_seconds > 0:
        print(f"  recovery {stats.recovery_seconds:.3f} s, "
              f"{stats.checkpoints} checkpoints")
    _maybe_write_metrics(args)
    return 0


def cmd_ingest_status(args: argparse.Namespace) -> int:
    """Show the last status the ingestion daemon published."""
    from repro.dataset.ingest import read_ingest_status

    status = read_ingest_status(args.dataset)
    if status is None:
        print(f"no ingest status under {args.dataset}", file=sys.stderr)
        return 1
    pid = status.get("pid")
    alive = False
    if isinstance(pid, int):
        try:
            os.kill(pid, 0)
            alive = True
        except PermissionError:
            alive = True  # exists, just not ours to signal
        except OSError:
            alive = False
    state = status.get("state", "?")
    liveness = "running" if alive and state != "done" else "not running"
    print(f"state {state} (pid {pid}, {liveness})")
    print(
        f"  processed {status.get('processed', 0)}  "
        f"failed {status.get('failed', 0)}  "
        f"skipped {status.get('skipped', 0)}  "
        f"replayed {status.get('replayed', 0)}"
    )
    pending_left = status.get("pending_left")
    if pending_left is not None:
        print(f"  pending {pending_left} of {status.get('pending_total', '?')}")
    overall = status.get("overall_fps")
    recent = status.get("recent_fps")
    if isinstance(overall, (int, float)) and isinstance(recent, (int, float)):
        print(f"  throughput {overall:.1f} files/s overall, "
              f"{recent:.1f} files/s recent")
    return 0


def cmd_index_build(args: argparse.Namespace) -> int:
    """Compact each map's per-day shard indexes (only changed shards)."""
    from repro.dataset.shards import compact_map_shards
    from repro.dataset.workers import lend_pool

    store = open_store(args.dataset)
    built_any = False
    # One pool, opened on first need, for every map's shards.
    with lend_pool(args.workers) as pool:
        for map_name in [args.map] if args.map else list(MapName):
            if not store.shard_keys(map_name, "yaml"):
                continue
            shard_stats = compact_map_shards(
                store,
                map_name,
                rebuild=args.rebuild,
                workers=pool,
                on_error=lambda ref, exc: print(
                    f"  skipping unreadable {ref.path.name}: {exc}", file=sys.stderr
                ),
            )
            built_any = True
            shards_total = len(shard_stats.built) + len(shard_stats.skipped)
            print(
                f"{map_name.value:<15} {shard_stats.rows:>6} rows across "
                f"{shards_total} shards ({len(shard_stats.built)} built, "
                f"{len(shard_stats.skipped)} skipped, "
                f"{len(shard_stats.removed)} removed) in {shard_stats.seconds:.2f} s"
            )
    _maybe_write_metrics(args)
    if not built_any:
        print("no processed snapshots to index", file=sys.stderr)
        return 1
    return 0


def cmd_index_status(args: argparse.Namespace) -> int:
    """Report each map's shard indexes: rows, size, and freshness."""
    from repro.dataset.shards import ShardManifest, verify_shards

    store = open_store(args.dataset)
    all_fresh = True
    shown = 0
    for map_name in [args.map] if args.map else list(MapName):
        has_yaml = bool(store.shard_keys(map_name, "yaml"))
        manifest = ShardManifest.load(store.shards_manifest_path(map_name))
        if not has_yaml and not manifest.entries:
            continue
        shown += 1
        entries = verify_shards(store, map_name)
        fresh = entries is not None
        listed = entries if entries is not None else sorted(manifest.entries.items())
        rows = sum(entry.rows for _, entry in listed)
        skipped = sum(entry.skipped for _, entry in listed)
        size = sum(entry.index_size for _, entry in listed)
        verdict = "fresh" if fresh else "STALE"
        print(
            f"{map_name.value:<15} {verdict:<6} {rows:>6} rows "
            f"{skipped:>3} skipped {size / 1024:>9.1f} KiB "
            f"({len(listed)} shards)"
        )
        all_fresh = all_fresh and fresh
    if shown == 0:
        print("no dataset files found", file=sys.stderr)
        return 1
    return 0 if all_fresh else 1


def cmd_query(args: argparse.Namespace) -> int:
    """Scan the mapped index: time-range/node/link/load filters, no objects."""
    import csv
    from itertools import islice

    from repro.dataset.handles import resolve_read_handle
    from repro.dataset.query import ScanPredicate
    from repro.errors import QueryError

    store = open_store(args.dataset)
    engine = resolve_read_handle(store, args.map)
    if engine is None:
        print(
            f"no fresh index for {args.map.value}; "
            f"run `repro-weather index build {args.dataset}` first",
            file=sys.stderr,
        )
        return 1
    try:
        predicate = ScanPredicate(
            start=_parse_when(args.start) if args.start else None,
            end=_parse_when(args.end) if args.end else None,
            node=args.node,
            link=(args.link[0], args.link[1]) if args.link else None,
            min_load=args.min_load,
            max_load=args.max_load,
        )
    except QueryError as exc:
        print(str(exc), file=sys.stderr)
        engine.close()
        return 1
    with engine:
        result = engine.scan(predicate)
        if args.format == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(
                ["timestamp", "node_a", "label_a", "load_a",
                 "node_b", "label_b", "load_b"]
            )
            for record in result.records():
                writer.writerow(
                    [record.timestamp.isoformat(), record.node_a, record.label_a,
                     record.load_a, record.node_b, record.label_b, record.load_b]
                )
        else:
            source = "mmap" if engine.mapped else "buffered"
            print(
                f"{args.map.value}: {len(result):,} matching links over "
                f"{result.snapshot_count:,} snapshots ({source} source)"
            )
            peak = count = 0.0
            total = 0
            for batch in result.batches():
                for i in range(len(batch)):
                    high = max(float(batch.a_loads[i]), float(batch.b_loads[i]))
                    peak = max(peak, high)
                    count += high
                    total += 1
            if total:
                print(f"  peak-direction load: max {peak:.1f}%, "
                      f"mean {count / total:.1f}%")
            for record in islice(result.records(), args.limit):
                print(
                    f"  {record.timestamp.isoformat()}  "
                    f"{record.node_a}[{record.label_a}] {record.load_a:5.1f}% "
                    f"<-> {record.load_b:5.1f}% [{record.label_b}]{record.node_b}"
                )
            if len(result) > args.limit:
                print(
                    f"  ... {len(result) - args.limit:,} more "
                    f"(raise --limit or use --format csv)"
                )
    _maybe_write_metrics(args)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the versioned HTTP read API + live feed until interrupted."""
    from repro.errors import ServerError
    from repro.server import ServeOptions, create_server

    store = open_store(args.dataset)
    try:
        options = ServeOptions(
            host=args.host,
            port=args.port,
            cache_entries=args.cache_entries,
            watch_interval=args.watch_interval,
            feed_ring_size=args.feed_ring_size,
        )
    except ServerError as exc:
        print(f"cannot start server: {exc}", file=sys.stderr)
        return 1
    try:
        server = create_server(store, options)
    except (ServerError, OSError) as exc:
        print(f"cannot start server: {exc}", file=sys.stderr)
        return 1
    host, port = server.server_address[0], server.server_address[1]
    print(f"serving on http://{host}:{port}/ (Ctrl-C to stop)", file=sys.stderr)
    print(
        "stable surface under /v1; live feed at /v1/maps/<map>/events",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    """Print time frames and snapshot-distance stats (Figures 2 and 3)."""
    from repro.dataset.catalog import DatasetCatalog

    catalog = DatasetCatalog(open_store(args.dataset))
    for map_name in MapName:
        count = catalog.snapshot_count(map_name)
        if count == 0:
            continue
        print(f"{map_name.value} — {count} snapshots")
        for frame in catalog.time_frames(map_name):
            print(
                f"  {frame.start.isoformat()} .. {frame.end.isoformat()} "
                f"({frame.snapshot_count} snapshots)"
            )
        fraction = catalog.fraction_at_resolution(map_name)
        print(f"  at 5-minute resolution: {fraction * 100:.2f} %")
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    """Print Table 1 (from stored YAMLs) and Table 2 for a dataset."""
    from repro.dataset.summary import build_table1, build_table2, format_table1, format_table2
    from repro.yamlio.deserialize import snapshot_from_yaml

    store = open_store(args.dataset)
    snapshots = {}
    for map_name in MapName:
        refs = list(store.iter_refs(map_name, "yaml"))
        if not refs:
            continue
        last = refs[-1]
        snapshots[map_name] = snapshot_from_yaml(
            last.path.read_text(encoding="utf-8")
        )
    if snapshots:
        print(format_table1(build_table1(snapshots)))
        print()
    print(format_table2(build_table2(store)))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    """Render one simulated snapshot to SVG."""
    from repro.layout.renderer import MapRenderer
    from repro.simulation.network import BackboneSimulator

    simulator = BackboneSimulator()
    when = _parse_when(args.when) if args.when else REFERENCE_DATE
    snapshot = simulator.snapshot(args.map, when)
    svg = MapRenderer(seed=args.seed).render(snapshot)
    if args.output:
        Path(args.output).write_text(svg, encoding="utf-8")
        print(f"wrote {args.output} ({len(svg) / 1024:.0f} KiB)")
    else:
        sys.stdout.write(svg)
    return 0


def cmd_upgrade(args: argparse.Namespace) -> int:
    """Replay the Figure 6 AMS-IX upgrade case study."""
    from repro.analysis.upgrades import (
        correlate_with_peeringdb,
        detect_upgrades,
        track_peering_group,
    )
    from repro.peeringdb.feed import SyntheticPeeringDB
    from repro.simulation.network import BackboneSimulator

    simulator = BackboneSimulator()
    scenario = simulator.upgrade
    start = scenario.added_at - timedelta(days=10)
    end = scenario.activated_at + timedelta(days=14)
    snapshots = []
    current = start
    while current < end:
        snapshots.append(simulator.snapshot(scenario.map_name, current))
        current += timedelta(hours=args.step_hours)
    observations = track_peering_group(snapshots, scenario.peering)
    events = detect_upgrades(observations)
    peeringdb = SyntheticPeeringDB(simulator)
    correlated = correlate_with_peeringdb(events, peeringdb, scenario.peering)
    for item in correlated:
        event = item.event
        print(f"peering {item.peering}")
        print(f"  A link added      {event.added_at.isoformat()}")
        print(f"  B peeringdb       {item.peeringdb_updated.isoformat()} "
              f"({item.capacity_before_gbps} -> {item.capacity_after_gbps} Gbps)")
        print(f"  C link activated  {event.activated_at.isoformat()}")
        print(f"  links             {event.links_before} -> {event.links_after}")
        print(f"  per-link capacity {item.inferred_per_link_capacity_gbps:.0f} Gbps")
        print(f"  load              {event.load_before:.1f}% -> {event.load_after:.1f}% "
              f"(expected ratio {event.expected_load_ratio:.2f})")
    if not correlated:
        print("no correlated upgrade found", file=sys.stderr)
        return 1
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Run the Figure 4/5 analyses on a collected dataset directory."""
    import numpy

    from repro.analysis.degrees import degree_statistics
    from repro.analysis.imbalance import collect_imbalances
    from repro.analysis.loads import collect_load_samples, hour_of_day_bands
    from repro.analysis.stats import fraction_at_most
    from repro.dataset.loader import load_all

    store = open_store(args.dataset)
    snapshots = load_all(store, args.map)
    if not snapshots:
        print(f"no processed snapshots for {args.map.value} in {args.dataset}",
              file=sys.stderr)
        return 1

    print(f"{args.map.title}: {len(snapshots)} snapshots "
          f"({snapshots[0].timestamp.isoformat()} → "
          f"{snapshots[-1].timestamp.isoformat()})")

    stats = degree_statistics(snapshots[-1])
    print(f"\nrouter degrees (latest snapshot):")
    print(f"  routers {stats.count}, mean {stats.mean:.1f}, max {stats.max}")
    print(f"  single-link {stats.fraction_single_link * 100:.0f}%, "
          f">20 links {stats.fraction_over_20 * 100:.0f}%")

    samples = collect_load_samples(snapshots)
    print(f"\nlink loads ({len(samples):,} directed samples):")
    print(f"  <=33%: {fraction_at_most(samples.all_loads, 33) * 100:.0f}%   "
          f">60%: {(1 - fraction_at_most(samples.all_loads, 60)) * 100:.1f}%")
    if samples.internal and samples.external:
        print(f"  internal mean {numpy.mean(samples.internal):.1f}%  "
              f"external mean {numpy.mean(samples.external):.1f}%")
    if len({s.timestamp.hour for s in snapshots}) >= 12:
        bands = hour_of_day_bands(samples)
        print(f"  median trough {bands.median_trough_hour():02d}:00, "
              f"peak {bands.median_peak_hour():02d}:00")

    imbalances = collect_imbalances(snapshots)
    if imbalances.all_values:
        print(f"\nECMP imbalance ({len(imbalances.all_values):,} group samples):")
        print(f"  <=1%: {imbalances.fraction_within(1.0) * 100:.0f}%   "
              f"external <=2%: {imbalances.fraction_within(2.0, 'external') * 100:.0f}%")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Correlate the map's structural changes with the status feed."""
    from repro.analysis.infrastructure import infrastructure_evolution, structural_events
    from repro.simulation.network import BackboneSimulator
    from repro.statusfeed.correlate import correlate_events
    from repro.statusfeed.feed import SyntheticStatusFeed

    simulator = BackboneSimulator()
    feed = SyntheticStatusFeed(simulator)
    evolution = infrastructure_evolution(
        simulator, args.map, interval=timedelta(hours=12)
    )
    changes = structural_events(
        evolution.routers, min_delta=2.0, pairing_window=timedelta(days=45)
    )
    report = correlate_events(changes, feed)
    print(f"{args.map.title}: {report.total} structural changes, "
          f"{report.explained_fraction * 100:.0f}% explained by the status feed")
    for item in report.explained:
        titles = "; ".join(match.title for match in item.matches[:2])
        print(f"  {item.change.start.date()}  {item.change.kind:<18} → {titles}")
    for item in report.unexplained:
        print(f"  {item.change.start.date()}  {item.change.kind:<18} → UNEXPLAINED")
    return 0


def cmd_changelog(args: argparse.Namespace) -> int:
    """Narrate a map's changes over a simulated window."""
    from repro.analysis.narrative import build_changelog
    from repro.peeringdb.feed import SyntheticPeeringDB
    from repro.simulation.network import BackboneSimulator
    from repro.statusfeed.feed import SyntheticStatusFeed

    simulator = BackboneSimulator()
    start = _parse_when(args.start)
    end = _parse_when(args.end)
    step = max(timedelta(hours=6), (end - start) / max(1, args.samples - 1))
    snapshots = []
    current = start
    while current <= end:
        snapshots.append(simulator.snapshot(args.map, current))
        current += step
    changelog = build_changelog(
        snapshots,
        peeringdb=SyntheticPeeringDB(simulator),
        status_feed=SyntheticStatusFeed(simulator),
    )
    print(changelog.render())
    return 0


def cmd_archive(args: argparse.Namespace) -> int:
    """Pack a dataset into per-map, per-month bundles — or unpack one."""
    from repro.dataset.archive import pack_dataset, unpack_archive

    store = open_store(args.dataset)
    if args.unpack:
        count = unpack_archive(args.unpack, store)
        print(f"unpacked {count} files into {args.dataset}")
        return 0
    maps = [args.map] if args.map else None
    archives = pack_dataset(store, args.output, maps=maps)
    if not archives:
        print("nothing to pack", file=sys.stderr)
        return 1
    for info in archives:
        print(
            f"{info.path.name:<34} {info.members:>6} files "
            f"{info.size_bytes / 1024:>9.1f} KiB"
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Validate a dataset directory's files and cross-check extraction."""
    from repro.dataset.validate import validate_dataset

    reports = validate_dataset(
        open_store(args.dataset), cross_check_fraction=args.cross_check
    )
    if not reports:
        print("no dataset files found", file=sys.stderr)
        return 1
    all_ok = True
    for map_name, report in reports.items():
        verdict = "ok" if report.ok else "PROBLEMS"
        print(
            f"{map_name.value:<15} {verdict:<9} yaml {report.yaml_files:>5} "
            f"svg {report.svg_files:>5} schema-fail {report.schema_failures} "
            f"cross-checked {report.cross_checked} "
            f"(failed {report.cross_check_failures}) "
            f"unprocessed-svg {report.unprocessed_svg}"
        )
        for problem in report.problems:
            print(f"    {problem}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    """Write a markdown + charts report bundle for a dataset."""
    from repro.reports.builder import build_report

    target = build_report(args.dataset, args.output, detail_map=args.map)
    print(f"wrote {target}")
    return 0


def cmd_crawl(args: argparse.Namespace) -> int:
    """Poll the simulated weathermap website like the paper's crawler."""
    from repro.simulation.network import BackboneSimulator
    from repro.website.site import WeathermapWebsite
    from repro.website.webcollector import PollingCollector

    simulator = BackboneSimulator()
    site = WeathermapWebsite(simulator)
    store = open_store(args.output)
    store.mark()
    collector = PollingCollector(site, store, backfill=not args.no_backfill)
    maps = [args.map] if args.map else None
    stats = collector.run(_parse_when(args.start), _parse_when(args.end), maps=maps)
    print(f"polls {stats.polls}, fetched {stats.fetched}, "
          f"failed {stats.failed_polls}, backfilled {stats.backfilled}, "
          f"duplicates {stats.duplicates_skipped}")
    for map_name, count in stats.per_map.items():
        print(f"  {map_name.value:<15} {count} documents")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Export processed snapshots as GraphML or CSV.

    Default: the latest snapshot, to stdout or ``--output``.  With
    ``--output-dir``: every snapshot, one file per timestamp, loaded from
    the map's shard indexes when they are fresh.
    """
    from repro.dataset.loader import latest_snapshot, load_all
    from repro.dataset.store import format_timestamp
    from repro.topology.export import to_adjacency_csv, to_graphml

    store = open_store(args.dataset)
    export = to_graphml if args.format == "graphml" else to_adjacency_csv
    if args.output_dir:
        snapshots = load_all(store, args.map)
        if not snapshots:
            print(f"no processed snapshots for {args.map.value}", file=sys.stderr)
            return 1
        target = Path(args.output_dir)
        target.mkdir(parents=True, exist_ok=True)
        total = 0
        for snapshot in snapshots:
            name = (
                f"{args.map.value}-{format_timestamp(snapshot.timestamp)}"
                f".{args.format}"
            )
            total += len(export(snapshot, target / name))
        print(
            f"wrote {len(snapshots)} {args.format} files "
            f"({total / 1024:.1f} KiB) to {target}"
        )
        _maybe_write_metrics(args)
        return 0
    snapshot = latest_snapshot(store, args.map)
    if snapshot is None:
        print(f"no processed snapshots for {args.map.value}", file=sys.stderr)
        return 1
    text = export(snapshot, args.output)
    if args.output:
        print(f"wrote {args.output} ({len(text) / 1024:.1f} KiB)")
    else:
        sys.stdout.write(text)
    _maybe_write_metrics(args)
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """Render a saved metrics snapshot as Prometheus exposition or JSON."""
    from repro.errors import TelemetryError
    from repro.telemetry import (
        read_snapshot_file,
        snapshot_to_json,
        snapshot_to_prometheus,
    )

    try:
        snapshot = read_snapshot_file(args.snapshot)
    except TelemetryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.format == "prom":
        text = snapshot_to_prometheus(snapshot)
    else:
        text = snapshot_to_json(snapshot)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-weather",
        description="OVH Weather dataset reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="simulate a collection run")
    generate.add_argument("output", help="dataset directory to create")
    generate.add_argument("--start", required=True, help="ISO start time")
    generate.add_argument("--end", required=True, help="ISO end time")
    generate.add_argument("--map", type=_map_argument, default=None)
    generate.add_argument("--interval", type=int, default=5, help="minutes between snapshots")
    _add_common(generate)
    generate.set_defaults(handler=cmd_generate)

    ingest = subparsers.add_parser(
        "ingest", help="SVG → YAML extraction: the crash-safe ingestion daemon"
    )
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)
    ingest_run = ingest_sub.add_parser(
        "run", help="ingest everything pending (recovers first if needed)"
    )
    ingest_run.add_argument("dataset", help="dataset directory")
    ingest_run.add_argument("--map", type=_map_argument, default=None)
    ingest_run.add_argument(
        "--workers", type=_workers_argument, default=2,
        help="parse processes feeding the single writer; a map whose "
        "pending files make one batch parses in-process (default 2; 0 or "
        "'auto' means one per CPU core)",
    )
    ingest_run.add_argument(
        "--checkpoint-every", type=_positive_argument, default=512,
        help="files between manifest folds + shard compactions (default 512)",
    )
    ingest_run.add_argument(
        "--fsync-every", type=_positive_argument, default=64,
        help="files between YAML/journal durability batches (default 64)",
    )
    ingest_run.add_argument(
        "--max-files", type=_positive_argument, default=None,
        help="stop after ingesting this many files (for paced runs)",
    )
    ingest_run.add_argument("--strict", action="store_true")
    ingest_run.add_argument(
        "--overwrite",
        action="store_true",
        help="ignore the incremental manifest: re-process every file and "
        "rebuild the shard indexes",
    )
    ingest_run.add_argument(
        "--no-index",
        action="store_true",
        help="skip index maintenance entirely (compact later with "
        "`index build`)",
    )
    ingest_run.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's telemetry as a JSON snapshot to this path",
    )
    ingest_run.set_defaults(handler=cmd_ingest_run)
    ingest_status = ingest_sub.add_parser(
        "status", help="show the daemon's last published status"
    )
    ingest_status.add_argument("dataset", help="dataset directory")
    ingest_status.set_defaults(handler=cmd_ingest_status)

    index = subparsers.add_parser(
        "index", help="build or inspect the columnar snapshot index"
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build", help="compact each map's YAML series into per-day shard indexes"
    )
    index_build.add_argument("dataset", help="dataset directory")
    index_build.add_argument("--map", type=_map_argument, default=None)
    index_build.add_argument(
        "--rebuild",
        action="store_true",
        help="discard any existing index instead of refreshing incrementally",
    )
    index_build.add_argument(
        "--workers",
        type=_workers_argument,
        default=None,
        help="worker processes for parsing new YAML files "
        "(default: serial; 0 or 'auto' means one per CPU core)",
    )
    index_build.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's telemetry as a JSON snapshot to this path",
    )
    index_build.set_defaults(handler=cmd_index_build)
    index_status_parser = index_sub.add_parser(
        "status", help="report index freshness per map"
    )
    index_status_parser.add_argument("dataset", help="dataset directory")
    index_status_parser.add_argument("--map", type=_map_argument, default=None)
    index_status_parser.set_defaults(handler=cmd_index_status)

    query = subparsers.add_parser(
        "query", help="zero-copy scans over the columnar index"
    )
    query.add_argument("dataset", help="dataset directory")
    query.add_argument("--map", type=_map_argument, default=MapName.EUROPE)
    query.add_argument("--start", default=None, help="ISO lower bound (inclusive)")
    query.add_argument("--end", default=None, help="ISO upper bound (exclusive)")
    query.add_argument("--node", default=None, help="keep links touching this node")
    query.add_argument(
        "--link",
        nargs=2,
        default=None,
        metavar=("NODE_A", "NODE_B"),
        help="keep links between these two nodes (either orientation)",
    )
    query.add_argument(
        "--min-load", type=float, default=None,
        help="keep links whose busier direction is at least this load (%%)",
    )
    query.add_argument(
        "--max-load", type=float, default=None,
        help="keep links whose busier direction is at most this load (%%)",
    )
    query.add_argument(
        "--limit", type=int, default=20,
        help="matching links to print in table format (default 20)",
    )
    query.add_argument(
        "--format",
        choices=("table", "csv"),
        default="table",
        help="human table with a summary (default) or full CSV on stdout",
    )
    query.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's telemetry as a JSON snapshot to this path",
    )
    query.set_defaults(handler=cmd_query)

    serve = subparsers.add_parser(
        "serve", help="run the cached HTTP read API over a dataset"
    )
    serve.add_argument("dataset", help="dataset directory")
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8080,
        help="bind port; 0 picks a free one (default 8080)",
    )
    serve.add_argument(
        "--cache-entries", type=int, default=256,
        help="response-cache capacity in entries (default 256)",
    )
    serve.add_argument(
        "--watch-interval", type=float, default=5.0,
        help="seconds between generation-feed watcher ticks (default 5)",
    )
    serve.add_argument(
        "--feed-ring-size", type=int, default=256,
        help="per-map feed replay-ring capacity (default 256)",
    )
    serve.set_defaults(handler=cmd_serve)

    catalog = subparsers.add_parser("catalog", help="collection quality stats")
    catalog.add_argument("dataset", help="dataset directory")
    catalog.set_defaults(handler=cmd_catalog)

    tables = subparsers.add_parser("tables", help="print Tables 1 and 2")
    tables.add_argument("dataset", help="dataset directory")
    tables.set_defaults(handler=cmd_tables)

    render = subparsers.add_parser("render", help="render one snapshot SVG")
    render.add_argument("--map", type=_map_argument, default=MapName.EUROPE)
    render.add_argument("--when", default=None, help="ISO timestamp")
    render.add_argument("--output", default=None, help="output SVG path")
    _add_common(render)
    render.set_defaults(handler=cmd_render)

    upgrade = subparsers.add_parser("upgrade", help="Figure 6 case study")
    upgrade.add_argument("--step-hours", type=int, default=6)
    _add_common(upgrade)
    upgrade.set_defaults(handler=cmd_upgrade)

    analyze = subparsers.add_parser(
        "analyze", help="Figure 4/5 analyses over a collected dataset"
    )
    analyze.add_argument("dataset", help="dataset directory")
    analyze.add_argument("--map", type=_map_argument, default=MapName.EUROPE)
    analyze.set_defaults(handler=cmd_analyze)

    status = subparsers.add_parser(
        "status", help="correlate map changes with the provider status feed"
    )
    status.add_argument("--map", type=_map_argument, default=MapName.EUROPE)
    _add_common(status)
    status.set_defaults(handler=cmd_status)

    crawl = subparsers.add_parser(
        "crawl", help="poll the simulated weathermap website into a dataset"
    )
    crawl.add_argument("output", help="dataset directory to fill")
    crawl.add_argument("--start", required=True, help="ISO start time")
    crawl.add_argument("--end", required=True, help="ISO end time")
    crawl.add_argument("--map", type=_map_argument, default=None)
    crawl.add_argument(
        "--no-backfill",
        action="store_true",
        help="skip recovering missed ticks from the hourly archive",
    )
    _add_common(crawl)
    crawl.set_defaults(handler=cmd_crawl)

    export = subparsers.add_parser(
        "export", help="export the latest snapshot as GraphML or CSV"
    )
    export.add_argument("dataset", help="dataset directory")
    export.add_argument("--map", type=_map_argument, default=MapName.EUROPE)
    export.add_argument("--format", choices=("graphml", "csv"), default="graphml")
    export.add_argument("--output", default=None)
    export.add_argument(
        "--output-dir",
        default=None,
        help="export the whole snapshot series into this directory "
        "instead of just the latest snapshot",
    )
    export.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the run's telemetry as a JSON snapshot to this path",
    )
    export.set_defaults(handler=cmd_export)

    changelog = subparsers.add_parser(
        "changelog", help="narrate a map's changes over a window"
    )
    changelog.add_argument("--map", type=_map_argument, default=MapName.EUROPE)
    changelog.add_argument("--start", required=True, help="ISO start time")
    changelog.add_argument("--end", required=True, help="ISO end time")
    changelog.add_argument("--samples", type=int, default=60)
    _add_common(changelog)
    changelog.set_defaults(handler=cmd_changelog)

    archive = subparsers.add_parser(
        "archive", help="pack a dataset into distribution bundles (or unpack one)"
    )
    archive.add_argument("dataset", help="dataset directory")
    archive.add_argument("--output", default="bundles", help="bundle directory")
    archive.add_argument("--map", type=_map_argument, default=None)
    archive.add_argument("--unpack", default=None, help="bundle to unpack instead")
    archive.set_defaults(handler=cmd_archive)

    validate = subparsers.add_parser(
        "validate", help="validate a dataset's files and cross-check extraction"
    )
    validate.add_argument("dataset", help="dataset directory")
    validate.add_argument(
        "--cross-check",
        type=float,
        default=0.1,
        help="fraction of snapshots to re-extract from SVG (default 0.1)",
    )
    validate.set_defaults(handler=cmd_validate)

    metrics = subparsers.add_parser(
        "metrics", help="render a saved telemetry snapshot"
    )
    metrics.add_argument("snapshot", help="JSON snapshot written by --metrics-out")
    metrics.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="Prometheus text exposition (default) or structured JSON",
    )
    metrics.add_argument("--output", default=None, help="write here instead of stdout")
    metrics.set_defaults(handler=cmd_metrics)

    report = subparsers.add_parser(
        "report", help="write a markdown + charts report for a dataset"
    )
    report.add_argument("dataset", help="dataset directory")
    report.add_argument("--output", default="report", help="output directory")
    report.add_argument("--map", type=_map_argument, default=MapName.EUROPE)
    report.set_defaults(handler=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
