"""Build the dataset report bundle."""

from __future__ import annotations

from pathlib import Path

import numpy

from repro.analysis.collection import collection_quality
from repro.analysis.congestion import find_congestion
from repro.analysis.degrees import degree_statistics
from repro.analysis.imbalance import collect_imbalances, imbalance_cdfs
from repro.analysis.loads import (
    collect_load_samples,
    hour_of_day_bands,
    load_cdfs,
    weekly_contrast,
)
from repro.analysis.stats import fraction_at_most
from repro.charts.svgchart import BandSeries, ChartRenderer, Series, StepSeries
from repro.constants import MapName
from repro.dataset.catalog import DatasetCatalog
from repro.dataset.loader import load_all
from repro.dataset.store import DatasetStore, open_store
from repro.dataset.summary import build_table1, build_table2, format_table1, format_table2


class ReportBuilder:
    """Accumulates sections and writes the bundle."""

    def __init__(self, output_dir: str | Path) -> None:
        self.output_dir = Path(output_dir)
        self._sections: list[str] = []
        self._charts_written: list[str] = []

    def add_section(self, title: str, body: str) -> None:
        """Append one markdown section."""
        self._sections.append(f"## {title}\n\n{body.strip()}\n")

    def add_chart(self, name: str, chart: ChartRenderer) -> str:
        """Write a chart SVG next to the report; returns its relative path."""
        relative = f"charts/{name}.svg"
        chart.write(self.output_dir / relative)
        self._charts_written.append(relative)
        return relative

    def write(self, title: str = "OVH Weather dataset report") -> Path:
        """Write ``report.md`` and return its path."""
        self.output_dir.mkdir(parents=True, exist_ok=True)
        target = self.output_dir / "report.md"
        parts = [f"# {title}\n"]
        parts.extend(self._sections)
        if self._charts_written:
            parts.append("## Charts\n")
            parts.extend(
                f"![{name}]({name})\n" for name in self._charts_written
            )
        target.write_text("\n".join(parts), encoding="utf-8")
        return target


def _collection_section(builder: ReportBuilder, store: DatasetStore) -> list[MapName]:
    catalog = DatasetCatalog(store, kind="yaml")
    lines = []
    present: list[MapName] = []
    for map_name in MapName:
        stamps = catalog.timestamps(map_name)
        if not stamps:
            continue
        present.append(map_name)
        quality = collection_quality(stamps)
        lines.append(
            f"* **{map_name.title}** — {quality.snapshot_count} snapshots in "
            f"{len(quality.time_frames)} segment(s); "
            f"{quality.fraction_at_resolution * 100:.1f} % at the 5-minute "
            f"resolution; longest gap {quality.longest_gap}."
        )
    builder.add_section("Collection quality (Figures 2-3)", "\n".join(lines))
    return present


def _tables_section(builder: ReportBuilder, store: DatasetStore, present: list[MapName]) -> None:
    from repro.dataset.loader import latest_snapshot

    snapshots = {}
    for map_name in present:
        snapshot = latest_snapshot(store, map_name)
        if snapshot is not None:
            snapshots[map_name] = snapshot
    body = "```\n" + format_table1(build_table1(snapshots)) + "\n```"
    builder.add_section("Topology summary (Table 1, latest snapshots)", body)
    body = "```\n" + format_table2(build_table2(store)) + "\n```"
    builder.add_section("Dataset files (Table 2)", body)


def _topology_section(builder: ReportBuilder, store: DatasetStore, map_name: MapName) -> None:
    from repro.analysis.degrees import degree_ccdf
    from repro.dataset.loader import latest_snapshot

    snapshot = latest_snapshot(store, map_name)
    if snapshot is None:
        return
    stats = degree_statistics(snapshot)
    degrees, fractions = degree_ccdf(snapshot)
    chart = ChartRenderer(
        title=f"Router degree CCDF — {map_name.title}",
        x_label="node degree",
        y_label="CCDF",
        x_log=True,
    )
    chart.add_series(StepSeries(name="degree", xs=tuple(degrees), ys=tuple(fractions)))
    chart_path = builder.add_chart(f"degree_ccdf_{map_name.value}", chart)
    builder.add_section(
        f"Router degrees (Figure 4c) — {map_name.title}",
        f"{stats.count} routers; mean degree {stats.mean:.1f}, max {stats.max}. "
        f"{stats.fraction_single_link * 100:.0f} % have a single link, "
        f"{stats.fraction_over_20 * 100:.0f} % have more than 20 links.\n\n"
        f"Chart: `{chart_path}`",
    )


def _loads_section(builder: ReportBuilder, store: DatasetStore, map_name: MapName) -> None:
    snapshots = load_all(store, map_name)
    if not snapshots:
        return
    samples = collect_load_samples(snapshots)
    if not samples.all_loads:
        return

    lines = [
        f"{len(samples):,} directed load samples over "
        f"{len(snapshots)} snapshots.",
        f"* {fraction_at_most(samples.all_loads, 33) * 100:.0f} % of loads at or "
        "below 33 %; "
        f"{(1 - fraction_at_most(samples.all_loads, 60)) * 100:.1f} % above 60 %.",
    ]
    if samples.internal and samples.external:
        lines.append(
            f"* internal links average {numpy.mean(samples.internal):.1f} %, "
            f"external {numpy.mean(samples.external):.1f} %."
        )

    cdf_chart = ChartRenderer(
        title=f"Load CDF — {map_name.title}", x_label="load (%)", y_label="CDF"
    )
    for name, (xs, fractions) in load_cdfs(samples).items():
        stride = max(1, xs.size // 400)
        cdf_chart.add_series(
            StepSeries(name=name, xs=tuple(xs[::stride]), ys=tuple(fractions[::stride]))
        )
    builder.add_chart(f"load_cdf_{map_name.value}", cdf_chart)

    hours_present = {snapshot.timestamp.hour for snapshot in snapshots}
    if len(hours_present) >= 12:
        bands = hour_of_day_bands(samples)
        lines.append(
            f"* median load troughs at {bands.median_trough_hour():02d}:00 and "
            f"peaks at {bands.median_peak_hour():02d}:00."
        )
        band_chart = ChartRenderer(
            title=f"Load by hour — {map_name.title}",
            x_label="hour of day",
            y_label="load (%)",
        )
        band_chart.add_band(
            BandSeries(
                name="p25-p75",
                xs=tuple(float(h) for h in bands.hours),
                lows=bands.bands[25.0],
                highs=bands.bands[75.0],
            )
        )
        band_chart.add_series(
            Series(
                name="median",
                xs=tuple(float(h) for h in bands.hours),
                ys=bands.bands[50.0],
            )
        )
        builder.add_chart(f"load_hours_{map_name.value}", band_chart)

    contrast = weekly_contrast(samples)
    if contrast.weekday_samples and contrast.weekend_samples:
        lines.append(
            f"* weekends run at {contrast.weekend_ratio * 100:.0f} % of the "
            "weekday load level."
        )

    congestion = find_congestion(snapshots)
    lines.append(
        f"* congestion (load ≥85 %) touches "
        f"{congestion.congested_fraction * 100:.2f} % of directed samples"
        + (
            f"; longest episode {congestion.longest.duration} "
            f"({congestion.longest.source} → {congestion.longest.target})."
            if congestion.longest is not None
            else "; no sustained episodes."
        )
    )

    imbalances = collect_imbalances(snapshots)
    if imbalances.all_values:
        lines.append(
            f"* ECMP imbalance at or below 1 % for "
            f"{imbalances.fraction_within(1.0) * 100:.0f} % of directed parallel "
            "groups."
        )
        imbalance_chart = ChartRenderer(
            title=f"Imbalance CDF — {map_name.title}",
            x_label="imbalance (%)",
            y_label="CDF",
        )
        for name, (xs, fractions) in imbalance_cdfs(imbalances).items():
            if name == "all" or xs.size == 0:
                continue
            stride = max(1, xs.size // 400)
            imbalance_chart.add_series(
                StepSeries(
                    name=name, xs=tuple(xs[::stride]), ys=tuple(fractions[::stride])
                )
            )
        builder.add_chart(f"imbalance_cdf_{map_name.value}", imbalance_chart)

    builder.add_section(
        f"Link loads and ECMP (Figure 5) — {map_name.title}", "\n".join(lines)
    )


def build_report(
    dataset_dir: str | Path,
    output_dir: str | Path,
    detail_map: MapName = MapName.EUROPE,
) -> Path:
    """Build the full report bundle for one dataset directory.

    Args:
        dataset_dir: a collected-and-processed dataset.
        output_dir: where ``report.md`` and ``charts/`` land.
        detail_map: the map given per-figure treatment (the paper details
            Europe); falls back to the first map present.

    Returns:
        The path of the written ``report.md``.
    """
    store = open_store(dataset_dir)
    builder = ReportBuilder(output_dir)
    present = _collection_section(builder, store)
    if not present:
        builder.add_section("Empty dataset", "No processed snapshots found.")
        return builder.write()
    if detail_map not in present:
        detail_map = present[0]
    _tables_section(builder, store, present)
    _topology_section(builder, store, detail_map)
    _loads_section(builder, store, detail_map)
    return builder.write()
