"""Analysis library: the paper's Section 5 computations.

Each module regenerates the data behind one part of the evaluation:

* :mod:`repro.analysis.infrastructure` — router/link count evolution
  (Figures 4a, 4b) and the structural-event detector behind the paper's
  make-before-break / maintenance narratives;
* :mod:`repro.analysis.degrees` — router degree CCDF (Figure 4c);
* :mod:`repro.analysis.loads` — hour-of-day load percentiles (Figure 5a)
  and internal/external load CDFs (Figure 5b);
* :mod:`repro.analysis.imbalance` — ECMP imbalance CDFs (Figure 5c);
* :mod:`repro.analysis.upgrades` — link-upgrade detection and PeeringDB
  correlation (Figure 6);
* :mod:`repro.analysis.stats` / :mod:`repro.analysis.timeseries` — shared
  CDF/percentile/time-series plumbing;
* :mod:`repro.analysis.columnar` — the Figure 4 counts and Figure 5c
  imbalances computed straight from a mapped index's columns
  (:class:`~repro.dataset.query.MappedIndex`), without materialising
  snapshots; the read API serves them.

Every analysis works on iterables of :class:`~repro.topology.model.MapSnapshot`
so it runs equally on simulator output and on YAML files read back from a
collected dataset.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

_EXPORTS: dict[str, str] = {
    "cdf": "repro.analysis.stats",
    "ccdf": "repro.analysis.stats",
    "fraction_at_most": "repro.analysis.stats",
    "percentile_bands": "repro.analysis.stats",
    "TimeSeries": "repro.analysis.timeseries",
    "detect_steps": "repro.analysis.timeseries",
    "InfrastructureEvolution": "repro.analysis.infrastructure",
    "infrastructure_evolution": "repro.analysis.infrastructure",
    "structural_events": "repro.analysis.infrastructure",
    "degree_ccdf": "repro.analysis.degrees",
    "degree_statistics": "repro.analysis.degrees",
    "HourOfDayBands": "repro.analysis.loads",
    "LoadSamples": "repro.analysis.loads",
    "WeeklyContrast": "repro.analysis.loads",
    "collect_load_samples": "repro.analysis.loads",
    "hour_of_day_bands": "repro.analysis.loads",
    "load_cdfs": "repro.analysis.loads",
    "weekly_contrast": "repro.analysis.loads",
    "CollectionQuality": "repro.analysis.collection",
    "collection_quality": "repro.analysis.collection",
    "distance_cdf": "repro.analysis.collection",
    "inter_snapshot_distances": "repro.analysis.collection",
    "PeeringVolume": "repro.analysis.capacity",
    "peering_volume": "repro.analysis.capacity",
    "total_egress_capacity_gbps": "repro.analysis.capacity",
    "total_egress_volume_gbps": "repro.analysis.capacity",
    "volume_gbps": "repro.analysis.capacity",
    "CongestionEpisode": "repro.analysis.congestion",
    "CongestionSummary": "repro.analysis.congestion",
    "congestion_rate_by_hour": "repro.analysis.congestion",
    "find_congestion": "repro.analysis.congestion",
    "count_series": "repro.analysis.columnar",
    "imbalance_samples": "repro.analysis.columnar",
    "DowngradeEvent": "repro.analysis.upgrades",
    "detect_downgrades": "repro.analysis.upgrades",
    "scan_all_peerings": "repro.analysis.upgrades",
    "ImbalanceResult": "repro.analysis.imbalance",
    "collect_imbalances": "repro.analysis.imbalance",
    "imbalance_cdfs": "repro.analysis.imbalance",
    "imbalance_values": "repro.analysis.imbalance",
    "SiteGrowth": "repro.analysis.sites",
    "fastest_growing_sites": "repro.analysis.sites",
    "site_census": "repro.analysis.sites",
    "site_growth": "repro.analysis.sites",
    "DiversityReport": "repro.analysis.diversity",
    "core_path_diversity": "repro.analysis.diversity",
    "edge_disjoint_paths": "repro.analysis.diversity",
    "UpgradeEvent": "repro.analysis.upgrades",
    "CorrelatedUpgrade": "repro.analysis.upgrades",
    "GroupObservation": "repro.analysis.upgrades",
    "correlate_with_peeringdb": "repro.analysis.upgrades",
    "detect_upgrades": "repro.analysis.upgrades",
    "track_peering_group": "repro.analysis.upgrades",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
