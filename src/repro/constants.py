"""Shared constants for the OVH Weather dataset reproduction.

Values here come straight from the paper: the four backbone maps, the 5-minute
snapshot cadence, the reference date of Tables 1 and 2, and the per-map element
counts the paper reports on that date (used as calibration targets by the
simulator and as expected rows by the benchmark harness).
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from enum import Enum


class MapName(str, Enum):
    """The four backbone weather maps in the OVH Weather dataset."""

    EUROPE = "europe"
    WORLD = "world"
    NORTH_AMERICA = "north-america"
    ASIA_PACIFIC = "asia-pacific"

    @property
    def title(self) -> str:
        """Human-readable map title as used in the paper's tables."""
        return _MAP_TITLES[self]


_MAP_TITLES = {
    MapName.EUROPE: "Europe",
    MapName.WORLD: "World",
    MapName.NORTH_AMERICA: "North America",
    MapName.ASIA_PACIFIC: "Asia Pacific",
}

#: Snapshot cadence of the OVH Network Weathermap (Section 4).
SNAPSHOT_INTERVAL = timedelta(minutes=5)

#: Start of the collection campaign ("We started collecting ... in July 2020").
COLLECTION_START = datetime(2020, 7, 1, tzinfo=timezone.utc)

#: Reference date of Tables 1 and 2 ("on the 12th of September 2022").
REFERENCE_DATE = datetime(2022, 9, 12, tzinfo=timezone.utc)

#: Date at which the paper's authors fixed their collection pipeline
#: ("In May 2022, we identified and fixed an operational issue").
COLLECTION_FIX_DATE = datetime(2022, 5, 1, tzinfo=timezone.utc)

#: Table 1 — routers / internal links / external links per map on REFERENCE_DATE.
TABLE1_PAPER = {
    MapName.EUROPE: (113, 744, 265),
    MapName.WORLD: (16, 76, 0),
    MapName.NORTH_AMERICA: (60, 407, 214),
    MapName.ASIA_PACIFIC: (23, 96, 39),
}

#: Table 1 totals; routers shared between maps are counted once.
TABLE1_PAPER_TOTAL = (181, 1186, 518)

#: Table 2 — (# SVG files, SVG GiB, # YAML files, YAML GiB) per map.
TABLE2_PAPER = {
    MapName.EUROPE: (214_426, 161.39, 214_340, 20.16),
    MapName.WORLD: (111_459, 6.22, 111_431, 0.83),
    MapName.NORTH_AMERICA: (107_088, 50.64, 107_024, 6.23),
    MapName.ASIA_PACIFIC: (109_076, 9.67, 109_024, 1.24),
}

#: Table 2 totals.
TABLE2_PAPER_TOTAL = (542_049, 227.93, 541_819, 28.46)

#: Average number of parallel links between connected router pairs reported in
#: Section 5 for the Europe map on the reference date.
PAPER_MEAN_PARALLEL_LINKS = 6.58

#: Loads are link utilisation percentages, inclusive bounds (sanity check #1).
LOAD_MIN = 0
LOAD_MAX = 100

#: Algorithm 2 attribution threshold: "the distance between the link end and
#: its label is below a defined threshold (i.e., a few pixels)".
LABEL_DISTANCE_THRESHOLD = 40.0

#: Version of the extraction pipeline (:mod:`repro.parsing`).  Bump whenever
#: a change alters the YAML a given SVG produces: the engine's manifest and
#: the index headers record it, and whatever another version built is redone.
#: Defined here so readers can compare versions without importing the parser;
#: ``repro.parsing.pipeline.PARSER_VERSION`` is the same object.
#:
#: 2: stricter root width/height parsing (malformed unit suffixes now fail
#:    instead of silently mis-parsing), so some previously-processed files
#:    change outcome.
PARSER_VERSION = 2
