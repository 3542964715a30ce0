"""End-to-end extraction: SVG document → :class:`MapSnapshot`.

This is the processing step the paper ran over 542,049 collected files:
read the tag stream, run Algorithm 1, run Algorithm 2, run the sanity
checks, and emit the structured topology (serialised to YAML by
:mod:`repro.yamlio`).  Every failure raises a typed exception from
:mod:`repro.errors`, so bulk runs can account for unprocessable files the
way Table 2 does.

Parsing behaviour is configured through one frozen :class:`ParseOptions`
object (``fast_path``, ``accelerated``, ``label_distance_threshold``)
accepted as ``options=`` by every entry point from :func:`parse_svg` up
to the bulk engine and the CLI.

Every parse also feeds the process-wide metrics registry
(:mod:`repro.telemetry`): per-stage wall time lands in the
``repro_parse_stage_seconds`` histogram and fast-path hits/fallbacks in
``repro_parse_fast_path_total``, whatever the caller does — the
:class:`StageTimings` accumulator remains only as a per-run view for
callers that want their own scoped numbers.

A map's layout changes only when its topology does, so the accelerated
attribution of a fast-path document is kept per map as a compact plan,
keyed by the layout signature the streaming pass returns; the next
document with the same signature and threshold replays the plan instead
of re-running Algorithm 2 (``repro_parse_layout_reuse_total``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

from repro.constants import LABEL_DISTANCE_THRESHOLD, MapName
from repro.constants import PARSER_VERSION as PARSER_VERSION  # re-export, same object
from repro.parsing.algorithm1 import ExtractionResult, extract_objects
from repro.parsing.algorithm2 import (
    AttributedLink,
    attribute_objects,
    attribute_with_plan,
    replay_plan,
)
from repro.parsing.checks import ParseReport, run_sanity_checks
from repro.parsing.stream import _stream_extract
from repro.svgdoc.reader import read_svg_tags
from repro.telemetry import MetricsRegistry, get_registry
from repro.topology.model import Link, LinkEnd, MapSnapshot, Node, NodeKind

#: Timestamp used when the caller provides none.
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True, slots=True)
class ParseOptions:
    """How to run the extraction pipeline — one object, passed everywhere.

    Frozen so a single instance can be shared across threads and pickled
    to pool workers.

    Attributes:
        fast_path: run reader + Algorithm 1 as one fused streaming pass
            (:func:`repro.parsing.stream.stream_extract`); identical
            results, and any document outside the expected shape falls
            back to the faithful DOM path — ``False`` forces that path
            outright.
        accelerated: use the grid-indexed attribution, replayed when a
            fast-path document repeats its map's previous layout
            (identical results; ``False`` for the paper's exact quadratic
            formulation).
        label_distance_threshold: Algorithm 2 label-distance limit.
    """

    fast_path: bool = True
    accelerated: bool = True
    label_distance_threshold: float = LABEL_DISTANCE_THRESHOLD


#: The defaults every entry point shares.
DEFAULT_PARSE_OPTIONS = ParseOptions()


#: Per-stage histogram bounds: stages run sub-millisecond (checks) to
#: tens of milliseconds (DOM extract on a big map).
STAGE_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 1.0,
)


class _PipelineMetrics:
    """The pipeline's instruments, bound once per active registry."""

    __slots__ = ("registry", "stage", "fast_path", "layout_reuse")

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.stage = registry.histogram(
            "repro_parse_stage_seconds",
            "Wall time per extraction pipeline stage",
            buckets=STAGE_BUCKETS,
        )
        self.fast_path = registry.counter(
            "repro_parse_fast_path_total",
            "Documents the fused streaming pass handled (hit) or "
            "punted to the DOM path (fallback)",
        )
        self.layout_reuse = registry.counter(
            "repro_parse_layout_reuse_total",
            "Accelerated attributions replayed from the map's previous "
            "layout (hit) or run afresh (miss)",
        )


_metrics_cache: _PipelineMetrics | None = None

#: One layout-reuse slot per map: ``(threshold, signature, plan)`` of its
#: last successful accelerated attribution.  A slot is one tuple written
#: in one assignment, so threads may share it lock-free; each pool
#: worker process keeps its own.
_LAYOUTS: dict[MapName, tuple[float, str, array]] = {}


def _metrics() -> _PipelineMetrics:
    """Instrument bundle for the active registry (cached per registry)."""
    global _metrics_cache
    cached = _metrics_cache
    registry = get_registry()
    if cached is None or cached.registry is not registry:
        cached = _metrics_cache = _PipelineMetrics(registry)
    return cached


def observe_stage(stage: str, elapsed: float) -> None:
    """Charge ``elapsed`` seconds to one pipeline stage's histogram.

    For the few call sites outside this module that extend a stage —
    the YAML emission in :mod:`repro.dataset.processor` counts as
    ``serialize`` time, matching :class:`StageTimings`.
    """
    _metrics().stage.observe(elapsed, stage=stage)


@dataclass
class StageTimings:
    """Cumulative per-stage wall time over one or more parsed documents.

    A caller-scoped accumulator: pass an instance to :func:`parse_svg`
    (and :func:`repro.dataset.processor.process_svg_bytes`, which adds
    the YAML emission) to collect per-stage wall time for *this run
    only*.  The same numbers always also flow into the process-wide
    ``repro_parse_stage_seconds`` histogram and
    ``repro_parse_fast_path_total`` counter in
    :mod:`repro.telemetry` — new code should read those.  The fused
    streaming pass cannot split reading from extraction, so its whole
    pass is charged to ``extract`` and ``read`` stays 0 unless the DOM
    path runs.
    """

    seconds: dict[str, float] = field(
        default_factory=lambda: {
            "read": 0.0,
            "extract": 0.0,
            "attribute": 0.0,
            "checks": 0.0,
            "serialize": 0.0,
        }
    )
    #: Documents the streaming fast path handled end-to-end.
    fast_path_hits: int = 0
    #: Documents that fell back to the faithful DOM path.
    fallbacks: int = 0

    def add(self, stage: str, elapsed: float) -> None:
        self.seconds[stage] = self.seconds.get(stage, 0.0) + elapsed

    @property
    def total(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> dict:
        """JSON-friendly view of the run's totals."""
        return {
            "seconds": {key: round(value, 4) for key, value in self.seconds.items()},
            "fast_path_hits": self.fast_path_hits,
            "fallbacks": self.fallbacks,
        }


@dataclass
class ParsedMap:
    """The result of processing one weathermap SVG."""

    snapshot: MapSnapshot
    report: ParseReport
    extraction: ExtractionResult


def _snapshot_from(
    extraction: ExtractionResult,
    links: list[AttributedLink],
    map_name: MapName,
    timestamp: datetime,
) -> MapSnapshot:
    """Assemble the topology model from attributed objects."""
    snapshot = MapSnapshot(map_name=map_name, timestamp=timestamp)
    for obj in extraction.routers:
        kind = NodeKind.PEERING if obj.is_peering else NodeKind.ROUTER
        snapshot.add_node(Node(name=obj.name, kind=kind))
    for link in links:
        snapshot.add_link(
            Link(
                a=LinkEnd(
                    node=link.a.router.name,
                    label=link.a.label.text,
                    load=link.a.load,
                ),
                b=LinkEnd(
                    node=link.b.router.name,
                    label=link.b.label.text,
                    load=link.b.load,
                ),
            )
        )
    return snapshot


def _attribute_layout(
    extraction: ExtractionResult,
    layout: str,
    map_name: MapName,
    threshold: float,
    metrics: _PipelineMetrics,
) -> list[AttributedLink]:
    """Accelerated Algorithm 2, replayed when ``map_name``'s layout repeats.

    Only a successful attribution is stored, so a layout that fails runs
    (and raises) afresh every time.
    """
    slot = _LAYOUTS.get(map_name)
    if slot is not None and slot[0] == threshold and slot[1] == layout:
        metrics.layout_reuse.inc(1, outcome="hit")
        return replay_plan(extraction, slot[2])
    metrics.layout_reuse.inc(1, outcome="miss")
    links, plan = attribute_with_plan(extraction, threshold, accelerated=True)
    _LAYOUTS[map_name] = (threshold, layout, plan)
    return links


def parse_svg(
    source: str | bytes,
    map_name: MapName = MapName.EUROPE,
    timestamp: datetime | None = None,
    strict: bool = True,
    options: ParseOptions | None = None,
    *,
    timings: StageTimings | None = None,
) -> ParsedMap:
    """Extract the topology from an SVG document.

    Args:
        source: SVG document text or bytes.
        map_name: which backbone map the document depicts.
        timestamp: observation time to stamp the snapshot with.
        strict: raise on sanity-check failures instead of recording them.
        options: how to parse (fast path, attribution acceleration,
            label-distance threshold); defaults to
            :data:`DEFAULT_PARSE_OPTIONS`.
        timings: accumulate per-stage wall time into this object (the
            process-wide telemetry histogram is fed either way).

    Raises:
        MalformedSvgError: not an SVG, or invalid attribute values.
        ParseError subclasses: extraction or attribution failures.
    """
    opts = options if options is not None else DEFAULT_PARSE_OPTIONS
    metrics = _metrics()
    stage_hist = metrics.stage

    extraction: ExtractionResult | None = None
    layout: str | None = None
    if opts.fast_path:
        started = perf_counter()
        streamed = _stream_extract(source)
        elapsed = perf_counter() - started
        if streamed is not None:
            extraction, _, _, layout = streamed
            stage_hist.observe(elapsed, stage="extract")
            metrics.fast_path.inc(1, outcome="hit")
            if timings is not None:
                timings.add("extract", elapsed)
                timings.fast_path_hits += 1
        else:
            metrics.fast_path.inc(1, outcome="fallback")
            if timings is not None:
                timings.fallbacks += 1
    if extraction is None:
        started = perf_counter()
        stream = read_svg_tags(source)
        elapsed = perf_counter() - started
        stage_hist.observe(elapsed, stage="read")
        if timings is not None:
            timings.add("read", elapsed)
        started = perf_counter()
        extraction = extract_objects(stream)
        elapsed = perf_counter() - started
        stage_hist.observe(elapsed, stage="extract")
        if timings is not None:
            timings.add("extract", elapsed)

    started = perf_counter()
    if layout is not None and opts.accelerated:
        links = _attribute_layout(
            extraction, layout, map_name, opts.label_distance_threshold, metrics
        )
    else:
        links = attribute_objects(
            extraction,
            label_distance_threshold=opts.label_distance_threshold,
            accelerated=opts.accelerated,
        )
    elapsed = perf_counter() - started
    stage_hist.observe(elapsed, stage="attribute")
    if timings is not None:
        timings.add("attribute", elapsed)

    started = perf_counter()
    report = run_sanity_checks(extraction, links, strict=strict)
    elapsed = perf_counter() - started
    stage_hist.observe(elapsed, stage="checks")
    if timings is not None:
        timings.add("checks", elapsed)

    started = perf_counter()
    snapshot = _snapshot_from(
        extraction, links, map_name, timestamp if timestamp is not None else _EPOCH
    )
    elapsed = perf_counter() - started
    stage_hist.observe(elapsed, stage="serialize")
    if timings is not None:
        timings.add("serialize", elapsed)
    return ParsedMap(snapshot=snapshot, report=report, extraction=extraction)


def parse_svg_file(
    path: str | Path,
    map_name: MapName = MapName.EUROPE,
    timestamp: datetime | None = None,
    strict: bool = True,
    options: ParseOptions | None = None,
    *,
    timings: StageTimings | None = None,
) -> ParsedMap:
    """Extract the topology from an SVG file on disk.

    Accepts the same options as :func:`parse_svg`, so file- and
    bytes-based parsing behave identically.
    """
    return parse_svg(
        Path(path).read_bytes(),
        map_name=map_name,
        timestamp=timestamp,
        strict=strict,
        options=options,
        timings=timings,
    )
