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
keyed by the layout signature the streaming pass returns.  The next
document with the same signature and threshold replays the plan
(``repro_parse_layout_reuse_total``): its snapshot and report are built
from the plan and the document's strings, with no geometry built and no
Algorithm 2 run.
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
from repro.parsing.algorithm2 import attribution_plan
from repro.parsing.checks import ParseReport, check_map, fills_and_loads
from repro.parsing.stream import (
    BUILD_ERRORS,
    StreamedDocument,
    build_extraction,
    stream_document,
)
from repro.svgdoc.elements import is_peering_name
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
            (:func:`repro.parsing.stream.stream_document`); identical
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


class ParsedMap:
    """The result of processing one weathermap SVG.

    ``extraction`` is Algorithm 1's object view of the document.  A parse
    that replayed its map's stored layout never needed those objects, so
    they are built from the document's strings on first read.
    """

    __slots__ = ("snapshot", "report", "_extraction", "_document")

    def __init__(
        self,
        snapshot: MapSnapshot,
        report: ParseReport,
        extraction: ExtractionResult | None = None,
        document: StreamedDocument | None = None,
    ) -> None:
        self.snapshot = snapshot
        self.report = report
        self._extraction = extraction
        self._document = document

    @property
    def extraction(self) -> ExtractionResult:
        if self._extraction is None:
            assert self._document is not None
            self._extraction = build_extraction(self._document)
        return self._extraction


def _snapshot_from(
    names: list[str],
    texts: list[str],
    loads: list[float],
    plan: array,
    map_name: MapName,
    timestamp: datetime,
) -> MapSnapshot:
    """Assemble the topology model from a document's strings and its plan.

    Link ``i``'s ends are ``plan[4i:4i+4]`` (router, label, router,
    label) with loads ``2i`` and ``2i+1``, as
    :func:`~repro.parsing.algorithm2.replay_plan` reads them.
    """
    snapshot = MapSnapshot(map_name=map_name, timestamp=timestamp)
    for name in names:
        kind = NodeKind.PEERING if is_peering_name(name) else NodeKind.ROUTER
        snapshot.add_node(Node(name=name, kind=kind))
    chosen = iter(plan)
    for load_a, load_b in zip(loads[::2], loads[1::2]):
        snapshot.add_link(
            Link(
                a=LinkEnd(node=names[next(chosen)], label=texts[next(chosen)], load=load_a),
                b=LinkEnd(node=names[next(chosen)], label=texts[next(chosen)], load=load_b),
            )
        )
    return snapshot


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
    threshold = opts.label_distance_threshold
    metrics = _metrics()
    stage_hist = metrics.stage

    def charge(stage: str, started: float) -> None:
        elapsed = perf_counter() - started
        stage_hist.observe(elapsed, stage=stage)
        if timings is not None:
            timings.add(stage, elapsed)

    document: StreamedDocument | None = None
    extraction: ExtractionResult | None = None
    signature = ""
    replay: array | None = None
    if opts.fast_path:
        started = perf_counter()
        document = stream_document(source)
        if document is not None:
            if opts.accelerated:
                signature = document.signature
                slot = _LAYOUTS.get(map_name)
                if slot is not None and slot[0] == threshold and slot[1] == signature:
                    replay = slot[2]
            if replay is None:
                # A new layout: build its geometry, which may still hold
                # a coordinate only the DOM path reports.
                try:
                    extraction = build_extraction(document)
                except BUILD_ERRORS:
                    document = None
        if document is not None:
            charge("extract", started)
            metrics.fast_path.inc(1, outcome="hit")
            if timings is not None:
                timings.fast_path_hits += 1
        else:
            metrics.fast_path.inc(1, outcome="fallback")
            if timings is not None:
                timings.fallbacks += 1
    if document is None:
        started = perf_counter()
        stream = read_svg_tags(source)
        charge("read", started)
        started = perf_counter()
        extraction = extract_objects(stream)
        charge("extract", started)
        names = [obj.name for obj in extraction.routers]
        texts = [label.text for label in extraction.labels]
        fills, loads = fills_and_loads(extraction)
    else:
        names, texts, fills, loads = (
            document.names, document.texts, document.fills, document.loads
        )

    started = perf_counter()
    if replay is not None:
        metrics.layout_reuse.inc(1, outcome="hit")
        plan = replay
    else:
        assert extraction is not None  # only a replayed parse has none
        if document is not None and opts.accelerated:
            # Only a successful attribution is stored, so a layout that
            # fails runs (and raises) afresh every time.
            metrics.layout_reuse.inc(1, outcome="miss")
            plan = attribution_plan(extraction, threshold, accelerated=True)
            _LAYOUTS[map_name] = (threshold, signature, plan)
        else:
            plan = attribution_plan(extraction, threshold, accelerated=opts.accelerated)
    charge("attribute", started)

    started = perf_counter()
    report = check_map(
        names,
        {names[router] for router in plan[::2]},
        label_count=len(texts),
        link_count=len(plan) // 4,
        fills=fills,
        loads=loads,
        strict=strict,
    )
    charge("checks", started)

    started = perf_counter()
    snapshot = _snapshot_from(
        names,
        texts,
        loads,
        plan,
        map_name,
        timestamp if timestamp is not None else _EPOCH,
    )
    charge("serialize", started)
    return ParsedMap(snapshot, report, extraction, document)


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
