"""Bulk SVG → YAML processing with the paper's error accounting.

"Almost all the SVG files were processed by our script to produce YAML
files, leaving less than a hundred files per map unprocessed" — processing
must therefore *skip and count* failures, never abort.  Each failure is
recorded with its typed cause so Table 2's unprocessed column can be broken
down the way Section 4 discusses.

The per-file extraction is a pure function (:func:`process_svg_bytes`,
bytes in → YAML text or a typed failure out) so the ingest daemon
(:mod:`repro.dataset.ingest`), the only YAML writer, can run it in-process
or in worker processes and merge the results into the same
:class:`ProcessingStats` either way.

Every outcome also lands in the active metrics registry
(:mod:`repro.telemetry`): ``repro_files_total{map,outcome}`` counts
processed / failed / skipped files, ``repro_failures_total{map,cause}``
breaks failures down by typed cause, and ``repro_yaml_bytes_total{map}``
tracks output volume — Table 2 as live counters instead of a return
value that dies with the run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from time import perf_counter

from repro.constants import MapName
from repro.errors import ParseError, StatsMergeError, SvgError
from repro.parsing.pipeline import (
    ParseOptions,
    StageTimings,
    observe_stage,
    parse_svg,
)
from repro.telemetry import get_registry
from repro.yamlio.serialize import snapshot_to_yaml


def file_metrics(registry=None):
    """The per-file outcome instruments, pre-registered on ``registry``.

    Shared by the per-file extraction here and the ingest daemon, so
    parse-side and writer-side counts land in the same metric families.
    """
    registry = registry if registry is not None else get_registry()
    return (
        registry.counter(
            "repro_files_total",
            "SVG files by processing outcome (processed, failed, skipped)",
        ),
        registry.counter(
            "repro_failures_total",
            "Unprocessable SVG files by typed failure cause",
        ),
        registry.counter(
            "repro_yaml_bytes_total", "Bytes of YAML produced"
        ),
    )


@dataclass
class ProcessingStats:
    """Outcome of one bulk processing run over a map's SVG files."""

    map_name: MapName
    processed: int = 0
    unprocessed: int = 0
    yaml_bytes: int = 0
    failure_causes: Counter = field(default_factory=Counter)

    @property
    def total(self) -> int:
        return self.processed + self.unprocessed

    def merge(self, other: "ProcessingStats") -> None:
        """Fold another run's counts into this one (same map)."""
        if other.map_name != self.map_name:
            raise StatsMergeError(
                f"cannot merge stats of {other.map_name.value} into "
                f"{self.map_name.value}"
            )
        self.processed += other.processed
        self.unprocessed += other.unprocessed
        self.yaml_bytes += other.yaml_bytes
        self.failure_causes.update(other.failure_causes)


@dataclass(frozen=True, slots=True)
class ProcessOutcome:
    """Result of extracting one SVG document: YAML text or a typed failure."""

    yaml_text: str | None
    failure_cause: str | None = None
    failure_message: str = ""

    @property
    def ok(self) -> bool:
        return self.yaml_text is not None


def process_svg_bytes(
    data: bytes,
    map_name: MapName,
    timestamp: datetime,
    strict: bool = False,
    options: ParseOptions | None = None,
    *,
    timings: StageTimings | None = None,
) -> ProcessOutcome:
    """Extract one SVG document into its YAML twin — pure and picklable.

    Never raises for the failure modes the paper counts as unprocessed
    (malformed SVGs, extraction failures): those come back as a
    :class:`ProcessOutcome` carrying the exception class name, exactly the
    key the Table 2 accounting uses.

    Args:
        options: parse configuration (fast path, attribution, threshold).
        timings: accumulate per-stage wall time, including the YAML
            emission this function adds on top of :func:`parse_svg`.
    """
    files, failures, _ = file_metrics()
    try:
        parsed = parse_svg(
            data,
            map_name=map_name,
            timestamp=timestamp,
            strict=strict,
            options=options,
            timings=timings,
        )
    except (SvgError, ParseError) as exc:
        files.inc(1, map=map_name.value, outcome="failed")
        failures.inc(1, map=map_name.value, cause=type(exc).__name__)
        return ProcessOutcome(
            yaml_text=None,
            failure_cause=type(exc).__name__,
            failure_message=str(exc),
        )
    started = perf_counter()
    text = snapshot_to_yaml(parsed.snapshot)
    elapsed = perf_counter() - started
    observe_stage("serialize", elapsed)
    if timings is not None:
        timings.add("serialize", elapsed)
    files.inc(1, map=map_name.value, outcome="processed")
    return ProcessOutcome(yaml_text=text)

