"""Dataset validation.

"A concern regarding any dataset is its validity" (§6).  This module
makes the concern executable for a collected dataset directory:

* every YAML file must parse and satisfy the schema;
* every YAML must be internally consistent (loads in range, no
  self-links, no isolated routers);
* for a deterministic sample of snapshots, the YAML must agree with a
  fresh re-extraction of its SVG twin — the end-to-end check a skeptical
  researcher would run;
* SVG/YAML pairing must be sane (a YAML without its SVG is suspicious,
  an SVG without YAML is an unprocessed file).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.constants import MapName
from repro.dataset.store import DatasetStore
from repro.errors import ParseError, ReproError, SchemaError, SvgError
from repro.parsing.pipeline import ParseOptions, parse_svg
from repro.rng import stable_uniform
from repro.topology.graph import isolated_routers
from repro.yamlio.deserialize import read_snapshot


@dataclass
class ValidationReport:
    """Outcome of validating one map's files."""

    map_name: MapName
    yaml_files: int = 0
    svg_files: int = 0
    schema_failures: int = 0
    consistency_failures: int = 0
    unpaired_yaml: int = 0
    unprocessed_svg: int = 0
    cross_checked: int = 0
    cross_check_failures: int = 0
    problems: list[str] = field(default_factory=list)
    failure_causes: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        """Whether the map's files passed every check.

        Unprocessed SVGs are expected (the paper leaves <100 per map) and
        do not fail validation by themselves.
        """
        return (
            self.schema_failures == 0
            and self.consistency_failures == 0
            and self.unpaired_yaml == 0
            and self.cross_check_failures == 0
        )


def _note(report: ValidationReport, message: str, limit: int = 20) -> None:
    if len(report.problems) < limit:
        report.problems.append(message)


def _check_consistency(report: ValidationReport, ref, snapshot) -> bool:
    """Internal invariants of one snapshot."""
    isolated = isolated_routers(snapshot)
    if isolated:
        _note(
            report,
            f"{ref.path.name}: {len(isolated)} isolated routers "
            f"(e.g. {isolated[0]})",
        )
        return False
    return True


def _link_signatures(snapshot) -> Counter:
    return Counter(
        tuple(
            sorted(
                (
                    (link.a.node, link.a.label, link.a.load),
                    (link.b.node, link.b.label, link.b.load),
                )
            )
        )
        for link in snapshot.links
    )


def validate_map(
    store: DatasetStore,
    map_name: MapName,
    cross_check_fraction: float = 0.1,
    seed: int = 0,
    options: ParseOptions | None = None,
) -> ValidationReport:
    """Validate one map's stored files.

    Args:
        store: the dataset directory.
        map_name: which map to validate.
        cross_check_fraction: deterministic fraction of snapshots whose
            SVG is re-extracted and compared to the stored YAML.
        seed: selects which snapshots get cross-checked.
        options: parse configuration for the cross-check re-extraction
            (the fast and DOM paths produce identical results).
    """
    report = ValidationReport(map_name=map_name)
    svg_stamps = set(store.timestamps(map_name, "svg"))
    report.svg_files = len(svg_stamps)

    for ref in store.iter_refs(map_name, "yaml"):
        report.yaml_files += 1

        if ref.timestamp not in svg_stamps:
            report.unpaired_yaml += 1
            _note(report, f"{ref.path.name}: YAML without its source SVG")

        try:
            snapshot = read_snapshot(ref.path)
        except ReproError as exc:
            report.schema_failures += 1
            report.failure_causes[type(exc).__name__] += 1
            _note(report, f"{ref.path.name}: {exc}")
            continue

        if not _check_consistency(report, ref, snapshot):
            report.consistency_failures += 1
            continue

        should_check = (
            ref.timestamp in svg_stamps
            and stable_uniform("validate", seed, map_name.value, ref.timestamp)
            < cross_check_fraction
        )
        if should_check:
            report.cross_checked += 1
            try:
                reparsed = parse_svg(
                    store.read_bytes(map_name, ref.timestamp, "svg"),
                    map_name=map_name,
                    timestamp=ref.timestamp,
                    options=options,
                )
            except (SvgError, ParseError) as exc:
                report.cross_check_failures += 1
                report.failure_causes[type(exc).__name__] += 1
                _note(report, f"{ref.path.name}: SVG no longer extracts ({exc})")
                continue
            if _link_signatures(reparsed.snapshot) != _link_signatures(snapshot):
                report.cross_check_failures += 1
                _note(
                    report,
                    f"{ref.path.name}: stored YAML disagrees with a fresh "
                    "extraction of its SVG",
                )

    report.unprocessed_svg = len(
        svg_stamps - set(store.timestamps(map_name, "yaml"))
    )
    return report


def validate_dataset(
    store: DatasetStore,
    cross_check_fraction: float = 0.1,
    seed: int = 0,
    options: ParseOptions | None = None,
) -> dict[MapName, ValidationReport]:
    """Validate every map present in the dataset."""
    reports: dict[MapName, ValidationReport] = {}
    for map_name in MapName:
        report = validate_map(
            store,
            map_name,
            cross_check_fraction=cross_check_fraction,
            seed=seed,
            options=options,
        )
        if report.yaml_files or report.svg_files:
            reports[map_name] = report
    return reports
