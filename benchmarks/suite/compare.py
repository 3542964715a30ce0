"""Compare two sets of benchmark runs, metric by metric, against BENCHMARK.json.

Usage::

    python3 benchmarks/suite/compare.py A_DIR B_DIR

Each directory holds full result records written by ``run.py`` (its
``--out``).  Only untraced, valid runs count.  For every workload and
end-to-end metric the table shows each side's median and quartiles and a
verdict that follows the metric's ``bound`` and ``better`` direction:

``unresolved``
    the spread (interquartile range over median) of either side exceeds
    the bound, and not every B run reads better than every A run;
``worse`` / ``better``
    B's median moved past the bound in that direction;
``unchanged``
    otherwise.

The workload's throughput and latency (the record's ``timings``) follow,
marked ``ungated``: ``BENCHMARK.json`` lists them as per-layer metrics
without a bound, and they are judged against :data:`UNGATED_BOUND`.

The exit code is 1 when any gated verdict is ``worse`` or B fails a
larger share of its operations than A (``failed / attempted``), else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
#: The relative worsening an ungated timing is judged against.  It is not
#: a gate: on a shared 2-CPU host these timings do not repeat within it.
UNGATED_BOUND = 0.10


def load_records(directory: Path) -> tuple[dict[str, list[dict]], int]:
    """Untraced valid records by workload, and how many invalid runs were skipped."""
    records: dict[str, list[dict]] = defaultdict(list)
    skipped = 0
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace"):
            continue
        if not record.get("valid", True):
            skipped += 1
            continue
        records[record["workload"]].append(record)
    return records, skipped


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / a_med if a_med else 0.0, (b_q3 - b_q1) / b_med if b_med else 0.0)
    change = (b_med - a_med) / a_med if a_med else 0.0
    worsening = change if better == "lower" else -change
    if better == "lower":
        dominates = max(b) < min(a)
    else:
        dominates = min(b) > max(a)
    if spread > bound:
        return "better" if dominates else "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > bound:
        return "better"
    return "unchanged"


def error_ratio(records: list[dict]) -> float:
    attempted = sum(record["attempted"] for record in records)
    return sum(record["failed"] for record in records) / attempted if attempted else 0.0


def row(workload: str, metric: dict, a_values: list[float], b_values: list[float],
        bound: float) -> list[str]:
    a_q, b_q = quartiles(a_values), quartiles(b_values)
    change = (b_q[1] - a_q[1]) / a_q[1] * 100 if a_q[1] else 0.0
    return [
        workload,
        f"{metric['name']} ({metric['unit']})",
        f"{a_q[1]:.4g} [{a_q[0]:.4g}, {a_q[2]:.4g}] n={len(a_values)}",
        f"{b_q[1]:.4g} [{b_q[0]:.4g}, {b_q[2]:.4g}] n={len(b_values)}",
        f"{change:+.1f}%",
        verdict(a_values, b_values, metric["better"], bound),
    ]


def compare(spec: dict, a_dir: Path, b_dir: Path) -> tuple[list[list[str]], bool]:
    """The comparison table and whether B regressed."""
    a_runs, a_skipped = load_records(a_dir)
    b_runs, b_skipped = load_records(b_dir)
    per_layer = {metric["name"]: metric for metric in spec["per_layer"]}
    rows = []
    regressed = False
    for workload in (entry["name"] for entry in spec["workloads"]):
        a, b = a_runs.get(workload), b_runs.get(workload)
        if not a or not b:
            rows.append([workload, "-", "no runs on one side", "", "", "missing"])
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            rows.append(row(
                workload, metric,
                [record["metrics"][name]["value"] for record in a],
                [record["metrics"][name]["value"] for record in b],
                metric["bound"],
            ))
            regressed |= rows[-1][5] == "worse"
        for name in a[0].get("timings", {}):
            rows.append(row(
                workload, per_layer[name],
                [record["timings"][name] for record in a],
                [record["timings"][name] for record in b],
                UNGATED_BOUND,
            ))
            rows[-1][5] += " (ungated)"
        a_errors, b_errors = error_ratio(a), error_ratio(b)
        worse_errors = b_errors > a_errors
        regressed |= worse_errors
        rows.append(
            [workload, "error_ratio", f"{a_errors:.4g}", f"{b_errors:.4g}", "",
             "worse" if worse_errors else "unchanged"]
        )
    if a_skipped or b_skipped:
        rows.append(["-", "invalid runs skipped", str(a_skipped), str(b_skipped), "", ""])
    return rows, regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a_dir", type=Path)
    parser.add_argument("b_dir", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    rows, regressed = compare(spec, args.a_dir, args.b_dir)
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict"]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
