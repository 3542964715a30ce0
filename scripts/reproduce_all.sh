#!/usr/bin/env bash
# Reproduce the whole paper in one command.
#
#   scripts/reproduce_all.sh [ARTIFACT_DIR]
#
# Runs the test suite, regenerates every table and figure through the
# benchmark harness (console comparisons + SVG charts + CSV series), and
# builds a small demonstration dataset with its validation report and
# markdown summary under ARTIFACT_DIR (default: ./artifacts).

set -euo pipefail

ARTIFACTS="${1:-artifacts}"
mkdir -p "$ARTIFACTS"

echo "== 0/4 static analysis (invariant linter + ruff/mypy when installed) =="
python3 scripts/run_static_analysis.py

echo "== 1/4 test suite =="
python3 -m pytest tests/ -q

echo "== 1b/4 concurrency suites under the lock sanitizer =="
# The same server/feed/ingest tests, re-run with every repro-package
# lock instrumented: the run fails on any lock-order inversion or
# same-lock re-entry observed at runtime.  The overhead line is
# informational — see docs/static-analysis.md for the measured numbers.
python3 -m pytest tests/test_server.py tests/test_server_feed.py \
    tests/test_dataset_ingest.py -q --repro-tsan
python3 - <<'PY'
from repro.devtools.sanitizer import measure_overhead

numbers = measure_overhead(iterations=20_000)
print(
    "sanitizer overhead (informational): "
    f"raw {numbers['raw_ns_per_pair']:.0f} ns/acquire-release, "
    f"instrumented {numbers['instrumented_ns_per_pair']:.0f} ns "
    f"({numbers['overhead_x']:.1f}x)"
)
PY

echo "== 2/4 tables and figures (benchmark harness) =="
python3 -m pytest benchmarks/ --benchmark-only -q -s | tee "$ARTIFACTS/benchmarks.txt"
cp -r benchmarks/output "$ARTIFACTS/figures" 2>/dev/null || true

echo "== 2b/4 bulk-processing throughput (quick mode) =="
# Write the fresh report next to the other artefacts first so the
# committed baseline survives for the regression comparison below.
python3 benchmarks/bench_throughput_processing.py --quick \
    --output "$ARTIFACTS/BENCH_throughput.json" \
    | tee "$ARTIFACTS/throughput.txt"
# Quick mode measures a 120-file corpus against the 520-file committed
# baseline and shares the host with whatever else runs here, so allow
# wide variance; the default 20% tolerance is for like-for-like runs.
# The telemetry with/without-sink overhead from the fresh report is an
# absolute ceiling (subsystem budget 2%, guard at 5% for noise).
python3 scripts/check_bench_regression.py "$ARTIFACTS/BENCH_throughput.json" \
    --tolerance 0.5 --max-telemetry-overhead 5.0

echo "== 2c/4 ingestion daemon smoke (quick mode: kill, resume, compact) =="
# A 540-file corpus against the 100k-file committed baseline: the quick
# run pays two interpreter startups over ~20 s of work, so its sustained
# number sits well below the amortised full-scale one — hence the wider
# tolerance.  The lower-is-better *_seconds keys shrink with corpus size
# and can only pass; they gate like-for-like full runs.
python3 benchmarks/bench_ingest.py --quick \
    --output "$ARTIFACTS/BENCH_ingest.json" \
    | tee "$ARTIFACTS/ingest.txt"
python3 scripts/check_bench_regression.py "$ARTIFACTS/BENCH_ingest.json" \
    --baseline BENCH_ingest.json --tolerance 0.6

echo "== 2d/4 HTTP read API (quick mode: cache, hot-swap, throughput) =="
# An 18-snapshot corpus against the 168-snapshot committed baseline; the
# rate keys (serving_rps, serving_cached_rps) are per-second and roughly
# comparable across corpus sizes — the wide tolerance absorbs the rest.
# Quick mode prefixes its latency-percentile keys (bimodal small-sample
# tails), so the gate notes them without comparing to the full baseline.
python3 benchmarks/bench_serving.py --quick \
    --output "$ARTIFACTS/BENCH_serving.json" \
    | tee "$ARTIFACTS/serving.txt"
python3 scripts/check_bench_regression.py "$ARTIFACTS/BENCH_serving.json" \
    --baseline BENCH_serving.json --tolerance 0.75

echo "== 2e/4 cold start (informational: import time and RSS per entry point) =="
# Gates nothing: the numbers move with the host.  docs/performance.md
# ("Cold start") records a like-for-like before/after.
python3 scripts/import_profile.py | tee "$ARTIFACTS/import_profile.txt"

echo "== 3/4 demonstration dataset (1 hour, all four maps) =="
DATASET="$ARTIFACTS/dataset"
repro-weather generate "$DATASET" \
    --start 2022-09-11T23:00:00 --end 2022-09-12T00:00:00
repro-weather process "$DATASET" --metrics-out "$ARTIFACTS/metrics.json"
# Every twin of a generated corpus must come from the direct YAML
# emitter; a fallback to yaml.dump means the emitter's layout drifted.
python3 - "$ARTIFACTS/metrics.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    metrics = json.load(handle)["metrics"]
fallbacks = sum(
    value
    for metric in metrics
    if metric["name"] == "repro_yaml_emit_total"
    for labels, value in metric["series"]
    if dict(labels).get("outcome") == "fallback"
)
print(f"YAML emitter fallbacks: {fallbacks:g}")
sys.exit(1 if fallbacks else 0)
PY
repro-weather metrics "$ARTIFACTS/metrics.json" --format prom \
    --output "$ARTIFACTS/metrics.prom"
repro-weather validate "$DATASET" --cross-check 0.5
repro-weather tables "$DATASET" | tee "$ARTIFACTS/tables.txt"

echo "== 4/4 report bundle =="
repro-weather report "$DATASET" --output "$ARTIFACTS/report"
repro-weather upgrade | tee "$ARTIFACTS/figure6.txt"
repro-weather changelog --map europe \
    --start 2022-02-20T00:00:00 --end 2022-04-10T00:00:00 \
    | tee "$ARTIFACTS/changelog.txt"

echo
echo "done — artefacts in $ARTIFACTS/"
