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
# The same server/feed/ingest/shard tests, re-run with every
# repro-package lock instrumented: the run fails on any lock-order
# inversion or same-lock re-entry observed at runtime (the sanitizer is
# tests/lock_sanitizer.py).  The shard tests race
# ShardedMappedIndex._open_lock, the one lock outside the server and
# telemetry.  The overhead line is informational — see
# docs/static-analysis.md for the measured numbers.
python3 -m pytest tests/test_server.py tests/test_server_feed.py \
    tests/test_dataset_ingest.py tests/test_dataset_shards.py -q --repro-tsan
python3 - <<'PY'
from tests.lock_sanitizer import measure_overhead

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

echo "== 2b/4 benchmark suite (one run per workload, oracles checked) =="
# benchmarks/suite is the one performance ledger: BENCHMARK.json names its
# workloads, metrics and bounds, and compare.py judges pairs of runs.  One
# run per workload here proves every workload still runs correctly: run.py
# exits non-zero on any oracle mismatch.  The numbers gate nothing here;
# docs/performance.md cites paired runs instead.
python3 benchmarks/suite/run.py --workload ingest-backfill --seed 1 --seconds 10 --trace 0 \
    | tee "$ARTIFACTS/suite-ingest-backfill.txt"
python3 benchmarks/suite/run.py --workload ingest-live --seed 1 --seconds 10 --trace 0 \
    | tee "$ARTIFACTS/suite-ingest-live.txt"
python3 benchmarks/suite/run.py --workload read-hot --seed 1 --seconds 10 --trace 0 \
    | tee "$ARTIFACTS/suite-read-hot.txt"
python3 benchmarks/suite/run.py --workload read-scan --seed 1 --seconds 10 --trace 0 \
    | tee "$ARTIFACTS/suite-read-scan.txt"

echo "== 2c/4 telemetry overhead (absolute 5% ceiling) =="
# Serial processing under a live registry vs. the no-op sink, in blocks
# of alternating pairs over one corpus; both must write the same YAML tree.
# The subsystem's budget is 2%; the script's ceiling sits at 5% for noise.
python3 scripts/telemetry_overhead.py | tee "$ARTIFACTS/telemetry_overhead.txt"

echo "== 2e/4 cold start (import time and RSS per entry point; daemon closure) =="
# The timings gate nothing: they move with the host.  docs/performance.md
# ("Cold start") records a like-for-like before/after.  The layers do
# gate: the ingest daemon never runs numpy, so its imports must not load it.
python3 scripts/import_profile.py | tee "$ARTIFACTS/import_profile.txt"
if grep -Eq '^daemon loads: .*\bnumpy\b' "$ARTIFACTS/import_profile.txt"; then
    echo "FAIL: the ingest daemon's imports load numpy" >&2
    exit 1
fi

echo "== 3/4 demonstration dataset (1 hour, all four maps) =="
DATASET="$ARTIFACTS/dataset"
SERIAL="$ARTIFACTS/dataset-serial"
repro-weather generate "$DATASET" \
    --start 2022-09-11T23:00:00 --end 2022-09-12T00:00:00
rm -rf "$SERIAL"
cp -a "$DATASET" "$SERIAL"
repro-weather ingest run "$DATASET" --workers auto \
    --metrics-out "$ARTIFACTS/metrics.json"
# One writer, one state: a one-worker (in-process) run over a copy of the
# same SVGs writes the same YAML tree and the same manifest, and a second
# run finds nothing left to parse in either dataset.
repro-weather ingest run "$SERIAL" --workers 1
for MAP in europe world north-america asia-pacific; do
    diff -r "$SERIAL/$MAP/yaml" "$DATASET/$MAP/yaml"
    cmp "$SERIAL/$MAP/manifest.json" "$DATASET/$MAP/manifest.json"
done
for DIR in "$DATASET" "$SERIAL"; do
    repro-weather ingest run "$DIR" | tee "$ARTIFACTS/ingest-second-run.txt"
    if ! grep -q '^ingested 0 files' "$ARTIFACTS/ingest-second-run.txt"; then
        echo "FAIL: a second ingest run re-parsed files in $DIR" >&2
        exit 1
    fi
done
# Processing compacts every map's day shards; index status exits 1
# unless all of them are fresh, so validate, tables and report below
# read the shards, not the YAML fallback.
repro-weather index status "$DATASET"
# Every twin of a generated corpus must come from the direct YAML
# emitter (a fallback to yaml.dump means the emitter's layout drifted)
# and be read back by the fast reader.  A map with more than one parse
# batch parses in pool workers on a multi-core host, while the writer
# counts each file it ingested (processed or failed): fewer parsed
# documents than ingested files, or fewer deserialised documents than
# index rows parsed from YAML, means worker metrics were lost.
# Consecutive 5-minute ticks share a map's layout, so zero layout-reuse
# hits means the replay of Algorithm 2 is dead, and hits plus misses
# must equal the fast-path hits, however many workers ran.
python3 - "$ARTIFACTS/metrics.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    metrics = json.load(handle)["metrics"]


def total(name, key, value):
    return sum(
        count
        for metric in metrics
        if metric["name"] == name
        for labels, count in metric["series"]
        if dict(labels).get(key) == value
    )


emit_fallbacks = total("repro_yaml_emit_total", "outcome", "fallback")
read_fallbacks = total("repro_yaml_fast_path_total", "outcome", "fallback")
deserialized = total("repro_yaml_docs_total", "op", "deserialize")
indexed = total("repro_index_rows_total", "outcome", "parsed")
fast_hits = total("repro_parse_fast_path_total", "outcome", "hit")
parsed = fast_hits + total("repro_parse_fast_path_total", "outcome", "fallback")
ingested = total("repro_ingest_files_total", "outcome", "processed") + total(
    "repro_ingest_files_total", "outcome", "failed"
)
reuse_hits = total("repro_parse_layout_reuse_total", "outcome", "hit")
reuse_misses = total("repro_parse_layout_reuse_total", "outcome", "miss")
print(f"YAML emitter fallbacks: {emit_fallbacks:g}")
print(f"YAML reader fallbacks: {read_fallbacks:g}")
print(f"YAML documents deserialised: {deserialized:g} (index rows parsed: {indexed:g})")
print(f"SVG documents parsed: {parsed:g} (files ingested: {ingested:g})")
print(f"layout reuse: {reuse_hits:g} hits, {reuse_misses:g} misses (fast-path hits: {fast_hits:g})")
sys.exit(
    1
    if emit_fallbacks
    or read_fallbacks
    or deserialized < indexed
    or not ingested
    or parsed < ingested
    or not reuse_hits
    or reuse_hits + reuse_misses != fast_hits
    else 0
)
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
