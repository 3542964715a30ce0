"""Run one workload of the outside-in benchmark suite at one seed.

Usage, from the root of a checkout::

    python3 benchmarks/suite/run.py --workload read-hot --seed 1 --seconds 10 --trace 0
    python3 benchmarks/suite/run.py --workload read-hot --seed 1 --seconds 10 --trace 1
    python3 benchmarks/suite/run.py --calibrate 3

The untraced run (``--trace 0``) reports every end-to-end metric named
in ``BENCHMARK.json``; the traced run (``--trace 1``) reports every
per-layer metric.  Either way the program's outputs are checked against
the oracles in ``oracle.py`` first.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--out DIR`` the full record (host, seed, run length, validity, the
workload's throughput and latency, set-up samples) is also written to a
file in DIR.  The exit code is 0 only when every check passed.

``--calibrate N`` runs every workload N times on each of two seeds and
writes the median and relative interquartile range of each end-to-end
metric and each workload timing to ``benchmarks/suite/calibration.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"
CALIBRATION_FILE = SUITE_DIR / "calibration.json"
CALIBRATION_SEEDS = (101, 202)


def load_benchmark() -> dict:
    return json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))


def relative_iqr(values: list[float]) -> float:
    """Interquartile range over the median, as ``statistics.quantiles`` gives it."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def e2e_metrics(bench) -> dict[str, float]:
    return {
        "setup_s": statistics.median(bench.setup_seconds),
        "peak_rss_mb": bench.rss.peak_mb,
    }


def overhead_pct(traced: list[float], plain: list[float]) -> float:
    """Tracing overhead: traced vs untraced median cost of the same operation."""
    if not traced or not plain:
        return 0.0
    base = statistics.median(plain)
    return (statistics.median(traced) - base) / base * 100.0 if base else 0.0


def layer_metrics(bench, samples) -> dict[str, float]:
    from harness import percentile
    from spans import load_spans, reduce_layers
    from workloads import TIMING_METRICS

    spans = load_spans(
        [bench.workdir / "spans-ingest.jsonl", bench.workdir / "spans-server.jsonl"]
    )
    layers = reduce_layers(spans, bench.client_ns)
    for names in TIMING_METRICS.values():
        layers.update(dict.fromkeys(names, 0.0))
    layers.update(samples.timings)
    layers["server.hotswaps"] = bench.detail.get("hotswaps", 0.0)
    layers["loadgen.lateness_p99_ms"] = percentile(bench.lateness, 0.99)
    layers["trace.overhead_pct"] = overhead_pct(samples.traced, samples.plain)
    return layers


def run_once(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from harness import BenchError, host_info, percentile
    from workloads import MAX_LATENESS_MS, RATES, WORKLOADS, Bench

    spec = load_benchmark()
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workdir = SUITE_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.seed, args.seconds, bool(args.trace), args.smoke, workdir)
    try:
        try:
            result = WORKLOADS[args.workload](bench)
        finally:
            bench.stop_all()
        measured = layer_metrics(bench, result) if args.trace else e2e_metrics(bench)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        for log in sorted(workdir.glob("*.log")):
            print(f"--- {log.name}\n{log.read_text(errors='replace')[-4000:]}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = {
        entry["name"]: {"value": measured[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    lateness_p99 = percentile(bench.lateness, 0.99)
    valid = lateness_p99 <= MAX_LATENESS_MS
    line = {
        "correct": bench.failed == 0,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }
    if args.out:
        record = dict(
            line,
            workload=args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=args.trace,
            smoke=args.smoke,
            open_loop_rate=RATES.get(args.workload),
            host=host_info(),
            recorded_unix=time.time(),
            valid=valid,
            validity={"lateness_p99_ms": lateness_p99, "max_lateness_ms": MAX_LATENESS_MS},
            errors=bench.errors,
            setup_samples_s=bench.setup_seconds,
            timings=result.timings,
            detail=bench.detail,
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time() * 1000)}.json"
        (out / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for problem in bench.errors:
        print(f"check failed: {problem}", file=sys.stderr)
    if not valid:
        print(f"run invalid: generator p99 lateness {lateness_p99:.2f} ms", file=sys.stderr)
    for key, value in metrics.items():
        print(f"{key:48s} {value['value']:14.4f} {value['unit']}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def calibrate(args: argparse.Namespace) -> int:
    """Repeat every workload on two seeds; record medians and spreads.

    Covers the end-to-end metrics and the workload's ungated timings, so
    the file shows which of them repeat within the bound.
    """
    spec = load_benchmark()
    out = Path(args.out) if args.out else SUITE_DIR / ".work" / f"calibrate-{os.getpid()}"
    table: dict[str, dict] = {}
    try:
        for workload in (entry["name"] for entry in spec["workloads"]):
            records = out / workload
            for seed in CALIBRATION_SEEDS:
                for repeat in range(args.calibrate):
                    command = [
                        sys.executable, str(SUITE_DIR / "run.py"), "--workload", workload,
                        "--seed", str(seed + repeat), "--seconds", str(spec["run_seconds"]),
                        "--trace", "0", "--out", str(records),
                    ]
                    if args.smoke:
                        command.append("--smoke")
                    done = subprocess.run(
                        command, cwd=REPO_ROOT, capture_output=True, text=True, timeout=600
                    )
                    if done.returncode != 0:
                        print(done.stderr, file=sys.stderr)
                        return 1
            values: dict[str, list[float]] = {}
            for path in sorted(records.glob("*-trace0-*.json")):
                record = json.loads(path.read_text(encoding="utf-8"))
                for name, metric in record["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                for name, value in record["timings"].items():
                    values.setdefault(name, []).append(value)
            table[workload] = {
                name: {"median": statistics.median(series), "iqr_rel": relative_iqr(series)}
                for name, series in values.items()
            }
            print(workload, json.dumps(table[workload], sort_keys=True))
    finally:
        if not args.out:
            shutil.rmtree(out, ignore_errors=True)
            try:
                out.parent.rmdir()
            except OSError:
                pass
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from harness import host_info

    document = {
        "host": host_info(),
        "seeds": list(CALIBRATION_SEEDS),
        "runs_per_seed": args.calibrate,
        "run_seconds": spec["run_seconds"],
        "workloads": table,
    }
    CALIBRATION_FILE.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--out", help="directory for the full result record")
    parser.add_argument("--calibrate", type=int, metavar="N", help="repeat every workload N times per seed")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir() or not BENCHMARK_FILE.is_file():
        print(f"no repro sources under {REPO_ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.calibrate:
        return calibrate(args)
    if not args.workload:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
