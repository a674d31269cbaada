#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark; the command BENCHMARK.json names.

  python3 bench/e2e/run.py --workload session_fixed --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds bench/e2e (its own CMake project,
Release) into build-bench/, runs one workload, and prints choreo_bench's
report followed, as the last line, by one JSON object:

  {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 the run is traced and they are its per_layer metrics (choreo_bench's
own plus the self-time shares trace_summary.py derives from the trace). The
exit status is non-zero if the build fails, an output check fails, an
operation fails, or the metric names differ from BENCHMARK.json.

  python3 bench/e2e/run.py --smoke [--bin build-bench/choreo_bench]

runs every workload at tiny sizes, traced and untraced, checks the metric
names against BENCHMARK.json, and gates the exported trace and metrics
documents with bench/check_bench_json.py.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))
import trace_summary  # noqa: E402


def build(build_dir):
    """Configures (once) and builds choreo_bench; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "choreo_bench"], check=True, stdout=sys.stderr)
    return build_dir / "choreo_bench"


def declared(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    if section == "workloads":
        return [w["name"] for w in bench["workloads"]]
    return {m["name"]: m["unit"] for m in bench[section]}


def run_workload(binary, workload, seed, seconds, traced, out_dir, smoke=False):
    """Runs choreo_bench once; returns (exit code, result, metrics, errors)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    result_path = out_dir / f"BENCH_e2e_{workload}.json"
    trace_path = out_dir / f"TRACE_{workload}.json"
    metrics_path = out_dir / f"METRICS_{workload}.json"
    for stale in (result_path, trace_path, metrics_path):
        stale.unlink(missing_ok=True)
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--json={result_path}"]
    if traced:
        cmd += [f"--trace={trace_path}", f"--metrics={metrics_path}"]
    if smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    code = subprocess.run(cmd, check=False).returncode
    if not result_path.exists():
        return code, None, {}, [f"choreo_bench exited {code} without a result"]
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    errors = []
    if traced:
        metrics = dict(result["per_layer"])
        _, shares, dropped, _, _ = trace_summary.summarize(trace_path, metrics_path)
        metrics.update(shares)
        if dropped:
            errors.append(f"the tracer dropped {dropped} spans")
        if not smoke and shares["trace_coverage"]["value"] < 0.95:
            errors.append("the trace covers less than 95% of the loop wall")
    else:
        metrics = result["end_to_end"]
    section = "per_layer" if traced else "end_to_end"
    expected = declared(section)
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        errors.append(f"{workload}: {section} metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, units "
                      f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
    return code, result, metrics, errors


def smoke(binary, out_dir):
    failures = []
    for workload in declared("workloads"):
        for traced in (False, True):
            code, _, _, errors = run_workload(binary, workload, 1, 1, traced,
                                              out_dir, smoke=True)
            if code != 0:
                errors.append(f"{workload}: choreo_bench exited {code}")
            failures += errors
        documents = [out_dir / f"TRACE_{workload}.json",
                     out_dir / f"METRICS_{workload}.json"]
        gate = subprocess.run([sys.executable, str(ROOT / "bench" / "check_bench_json.py"),
                               *map(str, documents)], check=False)
        if gate.returncode != 0:
            failures.append(f"{workload}: trace/metrics documents fail check_bench_json.py")
    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="use this choreo_bench instead of building")
    parser.add_argument("--out", help="directory for result, trace and metrics files")
    args = parser.parse_args()

    build_dir = ROOT / "build-bench"
    out_dir = Path(args.out) if args.out else build_dir / "out"
    try:
        binary = Path(args.bin) if args.bin else build(build_dir)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"build failed: {exc}", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke(binary, out_dir)
    if args.workload not in declared("workloads"):
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    code, result, metrics, errors = run_workload(
        binary, args.workload, args.seed, args.seconds, args.trace == 1, out_dir)
    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    if result is None:
        return 1
    correct = bool(result["correct"]) and not errors
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if code == 0 and correct and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
