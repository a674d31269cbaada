#!/usr/bin/env python3
"""Compares the end-to-end benchmark between two commits.

Collect alternating pairs (run from anywhere; each DIR is a checkout):

  compare.py --parent PARENT_DIR --change CHANGE_DIR [--pairs 10] [--seed 1]

runs bench/e2e/run.py in both checkouts, alternating which side runs first,
with pair i of every workload on seed SEED + i for both sides, and appends
every result to build-bench/compare/parent.jsonl and change.jsonl. Then, or
later:

  compare.py build-bench/compare/parent.jsonl build-bench/compare/change.jsonl

judges every end-to-end metric of every workload in BENCHMARK.json by its
bound and prints one row per workload and metric:

  gain        at least 10 pairs, the change wins at least 9 in 10 of them
              (ties count for neither side), and the medians differ by more
              than the parent's interquartile range;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  unresolved  the parent's relative interquartile range exceeds the bound,
              and not every change run beats every parent run;
  ok          none of the above: no regression beyond the bound.

Exit status 1 if any row is a regression.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
OUT = ROOT / "build-bench" / "compare"


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def collect(args, bench):
    OUT.mkdir(parents=True, exist_ok=True)
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    workloads = [w["name"] for w in bench["workloads"]]
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload,
                       "--seed", str(args.seed + i), "--seconds", str(bench["run_seconds"]),
                       "--trace", "0"]
                proc = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True,
                                      check=False)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    raise SystemExit(f"{side} {workload} pair {i} failed")
                record = {"workload": workload, "pair": i, "first": order[0],
                          "result": json.loads(lines[-1])}
                with open(OUT / f"{side}.jsonl", "a", encoding="utf-8") as f:
                    f.write(json.dumps(record) + "\n")
                print(f"pair {i} {workload} {side}: done", flush=True)
    return OUT / "parent.jsonl", OUT / "change.jsonl"


def read_runs(path):
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["pair"])] = rec["result"]["metrics"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(metric, parent, change):
    """One comparison row for paired samples of one metric."""
    lower_better = metric["better"] == "lower"
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse = (c_med - p_med) / p_med if lower_better else (p_med - c_med) / p_med
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower_better else c > p))
    beats_all = (max(change) < min(parent)) if lower_better else (min(change) > max(parent))
    n = len(parent)
    if n >= 10 and wins >= 0.9 * n and abs(c_med - p_med) > p_q3 - p_q1:
        result = "gain"
    elif worse > metric["bound"]:
        result = "regression"
    elif spread > metric["bound"] and not beats_all:
        result = "unresolved"
    else:
        result = "ok"
    return {"parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "worse": worse, "spread": spread, "wins": wins, "n": n, "verdict": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("files", nargs="*", help="PARENT.jsonl CHANGE.jsonl")
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = load_benchmark()

    if args.parent and args.change:
        parent_path, change_path = collect(args, bench)
    elif len(args.files) == 2:
        parent_path, change_path = args.files
    else:
        parser.error("give PARENT.jsonl CHANGE.jsonl, or --parent and --change")
    parent, change = read_runs(parent_path), read_runs(change_path)

    regressions = 0
    print(f"{'workload':24} {'metric':16} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse':>8} {'wins':>6} {'spread':>7} "
          f"{'bound':>6}  verdict")
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        pairs = sorted(i for (w, i) in parent if w == workload and (w, i) in change)
        if not pairs:
            raise SystemExit(f"no paired runs of {workload}: every workload must be compared")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = verdict(metric, [parent[(workload, i)][name]["value"] for i in pairs],
                          [change[(workload, i)][name]["value"] for i in pairs])
            regressions += row["verdict"] == "regression"
            fmt = "{:.4g} [{:.4g}, {:.4g}]"
            print(f"{workload:24} {name:16} {fmt.format(*row['parent']):>34} "
                  f"{fmt.format(*row['change']):>34} {row['worse']:8.1%} "
                  f"{row['wins']:>3}/{row['n']:<2} {row['spread']:7.1%} "
                  f"{metric['bound']:6.0%}  {row['verdict']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
