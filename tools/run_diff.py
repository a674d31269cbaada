#!/usr/bin/env python3
"""Compare two per-app outcome files written by `choreo_sim --outcomes=PATH`.

    tools/run_diff.py A.jsonl B.jsonl

Each line of an outcome file describes one app: tenant, app ordinal, name,
arrival, placed and wait (null if never placed), rejected, placement (task ->
cloud VM id), the session's estimated completion and the executed completion.

When the files describe the same apps with the same values the diff is empty:
nothing is printed and the exit status is 0. Otherwise the report names

  * the first diverging app, by arrival time (then tenant, then ordinal);
  * how many apps changed placement;
  * the distribution of the per-app executed-completion ratio B / A, where an
    app's executed completion is measured from its arrival;
  * the aggregate deltas (apps, placed, rejected, mean wait, mean estimated
    and executed completion);

and the exit status is 1. Malformed input exits 2.
"""

import json
import sys

FIELDS = ("name", "arrival_s", "placed_s", "wait_s", "rejected", "placement",
          "est_finish_s", "exec_finish_s")


def load(path):
    apps = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                key = (int(rec["tenant"]), int(rec["app"]))
                for field in FIELDS:
                    rec[field]
            except (ValueError, KeyError, TypeError) as e:
                raise SystemExit(f"{path}:{n}: not an outcome line ({e})") from None
            if key in apps:
                raise SystemExit(f"{path}:{n}: duplicate app {key}")
            apps[key] = rec
    return apps


def quantile(sorted_values, q):
    i = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[i]


def mean(values):
    return sum(values) / len(values) if values else float("nan")


def aggregates(apps):
    placed = [r for r in apps.values() if r["placed_s"] is not None]
    return {
        "apps": len(apps),
        "placed": len(placed),
        "rejected": sum(1 for r in apps.values() if r["rejected"]),
        "mean wait (s)": mean([r["wait_s"] for r in placed]),
        "mean est completion (s)": mean(
            [r["est_finish_s"] - r["arrival_s"] for r in placed
             if r["est_finish_s"] is not None]),
        "mean exec completion (s)": mean(
            [r["exec_finish_s"] - r["arrival_s"] for r in placed]),
    }


def diff(a, b):
    """The report lines for outcome maps a and b; empty when they agree."""
    keys = set(a) | set(b)
    differing = [k for k in keys if a.get(k) != b.get(k)]
    if not differing:
        return []

    def order(k):
        rec = a.get(k) or b.get(k)
        return (rec["arrival_s"], k[0], k[1])

    first = min(differing, key=order)
    lines = [f"first diverging app: tenant {first[0]} app {first[1]}"]
    for side, apps in (("A", a), ("B", b)):
        rec = apps.get(first)
        lines.append(f"  {side}: " + ("absent" if rec is None else json.dumps(
            {f: rec[f] for f in FIELDS}, sort_keys=False)))

    both = sorted(set(a) & set(b))
    moved = sum(1 for k in both if a[k]["placement"] != b[k]["placement"])
    lines.append(f"apps differing: {len(differing)} of {len(keys)}; "
                 f"placement changed: {moved}; only in A: {len(set(a) - set(b))}; "
                 f"only in B: {len(set(b) - set(a))}")

    ratios = []
    for k in both:
        ra, rb = a[k], b[k]
        if ra["exec_finish_s"] is None or rb["exec_finish_s"] is None:
            continue
        da = ra["exec_finish_s"] - ra["arrival_s"]
        db = rb["exec_finish_s"] - rb["arrival_s"]
        if da > 0.0:
            ratios.append(db / da)
    if ratios:
        ratios.sort()
        lines.append(
            "executed-completion ratio B/A over {} apps: min {:.3f} p10 {:.3f} "
            "median {:.3f} p90 {:.3f} max {:.3f}; faster {} same {} slower {}".format(
                len(ratios), ratios[0], quantile(ratios, 0.1), quantile(ratios, 0.5),
                quantile(ratios, 0.9), ratios[-1], sum(1 for r in ratios if r < 1.0),
                sum(1 for r in ratios if r == 1.0), sum(1 for r in ratios if r > 1.0)))

    agg_a, agg_b = aggregates(a), aggregates(b)
    lines.append("aggregate: {:<26} {:>14} {:>14} {:>14}".format("", "A", "B", "B - A"))
    for name in agg_a:
        va, vb = agg_a[name], agg_b[name]
        lines.append("           {:<26} {:>14.6g} {:>14.6g} {:>+14.6g}".format(
            name, va, vb, vb - va))
    return lines


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        a, b = load(argv[1]), load(argv[2])
    except OSError as e:
        print(e, file=sys.stderr)
        return 2
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2
    lines = diff(a, b)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
