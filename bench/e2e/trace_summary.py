#!/usr/bin/env python3
"""Self time per span, and per layer, from a traced choreo_bench run.

Usage: trace_summary.py TRACE_W.json [METRICS_W.json]

A span's self time is its duration minus the union of the child spans it
contains on the same lane. Spans on one lane are properly nested (each lane
is one thread), so the union of the direct children is the sum of their
durations.

Shares are of the measured loop's wall time, which choreo_bench records in
the metrics document as the gauge bench.wall_loop_s. Spans under a
bench.setup span (set-up, not the loop) are listed but excluded from the
shares. The benchmark's spans around library calls count toward the layer
they call: session steps are core (SessionRuntime), service calls are
serve. Loop time outside every span is the benchmark's own glue.

Prints the self-time table and the registry counters, then the per-layer
metrics. Exits non-zero if the tracer dropped spans.
"""

import json
import sys
from collections import defaultdict

# Layers reported as self.<layer>_share, in print order.
LAYERS = ("bench", "core", "measure", "agent", "place", "serve")

BENCH_CALLS = {
    "bench.measure_refresh": "core",
    "bench.arrival": "core",
    "bench.retry": "core",
    "bench.reeval": "core",
    "bench.departure": "core",
    "bench.query": "serve",
    "bench.publish": "serve",
    "bench.commit": "serve",
    "bench.release": "serve",
}

LIBRARY_PREFIXES = {
    "session": "core",
    "sharded": "core",
    "measure": "measure",
    "agent": "agent",
    "place": "place",
    "serve": "serve",
    "flowsim": "flowsim",
}

# Child spans may end a rounding error after their parent.
EPS_US = 1e-3


def layer_of(name):
    if name in BENCH_CALLS:
        return BENCH_CALLS[name]
    prefix = name.split(".", 1)[0]
    if prefix == "bench":
        return "bench"
    return LIBRARY_PREFIXES.get(prefix, prefix)


def self_times(spans):
    """Yields (name, root name, self us, dur us) for every complete span."""
    lanes = defaultdict(list)
    for ev in spans:
        lanes[ev["tid"]].append(ev)
    for events in lanes.values():
        # Parents before the children they contain: by start, longest first.
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, end, children_us, root]

        def close(entry):
            ev, _, children, root = entry
            return ev["name"], root, ev["dur"] - children, ev["dur"]

        for ev in events:
            end = ev["ts"] + ev["dur"]
            # Close every open span that does not contain this one.
            while stack and end > stack[-1][1] + EPS_US:
                yield close(stack.pop())
            if stack:
                stack[-1][2] += ev["dur"]
                root = stack[-1][3]
            else:
                root = ev["name"]
            stack.append([ev, end, 0.0, root])
        while stack:
            yield close(stack.pop())


def summarize(trace_path, metrics_path):
    """Returns (per-span table, per-layer metrics, dropped spans, counters)."""
    with open(trace_path, encoding="utf-8") as f:
        doc = json.load(f)
    counters, gauges = {}, {}
    if metrics_path:
        with open(metrics_path, encoding="utf-8") as f:
            metrics = json.load(f)
        counters, gauges = metrics.get("counters", {}), metrics.get("gauges", {})
    spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]

    table = defaultdict(lambda: {"count": 0, "self_us": 0.0, "loop_us": 0.0})
    layer_us = defaultdict(float)
    top_us = 0.0
    for name, root, self_us, dur_us in self_times(spans):
        row = table[name]
        row["count"] += 1
        row["self_us"] += self_us
        if root == "bench.setup":
            continue
        row["loop_us"] += self_us
        layer_us[layer_of(name)] += self_us
        if root == name:
            top_us += dur_us

    loop_us = gauges.get("bench.wall_loop_s", 0.0) * 1e6 or top_us
    # Loop time outside every span is the benchmark's own glue.
    layer_us["bench"] += max(loop_us - top_us, 0.0)
    per_layer = {
        f"self.{layer}_share": {"value": layer_us[layer] / loop_us if loop_us else 0.0,
                                "unit": "ratio"}
        for layer in LAYERS
    }
    per_layer["trace_coverage"] = {"value": top_us / loop_us if loop_us else 0.0,
                                   "unit": "ratio"}
    for row in table.values():
        row["share"] = row["loop_us"] / loop_us if loop_us else 0.0
    return dict(table), per_layer, int(doc.get("droppedEvents", 0)), counters, loop_us


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    table, per_layer, dropped, counters, loop_us = summarize(
        argv[1], argv[2] if len(argv) == 3 else None)
    print(f"loop wall {loop_us / 1e6:.3f} s; {sum(r['count'] for r in table.values())} "
          f"spans, {dropped} dropped")
    print(f"{'span':28} {'count':>9} {'self s':>10} {'loop share':>11}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_us"]):
        print(f"{name:28} {row['count']:9d} {row['self_us'] / 1e6:10.4f} "
              f"{row['share']:11.2%}")
    if counters:
        print("registry counters:")
        for name, value in sorted(counters.items()):
            print(f"  {name} {value}")
    for name, m in per_layer.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    if dropped:
        print(f"FAIL: the tracer dropped {dropped} spans", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
