#!/usr/bin/env python3
"""A/B report over two result sets of figbench/run.py.

    python3 figbench/ab_report.py A.jsonl B.jsonl

Each file holds the lines run.py appends with --record FILE. A is the
parent (base), B the change. Run both sides with the same seeds,
alternating which side goes first. One row per workload x metric:

  * timings: medians and quartiles of each side, the paired win rate
    (pairs matched by seed; a win is B better than A, ties count for
    neither) and a verdict. "gain" needs B to win at least 9/10 of the
    pairs and the medians to differ by more than A's quartile spread;
    "regression" means B's median is worse than A's by more than the
    metric's bound; "unresolved" means a side's spread (IQR / median) is
    wider than the bound and B does not beat A on every run;
  * counters (unit count or bytes): the exact delta with its base.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_UNITS = ("count", "bytes")


def load(path):
    runs = defaultdict(dict)  # (workload, trace) -> seed -> metrics
    for line in Path(path).read_text().splitlines():
        if line.strip():
            r = json.loads(line)
            runs[(r["workload"], r["trace"])][r["seed"]] = r["result"]["metrics"]
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def spread(v):
    q1, m, q3 = quartiles(v)
    return (q3 - q1) / abs(m) if m else 0.0


def verdict(a, b, pairs, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    q1a, _, q3a = quartiles(a)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    b_beats_all = all(sign * (x - y) > 0 for x in a for y in b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else 0.0
    if bound is not None and max(spread(a), spread(b)) > bound and not b_beats_all:
        return wins, "unresolved"
    if pairs and wins >= 0.9 * len(pairs) and sign * (ma - mb) > (q3a - q1a):
        return wins, "gain"
    if bound is not None and worse_by > bound:
        return wins, "regression"
    return wins, "within bound" if bound is not None else "no claim"


def main():
    ap = argparse.ArgumentParser(description="A/B report over two figbench result sets")
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    a = ap.parse_args()
    spec = json.loads(Path(a.benchmark).read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    A, B = load(a.base), load(a.change)

    print(f"{'workload':<14} {'metric':<26} {'A median [q1,q3]':>34} "
          f"{'B median [q1,q3]':>34} {'wins':>6}  verdict")
    for key in sorted(set(A) & set(B)):
        workload, trace = key
        ra, rb = A[key], B[key]
        seeds = sorted(set(ra) & set(rb))
        names = [m["name"] for m in (spec["per_layer"] if trace else spec["end_to_end"])]
        for name in names:
            va = [r[name]["value"] for r in ra.values() if name in r]
            vb = [r[name]["value"] for r in rb.values() if name in r]
            if not va or not vb:
                continue
            unit = next(iter(ra.values()))[name]["unit"]
            pairs = [(ra[s][name]["value"], rb[s][name]["value"]) for s in seeds]
            if unit in COUNT_UNITS:
                deltas = sorted({y - x for x, y in pairs})
                base = statistics.median(va)
                text = ("identical" if deltas == [0] else
                        "delta " + ", ".join(f"{d:+g}" for d in deltas))
                print(f"{workload:<14} {name:<26} {base:>34g} "
                      f"{statistics.median(vb):>34g} {'':>6}  {text} (base {base:g}, "
                      f"{len(pairs)} paired seeds)")
                continue
            qa, qb = quartiles(va), quartiles(vb)
            wins, v = verdict(va, vb, pairs, better[name], bounds.get(name))
            fa = f"{qa[1]:.5g} [{qa[0]:.5g},{qa[2]:.5g}] n={len(va)}"
            fb = f"{qb[1]:.5g} [{qb[0]:.5g},{qb[2]:.5g}] n={len(vb)}"
            print(f"{workload:<14} {name:<26} {fa:>34} {fb:>34} "
                  f"{wins:>3}/{len(pairs):<2}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
