#!/usr/bin/env python3
"""Statistical equivalence of two runs of the replicated figures.

A change to the random stream moves every stochastic ref, so its PR
must show that the old and the new refs describe the same
distributions. Run each build's replicated figures at a large
`--trials` into its own directory, then compare:

    (cd old && emc_repro_old run fig_mc_yield --trials 2000)
    (cd new && emc_repro_new run fig_mc_yield --trials 2000)
    python3 tools/ref_equivalence.py old new

Every figure that wrote both `<name>.csv` (the aggregate) and
`<name>_trials.csv` (one row per trial) in both directories is
compared per aggregate group. Columns reported as `<col>_mean` get a
Welch z on the trial values, columns reported as `<col>_yield` a
two-proportion z on the share of non-zero trials. The output is one
markdown row per (figure, metric): the largest |z| over the groups and
where it occurred. Exit status 1 if any |z| exceeds FLAG_Z.
"""
import argparse
import csv
import math
import os
import sys
from collections import defaultdict

# |z| above which a metric is flagged (README, determinism contract).
FLAG_Z = 4.0


def welch(a, b):
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    va = sum((x - ma) ** 2 for x in a) / (len(a) - 1)
    vb = sum((x - mb) ** 2 for x in b) / (len(b) - 1)
    se = math.sqrt(va / len(a) + vb / len(b))
    if se == 0:
        return ma, mb, 0.0 if ma == mb else math.inf
    return ma, mb, (mb - ma) / se


def two_proportion(a, b):
    ka = sum(1 for x in a if x != 0)
    kb = sum(1 for x in b if x != 0)
    pa, pb = ka / len(a), kb / len(b)
    p = (ka + kb) / (len(a) + len(b))
    se = math.sqrt(p * (1 - p) * (1 / len(a) + 1 / len(b)))
    return pa, pb, 0.0 if se == 0 else (pb - pa) / se


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def groups(rows, keys):
    out = defaultdict(list)
    for r in rows:
        out[tuple(r[k] for k in keys)].append(r)
    return out


def compare(old_dir, new_dir, name):
    """Yield (metric, kind, n_groups, trials, worst z, group, old, new)."""
    header = list(read_csv(os.path.join(old_dir, name + ".csv"))[0])
    keys = header[:header.index("trials")]
    old = groups(read_csv(os.path.join(old_dir, name + "_trials.csv")), keys)
    new = groups(read_csv(os.path.join(new_dir, name + "_trials.csv")), keys)
    if list(old) != list(new):
        raise SystemExit(f"{name}: the two runs have different groups")
    metrics = [(c[:-5], "mean", welch) for c in header if c.endswith("_mean")]
    metrics += [(c[:-6], "yield", two_proportion)
                for c in header if c.endswith("_yield")]
    for metric, kind, test in metrics:
        worst = None
        for g in old:
            a = [float(r[metric]) for r in old[g]]
            b = [float(r[metric]) for r in new[g]]
            vo, vn, z = test(a, b)
            if worst is None or abs(z) > abs(worst[0]):
                worst = (z, g, vo, vn)
        n = min(len(v) for v in list(old.values()) + list(new.values()))
        yield (metric, kind, len(old), n) + worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_dir")
    ap.add_argument("new_dir")
    args = ap.parse_args()

    names = sorted(
        f[:-len("_trials.csv")] for f in os.listdir(args.old_dir)
        if f.endswith("_trials.csv")
        and os.path.exists(os.path.join(args.new_dir, f))
        and os.path.exists(os.path.join(args.old_dir, f[:-11] + ".csv")))
    if not names:
        sys.exit("no <name>.csv + <name>_trials.csv pairs in both directories")

    print("| figure | metric | groups | trials | max abs(z) | at | old | new |")
    print("|---|---|---|---|---|---|---|---|")
    flagged = 0
    for name in names:
        for metric, kind, ng, n, z, g, vo, vn in compare(
                args.old_dir, args.new_dir, name):
            flagged += abs(z) > FLAG_Z
            print(f"| {name} | {metric} ({kind}) | {ng} | {n} | {z:+.2f} | "
                  f"{'/'.join(g)} | {vo:.4g} | {vn:.4g} |")
    print(f"\n{flagged} metric(s) with abs(z) > {FLAG_Z:g}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
