#!/usr/bin/env python3
"""Compares perfbench runs of a parent tree and a change, pair by pair.

Usage:
  python3 scripts/perf_compare.py PARENT_FILE CHANGE_FILE [--benchmark FILE]

Each file holds perfbench result lines (the JSON object perfbench/run.py
prints last), one run per line, in pair order: line i of PARENT_FILE and
line i of CHANGE_FILE are one pair, run back to back. Other lines are
ignored. For every end-to-end metric that BENCHMARK.json declares, the
script prints a markdown table row with the parent's and the change's
median and interquartile range, the change of the median against the
parent, and how many pairs the change won (better in the metric's
direction). It exits nonzero if the files hold different numbers of runs
or a run is not correct.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            run = json.loads(line)
            if "metrics" in run:
                runs.append(run)
    return runs


def quantile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def summary(values):
    s = sorted(values)
    return quantile(s, 0.5), quantile(s, 0.75) - quantile(s, 0.25)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = read_runs(args.parent), read_runs(args.change)
    if not parent or len(parent) != len(change):
        sys.exit(f"need equal, nonzero run counts: parent {len(parent)}, change {len(change)}")

    ok = True
    for name, runs in (("parent", parent), ("change", change)):
        wrong = sum(not r["correct"] for r in runs)
        failed = sum(r.get("failed", 0) for r in runs)
        print(f"{name}: {len(runs)} runs, {wrong} not correct, {failed} failed ops")
        ok = ok and wrong == 0
    print()
    print("| metric | parent median | parent IQR | change median | change IQR "
          "| delta | pairs won |")
    print("|---|---|---|---|---|---|---|")
    for m in metrics:
        key, lower = m["name"], m["better"] == "lower"
        if not all(key in r["metrics"] for r in parent + change):
            continue
        p = [r["metrics"][key]["value"] for r in parent]
        c = [r["metrics"][key]["value"] for r in change]
        pm, piqr = summary(p)
        cm, ciqr = summary(c)
        delta = (cm - pm) / pm * 100.0 if pm else float("nan")
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        print(f"| {key} ({m['unit']}) | {pm:.4g} | {piqr:.3g} | {cm:.4g} | {ciqr:.3g} "
              f"| {delta:+.1f}% | {won}/{len(p)} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
