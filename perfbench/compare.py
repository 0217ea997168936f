#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py A.jsonl B.jsonl

A and B are files written by `perfbench/run.py --record FILE`, one JSON
line per run; A is the base (the parent commit), B the change. Run both
sides on the same seeds, one run per seed and side, alternating which
side runs first: runs are paired by seed, and the host's speed drifts
between runs. For every (workload, end-to-end metric) the medians and
quartiles over the runs of each side are printed side by side, and the
pair is marked against the metric's bound in BENCHMARK.json:

  improved    B wins at least nine tenths of the seed pairs (ties count
              for neither), and B's median is better than A's by more
              than A's own spread (q3 - q1 over the median);
  worse       B's median is worse than A's by more than the bound;
  unresolved  anything else: within the bound and not clearly better,
              or a spread wider than the bound (unless every B run reads
              better, or worse, than every A run).

Per-layer deltas (the --trace 1 runs) follow, without a verdict: the
per-layer metrics have no bound.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    runs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                runs.append(json.loads(line))
    return runs


def group(runs):
    """{(workload, trace): {metric: ({seed: value}, unit)}}"""
    out = {}
    for run in runs:
        key = (run["workload"], run["trace"])
        for name, m in run["metrics"].items():
            values, _ = out.setdefault(key, {}).setdefault(name, ({}, m["unit"]))
            values[run["seed"]] = m["value"]
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(by_seed_a, by_seed_b, bound, better):
    """improved / worse / unresolved for one (workload, metric) pair."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = [(x, by_seed_b[s]) for s, x in by_seed_a.items() if s in by_seed_b]
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    a, b = list(by_seed_a.values()), list(by_seed_b.values())
    _, ma, _ = quartiles(a)
    _, mb, _ = quartiles(b)
    gain = sign * (mb - ma) / abs(ma) if ma else 0.0
    all_better = min(sign * x for x in b) > max(sign * x for x in a)
    all_worse = max(sign * x for x in b) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not (all_better or all_worse):
        return "unresolved", gain
    if gain < -bound:
        return "worse", gain
    if pairs and wins >= 0.9 * len(pairs) and gain > spread(a):
        return "improved", gain
    return "unresolved", gain


def fmt(by_seed):
    values = list(by_seed.values())
    q1, med, q3 = quartiles(values)
    return f"{med:>12.5g} [{q1:.4g}..{q3:.4g}] n={len(values)}"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    layers = {m["name"]: m for m in bench["per_layer"]}
    a, b = group(load(sys.argv[1])), group(load(sys.argv[2]))

    print("end-to-end (median [q1..q3] over runs; gain is signed so + is better)")
    worse = 0
    for key in sorted(k for k in a if k[1] == 0):
        if key not in b:
            print(f"  {key[0]}: no runs in B")
            continue
        for name, spec in bounds.items():
            if name not in a[key] or name not in b[key]:
                continue
            (va, unit), (vb, _) = a[key][name], b[key][name]
            mark, gain = verdict(va, vb, spec["bound"], spec["better"])
            worse += mark == "worse"
            print(
                f"  {key[0]:<12} {name:<18} {unit:<5} A {fmt(va)}  B {fmt(vb)}  "
                f"{gain:+7.1%} (bound {spec['bound']:.0%})  {mark}"
            )

    print("\nper-layer (median over runs, B vs A)")
    for key in sorted(k for k in a if k[1] == 1):
        if key not in b:
            continue
        for name, spec in layers.items():
            if name not in a[key] or name not in b[key]:
                continue
            (va, unit), (vb, _) = a[key][name], b[key][name]
            ma, mb = statistics.median(va.values()), statistics.median(vb.values())
            delta = (mb - ma) / abs(ma) if ma else 0.0
            print(
                f"  {key[0]:<12} {name:<34} {unit:<6} A {ma:>12.5g}  B {mb:>12.5g}  "
                f"{delta:+7.1%}"
            )
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
