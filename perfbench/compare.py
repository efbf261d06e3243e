"""Compare two sets of benchmark results, such as a parent commit and a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that `run.py --out DIR` wrote.  Runs
are paired by workload, trace flag and seed.  For each metric it prints both
sides' median and quartiles, the change of the median, the pairs the change
won, and a verdict by the rules in README.md.  It refuses (exit 2) to compare
results measured with different Python, numpy, scipy, magpol kernel backend,
CPU or core count.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory):
    results = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".spans.json"):
            continue
        with open(path, encoding="utf-8") as handle:
            results.append(json.load(handle))
    if not results:
        raise SystemExit(f"error: no result files in {directory}")
    return results


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, wins, pairs, better, bound):
    """Gain, regression, unchanged or unresolved, for one metric and workload."""
    p1, p_med, p3 = summary(parent)
    c_med = statistics.median(change)
    worse = (c_med - p_med) if better == "lower" else (p_med - c_med)
    if pairs and wins >= 0.9 * pairs and -worse > (p3 - p1):
        return "gain"
    if bound is None:
        return "-"
    all_better = all(
        (c < p) if better == "lower" else (c > p) for c in change for p in parent
    )
    if p_med and (p3 - p1) / abs(p_med) > bound and not all_better:
        return "unresolved"
    if p_med and worse / abs(p_med) > bound:
        return "regression"
    return "unchanged"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(d) for d in argv)
    envs = {json.dumps(r["env"], sort_keys=True) for r in parent + change}
    if len(envs) > 1:
        print("error: results come from different environments; refusing to compare:", file=sys.stderr)
        for env in sorted(envs):
            print("  " + env, file=sys.stderr)
        return 2
    metrics = spec()
    groups = sorted({(r["workload"], r["trace"]) for r in parent + change})
    print(f"{'workload':9} {'metric':26} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} "
          f"{'median':>8} {'wins':>6}  verdict")
    for workload, trace in groups:
        side_p = {r["seed"]: r for r in parent if (r["workload"], r["trace"]) == (workload, trace)}
        side_c = {r["seed"]: r for r in change if (r["workload"], r["trace"]) == (workload, trace)}
        if not side_p or not side_c:
            continue
        names = next(iter(side_p.values()))["metrics"]
        for name in names:
            better = metrics.get(name, {}).get("better", "lower")
            bound = metrics.get(name, {}).get("bound")
            p_vals = [r["metrics"][name]["value"] for r in side_p.values()]
            c_vals = [r["metrics"][name]["value"] for r in side_c.values()]
            seeds = sorted(set(side_p) & set(side_c))
            wins = sum(
                (side_c[s]["metrics"][name]["value"] < side_p[s]["metrics"][name]["value"])
                if better == "lower"
                else (side_c[s]["metrics"][name]["value"] > side_p[s]["metrics"][name]["value"])
                for s in seeds
            )
            p_sum, c_sum = summary(p_vals), summary(c_vals)
            change_pct = (
                f"{(c_sum[1] - p_sum[1]) / abs(p_sum[1]) * 100:+.1f}%" if p_sum[1] else "n/a"
            )
            print(f"{workload:9} {name:26} {'/'.join(f'{v:.4g}' for v in p_sum):>32} "
                  f"{'/'.join(f'{v:.4g}' for v in c_sum):>32} {change_pct:>8} "
                  f"{wins:>2}/{len(seeds):<3}  {verdict(p_vals, c_vals, wins, len(seeds), better, bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
