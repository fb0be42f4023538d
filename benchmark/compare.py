#!/usr/bin/env python3
"""Compare two benchmark result files against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py base.json new.json [--manifest BENCHMARK.json]

A result file is what `pfe-benchmark` (no `--workload`) writes:
`{"runs": [{"workload", "trace", "seed", "result": {...}}, ...], "claim": null}`.
Run it with `--repeat N` to get N seeds per workload; with fewer than four
runs a side has no quartiles and its spread counts as 0.

One row per workload x end-to-end metric: base median, new median, their
ratio, and a verdict:

  better      new median beats base by more than the bound
  within      new median is no worse than base by more than the bound
  worse       new median is worse than base by more than the bound
  unresolved  either side's inter-quartile spread is wider than the bound,
              so the runs cannot resolve a difference of that size

Exits 1 if any row is `worse`, 2 on unusable input, else 0.
"""

import argparse
import json
import statistics
import sys


def load_runs(path):
    """{workload: {metric: [values]}} from the untraced runs of one file."""
    with open(path) as f:
        doc = json.load(f)
    by_workload = {}
    for run in doc["runs"]:
        if run["trace"] != 0:
            continue
        result = run["result"]
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{path}: {run['workload']} seed {run['seed']} was not correct")
        metrics = by_workload.setdefault(run["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return by_workload


def spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 4:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, new, better, bound):
    base_med, new_med = statistics.median(base), statistics.median(new)
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if base_med == 0:
        return "within" if new_med == 0 else "unresolved"
    change = new_med / base_med - 1.0
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--manifest", default="BENCHMARK.json")
    args = parser.parse_args()

    try:
        with open(args.manifest) as f:
            manifest = json.load(f)
        base, new = load_runs(args.base), load_runs(args.new)
    except (OSError, KeyError, ValueError) as e:
        print(f"compare: {e}", file=sys.stderr)
        return 2

    print(f"{'workload':<14}{'metric':<20}{'base':>14}{'new':>14}{'new/base':>10}  verdict")
    worse = False
    for workload in (w["name"] for w in manifest["workloads"]):
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            b = base.get(workload, {}).get(name)
            n = new.get(workload, {}).get(name)
            if not b or not n:
                print(f"{workload:<14}{name:<20}{'-':>14}{'-':>14}{'-':>10}  missing")
                worse = True
                continue
            v = verdict(b, n, metric["better"], metric["bound"])
            worse |= v == "worse"
            b_med, n_med = statistics.median(b), statistics.median(n)
            ratio = f"{n_med / b_med:.3f}" if b_med else "-"
            print(f"{workload:<14}{name:<20}{b_med:>14.4f}{n_med:>14.4f}{ratio:>10}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
