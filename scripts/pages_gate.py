#!/usr/bin/env python3
"""Fail when a benchmark smoke run reads more pages per op than the baseline.

    python3 scripts/pages_gate.py BENCH_baseline_smoke.json new.json [--manifest BENCHMARK.json]

Both files are what `cargo run --release --offline --quiet --manifest-path
benchmark/Cargo.toml -- --smoke --out <file>` writes. On `paper_small` and
`paper_large`, `pages_per_op` is an exact work count: a single-threaded
replay of a seeded goal stream repeats it run to run and machine to machine,
so unlike the wall-clock metrics it can gate CI. The gate fails if either
workload's untraced `pages_per_op` rises over the baseline by more than the
metric's bound in BENCHMARK.json (a share of the baseline value).

Exits 1 on a rise past the bound, 2 on unusable input, else 0.
"""

import argparse
import json
import sys

GATED = ("paper_small", "paper_large")
METRIC = "pages_per_op"


def pages(path):
    """{workload: pages_per_op} from the untraced runs of one results file."""
    try:
        with open(path) as f:
            runs = json.load(f)["runs"]
    except (OSError, ValueError, KeyError) as e:
        raise SystemExit(f"{path}: {e}")
    found = {}
    for run in runs:
        if run["workload"] not in GATED or run["trace"] != 0:
            continue
        result = run["result"]
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{path}: {run['workload']} was not correct")
        found[run["workload"]] = result["metrics"][METRIC]["value"]
    missing = [w for w in GATED if w not in found]
    if missing:
        raise SystemExit(f"{path}: no untraced run of {', '.join(missing)}")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--manifest", default="BENCHMARK.json")
    args = parser.parse_args()
    try:
        with open(args.manifest) as f:
            metrics = json.load(f)["end_to_end"]
        bound = next(m["bound"] for m in metrics if m["name"] == METRIC)
    except (OSError, ValueError, KeyError, StopIteration) as e:
        print(f"{args.manifest}: no {METRIC} bound ({e})", file=sys.stderr)
        return 2
    try:
        base, new = pages(args.baseline), pages(args.new)
    except SystemExit as e:
        print(e, file=sys.stderr)
        return 2
    worse = False
    for workload in GATED:
        limit = base[workload] * (1 + bound)
        verdict = "worse" if new[workload] > limit else "ok"
        worse |= verdict == "worse"
        print(
            f"{workload:12} {METRIC} baseline {base[workload]:.3f} "
            f"new {new[workload]:.3f} limit {limit:.3f}  {verdict}"
        )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
