#!/usr/bin/env python3
"""Check that a freshly generated benchmark trajectory matches the
committed BENCH_experiments.json *schema*, and gate the work-based
numbers that are the same on every machine.

Timing values (throughput, latencies, retry counts) are
machine-dependent and may drift freely; the key structure may not. Keys
are compared recursively, including order — the experiments binary
emits them in a fixed order so committed files diff cleanly run over
run. Page counts are not timings: S1 runs single-threaded on a fixed
pool, so its page reads repeat exactly and are checked by value.

Usage: check_bench_schema.py <committed.json> <generated.json>
"""

import json
import sys


def key_tree(node):
    """The schema of a JSON node: nested keys in order, values erased."""
    if isinstance(node, dict):
        return [(k, key_tree(v)) for k, v in node.items()]
    if isinstance(node, list):
        return ["[]", [key_tree(v) for v in node]]
    return type(node).__name__


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    committed_path, generated_path = sys.argv[1], sys.argv[2]
    committed = json.load(open(committed_path))
    generated = json.load(open(generated_path))
    a, b = key_tree(committed), key_tree(generated)
    if a != b:
        print(f"schema drift between {committed_path} and {generated_path}:")
        print(f"  committed: {a}")
        print(f"  generated: {b}")
        print("regenerate the committed file with:")
        print("  cargo run --release -p pfe-bench --bin experiments -- "
              "--json BENCH_experiments.json")
        sys.exit(1)
    for section in ("s1_storage", "s2_concurrency", "s3_update"):
        if section not in generated:
            sys.exit(f"generated trajectory is missing section {section}")
        # Every section must report its per-statement latency
        # distribution (count + percentiles in microseconds).
        latency = generated[section].get("latency")
        if not isinstance(latency, dict):
            sys.exit(f"{section} is missing its latency object")
        expected = ["count", "p50_us", "p95_us", "p99_us"]
        if list(latency.keys()) != expected:
            sys.exit(
                f"{section}.latency keys {list(latency.keys())} != {expected}"
            )
        if latency["count"] <= 0:
            sys.exit(f"{section}.latency recorded no samples")
    # S1's indexed point reads under write churn: beside an uncommitted
    # writer an index read must stay an index read. Page reads are
    # machine-stable, so this is a value gate, not a schema check.
    s1 = generated["s1_storage"]
    for key in (
        "point_indexed_page_reads",
        "churn_point_reads",
        "churn_point_indexed_page_reads",
    ):
        if key not in s1:
            sys.exit(f"s1_storage is missing {key}")
    if s1["churn_point_indexed_page_reads"] > s1["point_indexed_page_reads"] + 1:
        sys.exit(
            "indexed point reads beside a writer cost "
            f"{s1['churn_point_indexed_page_reads']} page reads, "
            f"{s1['point_indexed_page_reads']} on a quiescent table: "
            "the index read fell off the index"
        )
    versioned = s1["engine_metrics"].get("versioned_index_reads", 0)
    if versioned < max(1, s1["churn_point_reads"]):
        sys.exit(
            f"only {versioned} of {s1['churn_point_reads']} churn-phase reads "
            "resolved through a view: the phase did not exercise versioned "
            "index reads"
        )
    # S2's mixed readers-vs-writers phase: snapshot readers are
    # lock-free by construction.
    mixed = generated["s2_concurrency"].get("mixed_readers")
    if not isinstance(mixed, dict):
        sys.exit("s2_concurrency is missing its mixed_readers object")
    for key in (
        "readers",
        "writers",
        "writer_txns_per_thread",
        "snapshot_scans_per_sec",
        "snapshot_reader_retries",
        "snapshot_lock_waits",
        "snapshot_write_stmts_per_sec",
    ):
        if key not in mixed:
            sys.exit(f"s2_concurrency.mixed_readers is missing {key}")
    if mixed["snapshot_reader_retries"] != 0:
        sys.exit("snapshot readers must never retry")
    if mixed["snapshot_lock_waits"] != 0:
        sys.exit("snapshot readers must never wait on locks")
    print(f"benchmark schema OK ({committed_path})")


if __name__ == "__main__":
    main()
