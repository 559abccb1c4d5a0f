"""The benchmark's workloads and metrics, and the layer each metric measures.

`python3 perfbench/spec.py` writes BENCHMARK.json from this file; run.py
checks every result line it prints against it.
"""

import json
import pathlib

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 15

# Default seed, as in repro.benchlib.Fig3Harness, and a seed held out from
# tuning so that a later claim can be confirmed on data it was not tuned on.
DEFAULT_SEED = 42
HELD_OUT_SEED = 20231

# The engine runs single-threaded; Spark runs as local[min(4, nproc)].
WORKLOADS = [
    {"name": "intersect-sort",
     "why": "Fig. 3 sort plan, 2 x 1M rows, 100k rows memory: run generation, loser-tree merge, RunFile spill and the OVC merge join do the work"},
    {"name": "intersect-hash",
     "why": "Fig. 3 hash baseline on the same inputs: RunFile spills unsorted partitions twice; no loser tree, no OVC comparator"},
    {"name": "ordered-pipeline",
     "why": "RLE scan, filter, merge join, segmented sort and OVC group count over sorted tables: every order-preserving operator, no spill"},
]

# Runs only by hand (`run.py --workload spark-ovc`): with Spark's start-up,
# its runs do not fit the benchmark's time budget next to the others.
EXTRA_WORKLOADS = [
    {"name": "spark-ovc",
     "why": "the only workload that reaches repro.spark: OVC group count over an OvcStore and OVC intersect at SF 0.1"},
]

# Throughput is not gated: other tenants of the machine slow it down in
# episodes of seconds, by up to 2x, and its speed drifted by up to 1.7x
# within five minutes. Over sets of ten 15 s runs of one commit, input rows
# over the fastest rep spread (interquartile range over median) 0.08-0.29
# and set medians moved by up to 23 %, at or beyond the widest bound allowed
# (0.25). It is reported as the per-layer `plans.rows_per_s`; a speed claim
# needs paired runs of parent and change. setup_s is the median of 5
# set-ups. alloc_bytes_per_row is the median over the timed reps; it moves
# by up to 5 % when the JIT of one JVM removes allocations that of another
# keeps. The work counters repeat exactly for a seed and vary < 1 % across
# seeds. Spill and failure figures are 0 on some workloads, so they are
# per-layer metrics below; the result line's `failed` and `attempted` carry
# the failure share.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "alloc_bytes_per_row", "unit": "B/row", "better": "lower", "bound": 0.1},
    {"name": "column_accesses_per_row", "unit": "count/row", "better": "lower", "bound": 0.05},
]

# name, unit, the metric it should move (end-to-end, or the plan's
# throughput plans.rows_per_s), and on which workloads. Rates are better
# higher, everything else lower. Counts are per traced rep of the whole
# plan; "_per_row" divides by the workload's input rows. A workload that
# does not reach a layer reports 0.
PER_LAYER = [
    ("sort.rungen_s", "s", "plans.rows_per_s", "intersect-sort; unchanged on ordered-pipeline"),
    ("sort.rungen_code_cmps_per_row", "count/row", "plans.rows_per_s", "intersect-sort"),
    ("sort.rungen_col_cmps_per_row", "count/row", "plans.rows_per_s", "intersect-sort"),
    ("sort.rungen_alloc_bytes_per_row", "B/row", "alloc_bytes_per_row", "intersect-sort"),
    ("sort.merge_s", "s", "plans.rows_per_s", "intersect-sort"),
    ("sort.merge_code_cmps_per_row", "count/row", "plans.rows_per_s", "intersect-sort"),
    ("sort.merge_col_cmps_per_row", "count/row", "plans.rows_per_s", "intersect-sort"),
    ("sort.runs", "count", "plans.spill_bytes_per_row", "intersect-sort"),
    ("sort.merge_levels", "count", "plans.spill_bytes_per_row", "intersect-sort"),
    ("sort.spill_rows", "rows", "plans.spilled_rows_per_row", "intersect-sort"),
    ("sort.spill_bytes", "B", "plans.spill_bytes_per_row", "intersect-sort"),
    ("sort.runfile_write_s", "s", "plans.rows_per_s", "intersect-sort, intersect-hash"),
    ("sort.runfile_read_s", "s", "plans.rows_per_s", "intersect-sort, intersect-hash"),
    ("ops.merge_join_s", "s", "plans.rows_per_s", "intersect-sort, ordered-pipeline"),
    ("ops.merge_join_code_cmps", "count", "plans.rows_per_s", "intersect-sort, ordered-pipeline"),
    ("ops.merge_join_col_cmps", "count", "plans.rows_per_s", "intersect-sort, ordered-pipeline"),
    ("ops.rle_scan_s", "s", "plans.rows_per_s", "ordered-pipeline"),
    ("ops.filter_s", "s", "plans.rows_per_s", "ordered-pipeline"),
    ("ops.segmented_sort_s", "s", "plans.rows_per_s", "ordered-pipeline"),
    ("ops.segmented_sort_col_cmps", "count", "column_accesses_per_row", "ordered-pipeline"),
    ("ops.group_agg_s", "s", "plans.rows_per_s", "ordered-pipeline"),
    ("ops.group_agg_col_cmps", "count", "column_accesses_per_row", "ordered-pipeline; must stay 0"),
    ("hash.agg_build_s", "s", "plans.rows_per_s", "intersect-hash only"),
    ("hash.agg_drain_s", "s", "plans.rows_per_s", "intersect-hash only"),
    ("hash.agg_spill_rows", "rows", "plans.spilled_rows_per_row", "intersect-hash only"),
    ("hash.agg_spill_bytes", "B", "plans.spill_bytes_per_row", "intersect-hash only"),
    ("hash.join_s", "s", "plans.rows_per_s", "intersect-hash only"),
    ("hash.join_spill_rows", "rows", "plans.spilled_rows_per_row", "intersect-hash only"),
    ("hash.join_spill_bytes", "B", "plans.spill_bytes_per_row", "intersect-hash only"),
    ("hash.col_accesses_per_row", "count/row", "column_accesses_per_row", "intersect-hash only"),
    ("core.col_cmps_per_row_cmp", "count", "column_accesses_per_row", "intersect-sort, ordered-pipeline"),
    ("plans.spill_bytes_per_row", "B/row", "plans.rows_per_s", "intersect-sort, intersect-hash; Spark: task diskBytesSpilled"),
    ("plans.spilled_rows_per_row", "rows/row", "plans.rows_per_s", "intersect-sort, intersect-hash (Fig. 3's currency)"),
    ("plans.rows_per_s", "rows/s", "none; input rows over the fastest untraced rep", "all"),
    ("plans.failed_share", "fraction", "all; must stay 0", "all"),
    ("plans.trace_overhead", "ratio", "none; traced over untraced rep time", "all"),
    ("spark.group_count_s", "s", "plans.rows_per_s", "spark-ovc"),
    ("spark.intersect_s", "s", "plans.rows_per_s", "spark-ovc"),
    ("spark.task_s", "s", "plans.rows_per_s", "spark-ovc"),
    ("spark.task_gc_s", "s", "plans.rows_per_s", "spark-ovc"),
    ("spark.shuffle_bytes", "B", "plans.rows_per_s", "spark-ovc"),
    ("spark.native_group_count_s", "s", "none; drift reference", "spark-ovc"),
    ("spark.native_intersect_s", "s", "none; drift reference", "spark-ovc"),
    ("jvm.gc_s", "s", "plans.rows_per_s", "all"),
]


def benchmark_json():
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": "higher" if u == "rows/s" else "lower"}
                      for n, u, _, _ in PER_LAYER],
    }


def units(trace):
    """Metric name -> unit for a run with tracing on or off."""
    if trace:
        return {n: u for n, u, _, _ in PER_LAYER}
    return {m["name"]: m["unit"] for m in END_TO_END}


if __name__ == "__main__":
    out = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}")
