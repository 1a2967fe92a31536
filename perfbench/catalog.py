"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repository root carries the same names, units,
directions and bounds (``perfbench/smoke.py`` checks that the two agree).
This file adds what that schema has no room for: for every per-layer
metric, the end-to-end metric it should move and the workloads on which
it should move it, so an optimisation can state its prediction by name.
"""

#: name -> why the workload is in the benchmark.
WORKLOADS = {
    "single_static": (
        "Fig 7/8 read path at 1024 nodes: ~2-flow components, so engine "
        "dispatch, runner callbacks and resolve_read dominate; no Algorithm 1"
    ),
    "multi_input": (
        "Fig 9/10: 5120 three-input tasks on 512 nodes, the only workload "
        "running Algorithm 1 (~4x cost per node doubling) and placing 15,360 files"
    ),
    "ingest_dynamic": (
        "write-then-read lifecycle: 128-writer r=3 ingest chains pipelines "
        "into ~100-flow components (solve-bound), then Fig 11 master/worker reads"
    ),
}

#: (name, unit, better, bound as a share of the parent's median)
#: Timings are anchored seconds (see perfbench/run.py).  Over ten seeds
#: of 40 s runs on a shared 2-vCPU VM whose raw speed drifted by 15-20%
#: (quartile distance over median), their spread was 4-10%, so they get
#: the largest bound allowed.  The simulated outcomes are exact per seed
#: but differ between seeds: makespan_s by up to 9%, served_max_mb 4%,
#: io_speedup 4%, locality 0.5%.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("locality", "fraction", "higher", 0.05),
    ("io_speedup", "x", "higher", 0.15),
    ("served_max_mb", "MB", "lower", 0.2),
    ("makespan_s", "sim_s", "lower", 0.25),
)

ALL = "single_static, multi_input, ingest_dynamic"

#: (name, unit, better, end-to-end metric it should move, on which workloads)
PER_LAYER = (
    ("import.total_s", "s", "lower", "setup_s, wall_s", ALL + " (largest share: single_static)"),
    ("import.scipy_s", "s", "lower", "setup_s, wall_s", ALL),
    ("import.repro_self_s", "s", "lower", "setup_s, wall_s", ALL),
    ("dfs.setup_s", "s", "lower", "setup_s", "multi_input"),
    ("dfs.files_placed", "count", "lower", "setup_s", "multi_input"),
    ("dfs.resolve_read_s", "s", "lower", "run_s", "multi_input, single_static"),
    ("dfs.resolve_read_calls", "count", "lower", "run_s", "multi_input, single_static"),
    ("dfs.remote_fraction", "fraction", "lower", "run_s, io_speedup", "multi_input, single_static"),
    ("core.graph_s", "s", "lower", "run_s", "single_static"),
    ("core.graph_edges", "count", "lower", "run_s", "single_static"),
    ("core.graph_cache_hits", "count", "higher", "run_s", "single_static"),
    ("core.match_s", "s", "lower", "run_s", "multi_input, single_static"),
    ("core.augmentations", "count", "lower", "run_s", "single_static"),
    ("core.bfs_phases", "count", "lower", "run_s", "single_static"),
    ("core.proposals", "count", "lower", "run_s", "multi_input"),
    ("core.proposals_per_task", "count/task", "lower", "run_s", "multi_input"),
    ("core.reassignments", "count", "lower", "run_s", "multi_input"),
    ("core.next_task_s", "s", "lower", "run_s", "ingest_dynamic"),
    ("core.next_task_calls", "count", "lower", "run_s", "ingest_dynamic"),
    ("simulate.run_s", "s", "lower", "run_s", ALL),
    ("simulate.self_s", "s", "lower", "run_s", "single_static, multi_input"),
    ("simulate.events", "count", "lower", "run_s", "single_static, multi_input"),
    ("simulate.us_per_event", "us", "lower", "run_s", "single_static, multi_input"),
    ("simulate.event_loop_s", "s", "lower", "run_s", "single_static, multi_input"),
    ("simulate.cascade_events", "count", "higher", "run_s", "single_static, multi_input"),
    ("simulate.coalesced_events", "count", "higher", "run_s", "single_static, multi_input"),
    ("simulate.stale_pop_ratio", "fraction", "lower", "run_s", "single_static, multi_input"),
    ("simulate.solve_s", "s", "lower", "run_s", "ingest_dynamic (read half)"),
    ("simulate.settle_s", "s", "lower", "run_s", "ingest_dynamic (read half)"),
    ("simulate.scan_s", "s", "lower", "run_s", "ingest_dynamic (read half)"),
    ("simulate.component_solves", "count", "lower", "run_s", "ingest_dynamic (read half)"),
    ("simulate.component_size_mean", "flows", "lower", "run_s", "ingest_dynamic (read half)"),
    ("simulate.component_size_max", "flows", "lower", "run_s", "ingest_dynamic (read half)"),
    ("simulate.vectorized_solves", "count", "lower", "run_s", "ingest_dynamic (read half)"),
    ("simulate.memo_hit_ratio", "fraction", "higher", "run_s", "ingest_dynamic (read half)"),
    ("simulate.write.run_s", "s", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.events", "count", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.event_loop_s", "s", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.solve_s", "s", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.settle_s", "s", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.component_solves", "count", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.component_size_mean", "flows", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.component_size_max", "flows", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.vectorized_solves", "count", "lower", "run_s", "ingest_dynamic"),
    ("simulate.write.memo_hit_ratio", "fraction", "higher", "run_s", "ingest_dynamic"),
    ("trace.coverage", "fraction", "higher", "none: share of run_s inside layer spans", ALL),
    ("trace.overhead", "fraction", "lower", "none: traced over untraced run_s, minus 1", ALL),
)
