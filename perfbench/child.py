"""One cold-start run of one benchmark workload, in a fresh interpreter.

``perfbench/run.py`` launches this file once per sample, so every sample
pays what a user running ``opass figure`` pays: interpreter start,
``import repro`` (numpy, scipy), DFS set-up, scheduling and simulation,
with the module-level locality-graph cache empty.

The child writes one JSON object on its last stdout line: its set-up,
run and whole times, counted from the parent's ``time.monotonic()`` just
before the spawn (``--spawned-at``; the clock is system-wide), its peak
RSS, the simulated outcome of the Opass arm,
the correctness tally, a digest of every arm's read/write records and,
with ``--trace 1``, per-layer spans and counters.

Tracing never touches the timed path of an untraced child: spans are
no-ops unless ``--trace 1``, and the two hot-path wrappers
(``DistributedFileSystem.resolve_read`` and the task source's
``next_task``) are installed on the instances only when tracing.
"""

import time

T_START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import contextmanager  # noqa: E402

#: The checkout's own sources; the benchmark never measures an installed copy.
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

#: Workload shapes.  ``full`` is what the benchmark measures; ``tiny`` is
#: the smoke-test scale (same code paths, a few hundred chunks).
SCALES = {
    "full": {
        "single_static": {"nodes": 1024, "chunks_per_process": 10},
        "multi_input": {"nodes": 512, "tasks": 5120, "sizes_mb": (30, 20, 10)},
        "ingest_dynamic": {
            "nodes": 128, "chunks": 1280, "replication": 3,
            "compute_mean": 0.3, "compute_cv": 0.8,
        },
    },
    "tiny": {
        "single_static": {"nodes": 32, "chunks_per_process": 10},
        "multi_input": {"nodes": 32, "tasks": 320, "sizes_mb": (30, 20, 10)},
        "ingest_dynamic": {
            "nodes": 16, "chunks": 160, "replication": 3,
            "compute_mean": 0.3, "compute_cv": 0.8,
        },
    },
}

MB = 1e6


class Tracer:
    """In-memory spans and hot-call aggregates for one traced run.

    A span is ``(name, parent index, start, end)``; spans nest through a
    stack, so a span's parent is the span open when it began.  Calls too
    frequent for one span each (``resolve_read``, ``next_task``) are
    aggregated per name as a call count and total seconds.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, int, float, float]] = []
        self.calls: dict[str, list] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, parent, time.perf_counter(), 0.0))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            name, parent, start, _ = self.spans[idx]
            self.spans[idx] = (name, parent, start, time.perf_counter())

    def wrap(self, obj, attr: str, name: str) -> None:
        """Time every call of ``obj.attr`` (an instance's bound method)."""
        if not self.enabled:
            return
        inner = getattr(obj, attr)
        acc = self.calls.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def timed(*args):
            t = clock()
            out = inner(*args)
            acc[1] += clock() - t
            acc[0] += 1
            return out

        setattr(obj, attr, timed)

    def total(self, name: str) -> float:
        return sum(end - start for n, _, start, end in self.spans if n == name)

    def top_level_total(self, within: str) -> float:
        """Summed duration of the direct children of the ``within`` spans."""
        roots = {i for i, s in enumerate(self.spans) if s[0] == within}
        return sum(e - s for _, p, s, e in self.spans if p in roots)


# -- correctness checks ---------------------------------------------------------


def check_read_arm(arm: dict) -> tuple[int, int, list[str]]:
    """Check one read arm; returns (chunk reads attempted, failed, problems).

    A read fails when its (task, chunk) pair is read other than exactly
    once, is not an input of the workload, or mislabels its locality.  An
    arm-wide violation (tasks completed, byte totals, assignment cover)
    fails every read of the arm.
    """
    result, tasks = arm["result"], arm["tasks"]
    expected: dict[tuple, int] = {}
    for task in tasks:
        for cid in task.inputs:
            expected[(task.task_id, cid)] = arm["sizes"][cid]
    attempted = len(expected)
    seen = Counter((r.task_id, r.chunk) for r in result.records)
    failed = sum(1 for key in expected if seen.get(key, 0) != 1)
    failed += sum(n for key, n in seen.items() if key not in expected)
    failed += sum(
        1 for r in result.records if r.local != (r.server_node == r.reader_node)
    )
    problems = []
    total = sum(expected.values())
    if result.tasks_completed != len(tasks):
        problems.append(f"{result.tasks_completed} of {len(tasks)} tasks completed")
    if result.local_bytes + result.remote_bytes != total:
        problems.append("local + remote bytes != bytes read")
    if sum(result.bytes_served.values()) != total:
        problems.append("served bytes != bytes read")
    assignment = arm.get("assignment")
    if assignment is not None:
        covered = sorted(t for ts in assignment.tasks_of.values() for t in ts)
        if covered != list(range(len(tasks))):
            problems.append("assignment does not cover each task once")
    if problems:
        failed = attempted
    elif failed:
        problems.append(f"{failed} chunk reads not exactly once")
    return attempted, failed, problems


def check_write(ingest, dataset, fs, replication: int) -> tuple[int, int, list[str]]:
    """Every chunk written once, to ``replication`` distinct DataNodes,
    and registered at exactly those nodes."""
    chunks = {c.id: c.size for c in dataset.iter_chunks()}
    layout = fs.layout_snapshot()
    seen = Counter(r.chunk for r in ingest.records)
    failed = sum(1 for cid in chunks if seen.get(cid, 0) != 1)
    failed += sum(n for cid, n in seen.items() if cid not in chunks)
    for r in ingest.records:
        if len(set(r.pipeline)) != replication or len(r.pipeline) != replication:
            failed += 1
        elif set(layout.get(r.chunk, ())) != set(r.pipeline):
            failed += 1
    problems = [f"{failed} chunk writes bad"] if failed else []
    if ingest.bytes_written != sum(chunks.values()):
        problems.append("bytes written != dataset bytes")
        failed = len(chunks)
    return len(chunks), failed, problems


def read_digest(result) -> str:
    h = hashlib.sha256()
    for r in result.records:
        h.update(
            f"{r.seq},{r.rank},{r.task_id},{r.chunk.file},{r.chunk.index},"
            f"{r.server_node},{r.reader_node},{r.issue_time.hex()},"
            f"{r.end_time.hex()};".encode()
        )
    return h.hexdigest()[:16]


def write_digest(ingest) -> str:
    h = hashlib.sha256()
    for r in ingest.records:
        h.update(
            f"{r.seq},{r.writer_rank},{r.chunk.file},{r.chunk.index},"
            f"{r.pipeline},{r.issue_time.hex()},{r.end_time.hex()};".encode()
        )
    return h.hexdigest()[:16]


# -- workloads ------------------------------------------------------------------
#
# Each workload returns ``(out, t_setup_done, t_run_done)`` where ``out``
# holds its arms.  Scheduling goes through the core layer's public
# functions and execution through ``ParallelReadRun`` / ``DatasetIngest``
# / ``run_master_worker``, the same calls the ``repro.experiments``
# drivers make, so a span sits around each call into a layer.


def _static_arm(fs, placement, tasks, assignment, seed, tracer, sizes):
    from repro.simulate import ParallelReadRun, StaticSource

    source = StaticSource(assignment)
    tracer.wrap(source, "next_task", "core.next_task")
    with tracer.span("simulate.run"):
        result = ParallelReadRun(fs, placement, tasks, source, seed=seed).run()
    return {"result": result, "tasks": tasks, "assignment": assignment,
            "sizes": sizes}


def _static_comparison(nodes, datasets, tasks, match, seed, tracer, perf):
    """Rank-interval baseline, then an Opass matching, on one layout."""
    from repro.core import (
        ProcessPlacement, graph_from_filesystem, rank_interval_assignment,
    )
    from repro.dfs import ClusterSpec, DistributedFileSystem

    with tracer.span("dfs.setup"):
        fs = DistributedFileSystem(ClusterSpec.homogeneous(nodes), seed=seed)
        for ds in datasets:
            fs.put_dataset(ds)
    t_setup = time.monotonic()
    tracer.wrap(fs, "resolve_read", "dfs.resolve_read")
    placement = ProcessPlacement.one_per_node(nodes)
    sizes = {c.id: c.size for ds in datasets for c in ds.iter_chunks()}
    with tracer.span("run"):
        with tracer.span("core.match"):
            baseline = rank_interval_assignment(len(tasks), nodes)
        base = _static_arm(fs, placement, tasks, baseline, seed, tracer, sizes)
        with tracer.span("core.graph"):
            graph = graph_from_filesystem(fs, tasks, placement, perf=perf)
        cold = _graph_cache_cold()
        with tracer.span("core.match"):
            matched = match(graph)
        opass = _static_arm(
            fs, placement, tasks, matched.assignment, seed, tracer, sizes
        )
    t_run = time.monotonic()
    out = {"arms": {"base": base, "opass": opass}, "cold": cold,
           "files_placed": sum(len(ds.files) for ds in datasets)}
    return out, matched, t_setup, t_run


def single_static(cfg, seed, tracer, perf):
    from repro.core import optimize_single_data, tasks_from_dataset
    from repro.workloads.generators import single_data_workload

    data = single_data_workload(cfg["nodes"], cfg["chunks_per_process"])
    out, _, t_setup, t_run = _static_comparison(
        cfg["nodes"], [data], tasks_from_dataset(data),
        lambda graph: optimize_single_data(graph, seed=seed, perf=perf),
        seed, tracer, perf,
    )
    return out, t_setup, t_run


def multi_input(cfg, seed, tracer, perf):
    from repro.core import optimize_multi_data, tasks_from_datasets
    from repro.workloads.generators import multi_input_datasets

    datasets = multi_input_datasets(cfg["tasks"], input_sizes_mb=cfg["sizes_mb"])
    out, matched, t_setup, t_run = _static_comparison(
        cfg["nodes"], datasets, tasks_from_datasets(datasets),
        lambda graph: optimize_multi_data(graph, perf=perf),
        seed, tracer, perf,
    )
    out["proposals"] = matched.proposals
    out["reassignments"] = matched.reassignments
    return out, t_setup, t_run


def ingest_dynamic(cfg, seed, tracer, perf):
    from repro.core import (
        DefaultDynamicPolicy, ProcessPlacement, graph_from_filesystem,
        optimize_single_data, plan_dynamic, tasks_from_dataset,
    )
    from repro.dfs import (
        ClusterSpec, DistributedFileSystem, HdfsWriterLocalPlacement,
        uniform_dataset,
    )
    from repro.parallel.master_worker import (
        irregular_compute_model, run_master_worker,
    )
    from repro.simulate import DatasetIngest
    nodes, r = cfg["nodes"], cfg["replication"]
    with tracer.span("dfs.setup"):
        fs = DistributedFileSystem(
            ClusterSpec.homogeneous(nodes), replication=r,
            placement=HdfsWriterLocalPlacement(), seed=seed,
        )
        data = uniform_dataset("ingest", cfg["chunks"])
    t_setup = time.monotonic()
    writers = ProcessPlacement.one_per_node(nodes)
    fleet = ProcessPlacement(tuple(range(0, nodes, 2)))
    sizes = {c.id: c.size for c in data.iter_chunks()}
    arms = {}
    with tracer.span("run"):
        with tracer.span("simulate.write"):
            ingest_run = DatasetIngest(fs, writers, data, seed=seed)
            ingest = ingest_run.run()
        tracer.wrap(fs, "resolve_read", "dfs.resolve_read")
        tasks = tasks_from_dataset(fs.dataset("ingest"))
        cold = True
        for name in ("base", "opass"):
            fs.reset_counters()
            if name == "opass":
                with tracer.span("core.graph"):
                    graph = graph_from_filesystem(fs, tasks, fleet, perf=perf)
                cold = _graph_cache_cold()
                with tracer.span("core.match"):
                    matched = optimize_single_data(graph, seed=0, perf=perf)
                    policy = plan_dynamic(graph, matched.assignment)
            else:
                with tracer.span("core.match"):
                    policy = DefaultDynamicPolicy(len(tasks), mode="random", seed=seed + 1)
            tracer.wrap(policy, "next_task", "core.next_task")
            compute = irregular_compute_model(
                cfg["compute_mean"], cv=cfg["compute_cv"], seed=seed + 2
            )
            with tracer.span("simulate.run"):
                outcome = run_master_worker(
                    fs, fleet, tasks, policy, compute_time=compute, seed=seed
                )
            arms[name] = {"result": outcome.result, "tasks": tasks, "sizes": sizes}
    t_run = time.monotonic()
    out = {"arms": arms, "cold": cold, "files_placed": len(data.files),
           "write": {"ingest": ingest, "dataset": data, "fs": fs, "replication": r},
           "write_perf": ingest_run.sim.perf.snapshot()}
    return out, t_setup, t_run


def _graph_cache_cold() -> bool:
    """True when the first locality-graph request of this process was a
    miss: a timed run must build its graph, not replay a cached one."""
    from repro.core.bipartite import graph_cache_stats

    stats = graph_cache_stats()
    return stats["hits"] == 0 and stats["misses"] == 1


WORKLOADS = {
    "single_static": single_static,
    "multi_input": multi_input,
    "ingest_dynamic": ingest_dynamic,
}


# -- per-layer metrics ------------------------------------------------------------


def _sum_perf(snaps: list[dict]) -> dict:
    keys = ("flow_events", "timer_events", "run_wall", "event_loop_wall",
            "cascade_events", "coalesced_events", "stale_pops", "heap_pushes",
            "solve_wall", "settle_wall", "scan_wall", "component_solves",
            "component_flows_resolved", "vectorized_solves", "memo_hits")
    total = {k: sum(s[k] for s in snaps) for k in keys}
    total["component_size_max"] = max(
        (s["component_size_max"] for s in snaps), default=0
    )
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _sim_metrics(prefix: str, p: dict) -> dict:
    events = p["flow_events"] + p["timer_events"]
    return {
        f"{prefix}events": events,
        f"{prefix}event_loop_s": p["event_loop_wall"],
        f"{prefix}solve_s": p["solve_wall"],
        f"{prefix}settle_s": p["settle_wall"],
        f"{prefix}component_solves": p["component_solves"],
        f"{prefix}component_size_mean": _ratio(
            p["component_flows_resolved"], p["component_solves"]
        ),
        f"{prefix}component_size_max": p["component_size_max"],
        f"{prefix}vectorized_solves": p["vectorized_solves"],
        f"{prefix}memo_hit_ratio": _ratio(p["memo_hits"], p["component_solves"]),
    }


def layer_metrics(out: dict, tracer: Tracer, perf) -> dict:
    """Per-layer numbers of one traced run (import metrics come from the
    parent's separate ``-X importtime`` probe)."""
    arms = list(out["arms"].values())
    read = _sum_perf([a["result"].sim_perf for a in arms])
    records = [r for a in arms for r in a["result"].records]
    rr_calls, rr_s = tracer.calls.get("dfs.resolve_read", [0, 0.0])
    nt_calls, nt_s = tracer.calls.get("core.next_task", [0, 0.0])
    sim_run = tracer.total("simulate.run")
    run = tracer.total("run")
    events = read["flow_events"] + read["timer_events"]
    m = {
        "dfs.setup_s": tracer.total("dfs.setup"),
        "dfs.files_placed": out["files_placed"],
        "dfs.resolve_read_s": rr_s,
        "dfs.resolve_read_calls": rr_calls,
        "dfs.remote_fraction": _ratio(sum(not r.local for r in records), len(records)),
        "core.graph_s": tracer.total("core.graph"),
        "core.graph_edges": perf.graph_edges,
        "core.graph_cache_hits": perf.cache_hits,
        "core.match_s": tracer.total("core.match"),
        "core.augmentations": perf.augmentations,
        "core.bfs_phases": perf.bfs_phases,
        "core.proposals": out.get("proposals", 0),
        "core.proposals_per_task": _ratio(
            out.get("proposals", 0), len(arms[0]["tasks"])
        ),
        "core.reassignments": out.get("reassignments", 0),
        "core.next_task_s": nt_s,
        "core.next_task_calls": nt_calls,
        "simulate.run_s": sim_run,
        "simulate.self_s": sim_run - rr_s - nt_s,
        "simulate.us_per_event": _ratio(read["run_wall"], events) * 1e6,
        "simulate.cascade_events": read["cascade_events"],
        "simulate.coalesced_events": read["coalesced_events"],
        "simulate.stale_pop_ratio": _ratio(read["stale_pops"], read["heap_pushes"]),
        "simulate.scan_s": read["scan_wall"],
        "simulate.write.run_s": tracer.total("simulate.write"),
        "trace.coverage": _ratio(tracer.top_level_total("run"), run),
    }
    m.update(_sim_metrics("simulate.", read))
    write = _sum_perf([out["write_perf"]] if "write_perf" in out else [])
    m.update(_sim_metrics("simulate.write.", write))
    return m


# -- entry point -------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=sorted(SCALES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="parent's time.monotonic() just before spawning")
    args = ap.parse_args()
    spawned = T_START if args.spawned_at is None else args.spawned_at

    tracer = Tracer(bool(args.trace))
    perf = None
    if args.trace:
        from repro.core.perf import SchedPerf

        perf = SchedPerf()
    cfg = SCALES[args.scale][args.workload]
    out, t_setup, t_run = WORKLOADS[args.workload](cfg, args.seed, tracer, perf)

    attempted = failed = 0
    problems: list[str] = []
    digests = {}
    for name, arm in out["arms"].items():
        a, f, p = check_read_arm(arm)
        attempted, failed = attempted + a, failed + f
        problems += [f"{name}: {x}" for x in p]
        digests[name] = read_digest(arm["result"])
    if "write" in out:
        a, f, p = check_write(**out["write"])
        attempted, failed = attempted + a, failed + f
        problems += [f"write: {x}" for x in p]
        digests["write"] = write_digest(out["write"]["ingest"])
    if not out["cold"]:
        problems.append("first locality-graph request was a cache hit")

    base, opass = out["arms"]["base"]["result"], out["arms"]["opass"]["result"]
    base_avg, opass_avg = base.io_stats()["avg"], opass.io_stats()["avg"]
    sim = {
        "locality": opass.locality_fraction,
        "io_speedup": base_avg / opass_avg,
        "served_max_mb": max(opass.bytes_served.values()) / MB,
        "makespan_s": opass.makespan,
    }
    layers = layer_metrics(out, tracer, perf) if args.trace else None
    t_end = time.monotonic()
    record = {
        "setup_s": t_setup - spawned,
        "run_s": t_run - t_setup,
        "wall_s": t_end - spawned,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sim": sim,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "layers": layers,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
