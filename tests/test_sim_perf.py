"""Tests for the SimPerf instrumentation and its metrics wiring."""

import pytest

from repro.core import ProcessPlacement, rank_interval_assignment, tasks_from_dataset
from repro.dfs import ClusterSpec, DistributedFileSystem, uniform_dataset
from repro.dfs.chunk import MB
from repro.metrics import SimPerf, perf_summary, run_summary
from repro.simulate import Simulation
from repro.simulate.resources import Resource
from repro.simulate.runner import ParallelReadRun, StaticSource


def drain(sim):
    sim.run()


class TestEngineCounters:
    def test_flow_lifecycle_counts(self):
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        done = []
        sim.start_flow(50, ["r"], done.append)
        sim.start_flow(30, ["r"], done.append)
        cancelled = sim.start_flow(30, ["r"], done.append)
        sim.cancel_flow(cancelled)
        drain(sim)
        p = sim.perf
        assert p.flows_started == 3
        assert p.flows_finished == 2
        assert p.flows_cancelled == 1
        assert p.flow_events == 2
        assert p.events == sim.events_processed == 2

    def test_timer_events_counted(self):
        sim = Simulation()
        fired = []
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.schedule(2.0, lambda: fired.append(sim.now))
        drain(sim)
        assert sim.perf.timer_events == 2
        assert sim.perf.flow_events == 0

    def test_solves_and_heap_are_lazy(self):
        """Timer-only churn must not trigger re-solves or predictions."""
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        sim.start_flow(100, ["r"], lambda f: None)
        for i in range(5):
            sim.schedule(float(i + 1), lambda: None)
        drain(sim)
        # one initial solve, nothing dirtied until the flow completed
        assert sim.perf.solves == 2
        # the default (component) engine predicts per changed flow and
        # never rebuilds the full prediction set; pushes are bounded by
        # peeks (the tie-snap re-push), not flows x epochs
        assert sim.perf.prediction_rebuilds == 0
        assert 1 <= sim.perf.heap_pushes <= sim.perf.events + 2
        assert sim.perf.solve_iterations >= 1

    def test_cache_modes_rebuild_per_epoch(self):
        """The cache-scan engines rebuild predictions once per rate epoch."""
        for allocator in ("incremental", "reference"):
            sim = Simulation(allocator=allocator)
            sim.add_resource(Resource("r", 10.0))
            sim.start_flow(100, ["r"], lambda f: None)
            for i in range(5):
                sim.schedule(float(i + 1), lambda: None)
            drain(sim)
            assert sim.perf.prediction_rebuilds == 2
            assert sim.perf.heap_pushes == 0

    def test_deprecated_aliases_removed(self):
        """The pre-PR-4 alias names are gone from both API and snapshot."""
        p = SimPerf()
        assert not hasattr(p, "heap_rebuilds")
        assert not hasattr(p, "heap_pops")
        snap = p.snapshot()
        assert "heap_rebuilds" not in snap
        assert "heap_pops" not in snap
        assert "prediction_rebuilds" in snap
        assert "stale_pops" in snap
        assert "memo_hits" in snap
        assert "fastforward_cascades" in snap
        assert "cascade_events" in snap

    def test_wall_clocks_accumulate(self):
        sim = Simulation()
        sim.add_resource(Resource("r", 10.0))
        for i in range(10):
            # staggered sizes: completions are distinct events, so settle
            # passes run with live flows still present
            sim.start_flow(10.0 * (i + 1), ["r"], lambda f: None)
        drain(sim)
        assert sim.perf.solve_wall >= 0.0
        assert sim.perf.settles > 0
        assert sim.perf.flows_settled > 0

    def test_reset(self):
        p = SimPerf(solves=3, flow_events=7, solve_wall=1.5)
        p.reset()
        assert p == SimPerf()


class TestSnapshotAndSummary:
    def test_snapshot_is_json_ready(self):
        p = SimPerf(solves=2, flow_events=3, timer_events=1)
        snap = p.snapshot()
        assert snap["solves"] == 2
        assert all(isinstance(v, (int, float)) for v in snap.values())

    def test_perf_summary_derived_ratios(self):
        p = SimPerf(solves=4, solve_iterations=10, flow_events=6, timer_events=2)
        s = perf_summary(p)
        assert s["events"] == 8
        assert s["iterations_per_solve"] == pytest.approx(2.5)
        assert s["solves_per_event"] == pytest.approx(0.5)

    def test_perf_summary_accepts_plain_dict(self):
        s = perf_summary({"solves": 0, "flow_events": 0, "timer_events": 0})
        assert s["iterations_per_solve"] == 0.0
        assert s["solves_per_event"] == 0.0


class TestRunnerWiring:
    def test_run_result_carries_sim_perf(self):
        spec = ClusterSpec.homogeneous(4, seek_latency=0.0, remote_latency=0.0)
        fs = DistributedFileSystem(spec, replication=2, seed=8)
        ds = uniform_dataset("d", 8, chunk_size=10 * MB)
        fs.put_dataset(ds)
        result = ParallelReadRun(
            fs,
            ProcessPlacement.one_per_node(4),
            tasks_from_dataset(ds),
            StaticSource(rank_interval_assignment(8, 4)),
        ).run()
        assert result.sim_perf is not None
        assert result.sim_perf["flows_finished"] >= 8
        assert result.sim_perf["solves"] > 0
        summary = run_summary(result)
        assert summary["sim_perf"]["events"] > 0


def test_large_lowerings_are_first_sightings_plus_splits():
    """A large component is lowered into its flat form when first solved
    large and again only after it splits — never per event.

    The expectation is derived from outside the allocator: after every
    solve, each re-solved component of at least ``VECTOR_MIN_FLOWS``
    flows either continues the one its id named at its previous large
    solve (no lowering), or is new / was solved small in between (a
    first sighting), or lost surviving flows to another component (a
    split).  A return to per-event re-lowering fails on the count.
    """
    from repro.dfs import HdfsWriterLocalPlacement
    from repro.simulate import DatasetIngest
    from repro.simulate.vectorized import VECTOR_MIN_FLOWS

    fs = DistributedFileSystem(
        ClusterSpec.homogeneous(64), replication=3,
        placement=HdfsWriterLocalPlacement(), seed=0,
    )
    ing = DatasetIngest(
        fs, ProcessPlacement.one_per_node(64), uniform_dataset("ing", 640),
        seed=0,
    )
    alloc = ing.sim._calloc
    last_large: dict[int, set] = {}
    first = splits = 0
    solve = alloc.solve

    def observed_solve(out=None):
        nonlocal first, splits
        result = solve(out=out)
        flow_at = {fid: f for f, fid in alloc._id_of.items()}
        solved: dict[int, list] = {}
        for fid in alloc.last_changed:
            f = flow_at[fid]
            solved.setdefault(alloc._comp_of[f], []).append(f)
        for cid, members in solved.items():
            if len(members) < VECTOR_MIN_FLOWS:
                last_large.pop(cid, None)
                continue
            prev = last_large.get(cid)
            if prev is None:
                first += 1
            elif any(alloc._comp_of.get(f, cid) != cid for f in prev):
                splits += 1
            last_large[cid] = set(members)
        return result

    alloc.solve = observed_solve
    ing.run()
    perf = ing.sim.perf
    assert first >= 1 and splits >= 1
    assert perf.large_lowerings == first + splits
    assert perf.large_lowerings * 100 < perf.vectorized_solves
    assert perf.snapshot()["large_lowerings"] == perf.large_lowerings
