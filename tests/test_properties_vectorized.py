"""Differential fuzz: flat/vectorized water-filling kernels vs the reference.

The kernels in ``repro.simulate.vectorized`` claim *bit-for-bit* equality
with ``allocate_rates`` run on the same component — not approximate
equality.  Every test here asserts ``==`` on the raw floats (and equality
of iteration counts), across the regimes where float rounding could
plausibly diverge: rate-capped flows frozen in the 1e-12 cap window,
components engineered to produce float ties, singleton components (the
closed-form path), resources at the concurrency threshold, and sizes
straddling the scalar/numpy dispatch cutoff.  The numpy kernel runs only
on the flat form a ``ComponentAllocator`` keeps for a large component, so
flow sets of ``VECTOR_MIN_FLOWS`` or more go through a fresh
``kernel="auto"`` allocator, checked against a ``kernel="reference"`` one.

A second group pins the allocator-level contract: a
``ComponentAllocator(kernel="auto")`` tracks ``kernel="reference"``
exactly through add/remove churn.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.simulate.components import ComponentAllocator
from repro.simulate.flows import Flow, allocate_rates
from repro.simulate.resources import Resource
from repro.simulate.vectorized import (
    VECTOR_MIN_FLOWS,
    res_entry,
    solve_pair,
    solve_single,
    solve_small,
)


def _res_caps(resources):
    return {name: res_entry(r) for name, r in resources.items()}


def _kernel_rates(flows, resources):
    """Rates + iterations via the allocator's small-component dispatch."""
    res_caps = _res_caps(resources)
    if len(flows) == 1:
        return [solve_single(flows[0], res_caps)], 1
    if len(flows) == 2:
        return solve_pair(flows[0], flows[1], res_caps)
    return solve_small(flows, res_caps)


def _reference_rates(flows, resources):
    stats: dict[str, int] = {}
    rates = allocate_rates(flows, resources, stats=stats)
    return [rates[f] for f in flows], stats["iterations"]


def _allocator_rates(flows, resources, kernel):
    """Rates, iterations and numpy-kernel solves of a fresh allocator
    holding ``flows``.

    The allocator splits a disconnected flow set into its components, so
    large sets are compared allocator against allocator: ``kernel="auto"``
    runs every component of ``VECTOR_MIN_FLOWS`` flows or more on the
    numpy kernel over its flat form, ``kernel="reference"`` runs
    ``allocate_rates`` per component.
    """
    alloc = ComponentAllocator(kernel=kernel)
    for name, r in resources.items():
        alloc.register(name, r)
    for f in flows:
        alloc.add(f)
    rates = alloc.solve()
    return [rates[f] for f in flows], alloc.last_iterations, alloc.last_vectorized_solves


def _assert_identical(flows, resources):
    if len(flows) < VECTOR_MIN_FLOWS:
        got, got_iters = _kernel_rates(flows, resources)
        want, want_iters = _reference_rates(flows, resources)
    else:
        got, got_iters, vectorized = _allocator_rates(flows, resources, "auto")
        want, want_iters, _ = _allocator_rates(flows, resources, "reference")
        assert vectorized > 0
    assert got == want
    assert got_iters == want_iters


def _random_component(rng: random.Random, nflows: int):
    """A connected random flow set over shared resources."""
    nres = rng.randint(1, max(1, nflows))
    resources = {}
    for i in range(nres):
        if rng.random() < 0.3:
            resources[f"r{i}"] = rng.choice([1.0, 10.0, 100e6, 1e9])
        else:
            resources[f"r{i}"] = Resource(
                name=f"r{i}",
                capacity=rng.choice([1.0, 3.0, 10.0, 125e6, 1e9]),
                concurrency_penalty=rng.choice([0.0, 0.02, 0.1, 1.0]),
            )
    names = list(resources)
    flows = []
    for _ in range(nflows):
        path = tuple(rng.sample(names, rng.randint(1, min(4, nres))))
        cap = None
        if rng.random() < 0.4:
            cap = rng.choice([0.5, 1.0, 2.0, 100e6, 1e9, 5e9])
        flows.append(Flow(size=1.0, path=path, rate_cap=cap))
    return flows, resources


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_matches_reference_bitwise(seed):
    rng = random.Random(seed)
    nflows = rng.randint(1, 3 * VECTOR_MIN_FLOWS)
    flows, resources = _random_component(rng, nflows)
    _assert_identical(flows, resources)


@pytest.mark.parametrize("nflows", [1, 2, VECTOR_MIN_FLOWS - 1, VECTOR_MIN_FLOWS, 2 * VECTOR_MIN_FLOWS])
def test_dispatch_cutoff_straddle(nflows):
    """Both sides of the scalar/numpy cutoff agree with the reference."""
    rng = random.Random(nflows)
    flows, resources = _random_component(rng, nflows)
    _assert_identical(flows, resources)


@pytest.mark.parametrize("seed", range(25))
def test_pair_kernel_fuzz(seed):
    """Two-flow components: shared, disjoint, capped, tied, degenerate."""
    rng = random.Random(9000 + seed)
    flows, resources = _random_component(rng, 2)
    _assert_identical(flows, resources)


def test_single_flow_closed_form():
    resources = {
        "d": Resource(name="d", capacity=80e6, concurrency_penalty=0.05),
        "t": 125e6,
    }
    f_uncapped = Flow(size=1.0, path=("d", "t"))
    f_capped = Flow(size=1.0, path=("d", "t"), rate_cap=10e6)
    f_cap_at_min = Flow(size=1.0, path=("d", "t"), rate_cap=80e6)
    for f in (f_uncapped, f_capped, f_cap_at_min):
        _assert_identical([f], resources)
    assert solve_single(f_uncapped, _res_caps(resources)) == 80e6
    assert solve_single(f_capped, _res_caps(resources)) == 10e6
    assert solve_single(f_cap_at_min, _res_caps(resources)) == 80e6


def test_rate_caps_in_freeze_window():
    """Caps exactly at, just inside, and just outside the 1e-12 window."""
    resources = {"d": 10.0}
    base = 10.0 / 4  # fair share of four flows on one resource
    for cap in (base, base - 1e-13, base - 1e-11, base + 1e-11, 1.0, 9.0):
        flows = [Flow(size=1.0, path=("d",), rate_cap=cap)] + [
            Flow(size=1.0, path=("d",)) for _ in range(3)
        ]
        _assert_identical(flows, resources)


def test_float_tie_components():
    """Equal fair shares on parallel resources freeze identically."""
    # Two disks with identical capacity, shared uplink: every flow's
    # bottleneck computes to the same float level.
    resources = {
        "d0": Resource(name="d0", capacity=7.0, concurrency_penalty=0.1),
        "d1": Resource(name="d1", capacity=7.0, concurrency_penalty=0.1),
        "up": 100.0,
    }
    flows = [Flow(size=1.0, path=(d, "up")) for d in ("d0", "d1") for _ in range(5)]
    _assert_identical(flows, resources)
    # Identical rate caps: the stable sort order must match.
    flows = [Flow(size=1.0, path=("up",), rate_cap=3.0) for _ in range(6)]
    _assert_identical(flows, resources)


def test_resources_at_concurrency_threshold():
    """k == 1 vs k == 2 straddles the effective-capacity branch."""
    resources = {
        "d": Resource(name="d", capacity=50.0, concurrency_penalty=0.25),
        "e": Resource(name="e", capacity=50.0, concurrency_penalty=0.25),
    }
    _assert_identical([Flow(size=1.0, path=("d",))], resources)
    _assert_identical(
        [Flow(size=1.0, path=("d",)), Flow(size=1.0, path=("d", "e"))], resources
    )


def test_large_vectorized_component():
    """A big dense component exercises repeated numpy iterations."""
    rng = random.Random(1234)
    nres = 20
    resources = {
        f"r{i}": Resource(
            name=f"r{i}",
            capacity=rng.choice([10.0, 20.0, 40.0]),
            concurrency_penalty=0.05,
        )
        for i in range(nres)
    }
    names = list(resources)
    flows = [
        Flow(
            size=1.0,
            path=tuple(rng.sample(names, 3)),
            rate_cap=rng.choice([None, 0.3, 1.0, 4.0]),
        )
        for _ in range(200)
    ]
    _assert_identical(flows, resources)


def test_underflow_fallback_freezes_all():
    """Degenerate capacities hit the no-freeze guard identically."""
    tiny = 5e-324  # smallest subnormal: delta underflows to 0 after a freeze
    resources = {"a": tiny, "b": 1.0}
    flows = [
        Flow(size=1.0, path=("a", "b")),
        Flow(size=1.0, path=("b",), rate_cap=1e-320),
        Flow(size=1.0, path=("b",)),
    ]
    _assert_identical(flows, resources)


# -- allocator-level differential -------------------------------------------


def _random_resources(rng: random.Random, n: int):
    out = {}
    for i in range(n):
        out[f"r{i}"] = Resource(
            name=f"r{i}",
            capacity=rng.choice([1.0, 5.0, 80e6, 125e6]),
            concurrency_penalty=rng.choice([0.0, 0.05, 0.5]),
        )
    return out


def _pipeline_resources(rng: random.Random, nodes: int):
    """Per-node disk / NIC-out / NIC-in resources (``3 * nodes`` of them)."""
    out = {}
    for n in range(nodes):
        for kind, cap in (("disk", 80e6), ("tx", 125e6), ("rx", 125e6)):
            name = f"{kind}{n}"
            out[name] = Resource(
                name=name,
                capacity=cap * rng.choice([1.0, 1.0, 0.5]),
                concurrency_penalty=rng.choice([0.0, 0.05, 0.5]),
            )
    return out


def _pipeline_path(rng: random.Random, chain: list[int]) -> tuple[str, ...]:
    """A write pipeline over ``chain``'s nodes, like ``pipeline_path``:
    the writer's disk when the first replica is local (3-7 resources for
    a 2-3 node chain), then per further replica the sender's NIC-out, the
    receiver's NIC-in and its disk."""
    path = [f"disk{chain[0]}"] if rng.random() < 0.7 else []
    for a, b in zip(chain, chain[1:]):
        path += [f"tx{a}", f"rx{b}", f"disk{b}"]
    return tuple(path)


def _assert_same_solve(auto, ref, with_out: bool):
    """One solve on each allocator: bit-identical rates and bookkeeping."""
    if with_out:
        size = max(auto._next_fid, 1)
        got_arr = np.full(size, -1.0)
        want_arr = np.full(size, -1.0)
        auto.solve(out=got_arr)
        ref.solve(out=want_arr)
        assert got_arr.tobytes() == want_arr.tobytes()
    else:
        got = auto.solve()
        want = ref.solve()
        assert list(got) == list(want)
        assert [r.hex() for r in got.values()] == [r.hex() for r in want.values()]
    assert auto.last_changed == ref.last_changed
    assert auto.last_iterations == ref.last_iterations
    assert auto.last_component_solves == ref.last_component_solves


@pytest.mark.parametrize("seed", range(10))
def test_allocator_auto_vs_reference_kernel_churn(seed):
    """Auto-kernel allocator == reference-kernel allocator through churn.

    Two phases per seed: random 1-3 resource paths over 12 resources
    (small components), then pipeline-shaped 3-7 resource paths over 42
    resources, so components grow past ``VECTOR_MIN_FLOWS`` and shrink
    back, churn while large, absorb small components and split — the
    churn the persistent flat forms of large components must track
    exactly.
    """
    rng = random.Random(1000 + seed)
    resources = _random_resources(rng, 12)
    names = list(resources)
    auto = ComponentAllocator()
    ref = ComponentAllocator(kernel="reference")
    for name, r in resources.items():
        auto.register(name, r)
        ref.register(name, r)
    live: list[Flow] = []
    for step in range(120):
        if live and rng.random() < 0.35:
            f = live.pop(rng.randrange(len(live)))
            auto.remove(f)
            ref.remove(f)
        else:
            path = tuple(rng.sample(names, rng.randint(1, 3)))
            cap = rng.choice([None, None, 1.0, 60e6])
            f = Flow(size=1.0, path=path, rate_cap=cap)
            live.append(f)
            auto.add(f)
            ref.add(f)
        if rng.random() < 0.5:
            _assert_same_solve(auto, ref, with_out=False)
    _assert_same_solve(auto, ref, with_out=False)

    # Nodes 0-7 carry the pipelines that chain into one large component
    # (live target swinging between 40 and 4); nodes 8-13 carry a few
    # short pipelines (small components); short-lived bridges between the
    # two make the large component absorb small ones and, when a bridge
    # leaves, split again.
    nodes = 14
    for name, r in _pipeline_resources(rng, nodes).items():
        auto.register(name, r)
        ref.register(name, r)
    pools: dict[str, list[Flow]] = {"big": [], "small": [], "bridge": []}

    def start(pool: str, chain: list[int]) -> None:
        cap = rng.choice([None, 60e6, 60e6, 40e6])
        f = Flow(size=1.0, path=_pipeline_path(rng, chain), rate_cap=cap)
        pools[pool].append(f)
        auto.add(f)
        ref.add(f)

    def finish(pool: str) -> None:
        flows = pools[pool]
        f = flows.pop(rng.randrange(len(flows)))
        auto.remove(f)
        ref.remove(f)

    large_solves = 0
    lowerings = 0
    for step in range(600):
        target = 40 if (step // 150) % 2 == 0 else 4
        u = rng.random()
        if pools["bridge"] and u < 0.12:
            finish("bridge")
        elif u < 0.2:
            start("bridge", [rng.randrange(8), rng.randrange(8, nodes)])
        elif u < 0.35:
            if len(pools["small"]) < 6:
                start("small", rng.sample(range(8, nodes), 2))
            else:
                finish("small")
        elif len(pools["big"]) > target or (pools["big"] and u > 0.85):
            finish("big")
        else:
            start("big", rng.sample(range(8), rng.randint(2, 3)))
        if rng.random() < 0.6:
            _assert_same_solve(auto, ref, with_out=bool(step % 2))
            large_solves += auto.last_vectorized_solves
            lowerings += auto.last_large_lowerings
    _assert_same_solve(auto, ref, with_out=True)
    # The pipeline phase really exercised the large-component path, and
    # re-lowered far less often than it solved.
    assert large_solves > 0
    assert 0 < lowerings < large_solves


@pytest.mark.parametrize("lowered_before_merge", [True, False])
def test_allocator_coarse_merge_matches_reference(lowered_before_merge):
    """A shrunk component absorbed before the next solve is not marked
    shrunk (the merge is solved as one group until its next shrink); that
    next shrink must then split off *every* stray piece, including ones
    far from the flow that left — with or without a flat form already
    built for the large side at merge time."""
    resources = {
        name: Resource(name=name, capacity=100.0, concurrency_penalty=0.05)
        for name in ["hub", "p", "q", "r", "t"] + [f"own{i}" for i in range(40)]
    }
    auto = ComponentAllocator()
    ref = ComponentAllocator(kernel="reference")
    for name, res in resources.items():
        auto.register(name, res)
        ref.register(name, res)

    def add(*path):
        f = Flow(size=1.0, path=path)
        auto.add(f)
        ref.add(f)
        return f

    def remove(f):
        auto.remove(f)
        ref.remove(f)

    def grow_big():
        return [add("hub", f"own{i}") for i in range(VECTOR_MIN_FLOWS + 1)]

    if lowered_before_merge:
        big = grow_big()
        _assert_same_solve(auto, ref, with_out=False)
        assert auto.last_large_lowerings == 1
    add("p", "q")
    middle = add("q", "r")
    add("r", "t")
    _assert_same_solve(auto, ref, with_out=False)
    if not lowered_before_merge:
        big = grow_big()  # large, but no flat form until the next solve
    remove(middle)  # {p-q} and {r-t} now disconnected, unsolved
    add("hub", "p")  # bridge: the large component absorbs both pieces
    _assert_same_solve(auto, ref, with_out=True)
    remove(big[0])  # shrinks the large side far from the stray {r-t}
    _assert_same_solve(auto, ref, with_out=True)
    assert auto.component_count == ref.component_count == 2


def test_allocator_counts_vectorized_solves():
    alloc = ComponentAllocator()
    alloc.register("shared", Resource(name="shared", capacity=100.0,
                                      concurrency_penalty=0.1))
    for _ in range(VECTOR_MIN_FLOWS):
        alloc.add(Flow(size=1.0, path=("shared",)))
    alloc.solve()
    assert alloc.last_vectorized_solves == 1


def test_allocator_rejects_unknown_kernel():
    with pytest.raises(ValueError):
        ComponentAllocator(kernel="simd")
