"""Cold-start benchmark of the paper's parallel-read runs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload single_static --seed 0 --seconds 40 --trace 0

Workloads and metrics are listed in ``perfbench/catalog.py``.  Every
sample is a fresh interpreter running ``perfbench/child.py``, so it pays
import, DFS set-up, scheduling and simulation exactly as a user's run
does, with every module-level cache empty.  Samples run one after
another, single-threaded, until ``--seconds`` is used up (at least
three).

``--seed n`` stands for three inputs of the same shape, with input seeds
``3n``, ``3n+1`` and ``3n+2``; sample ``i`` runs input ``3n + i % 3``.  A
sample that repeats an input must repeat its record digests exactly.

``--trace 0`` reports the end-to-end metrics: memory as the median over
samples, simulated outcomes as means over the three inputs (one random
layout alone swings a makespan by ~10%), and timings in anchored
seconds.  A shared 2-vCPU VM drifts in speed by up to ~1.6x over
minutes, so raw seconds from two runs are not comparable.  Every timed
sample is therefore preceded by ``perfbench/anchor.py``, a fixed
cold-start job that runs no repository code (one more anchor follows the
last sample), and each timing (set-up, run, whole) is reported as

    median over samples i of  seconds_i / mean(anchor_i, anchor_i+1)
    times ANCHOR_REF_S

i.e. the seconds the sample would take on a host where the anchor takes
``ANCHOR_REF_S``, with the host's speed read on both sides of it.  The
raw medians and per-sample times are printed in the table too.

``--trace 1`` alternates untraced and traced samples, reports per-layer
metrics from the traced ones (times as medians, counts and ratios from
the first two inputs so they repeat exactly), import times from
``python -X importtime``, and checks that tracing left the digests
unchanged.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` (chunk reads and writes checked, and those that
failed a check) and ``metrics``; the lines before it give host metadata,
digests and a readable table.  The exit code is non-zero when a sample
crashes or the checkout holds no ``src/repro`` to measure.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
ANCHOR = os.path.join(HERE, "anchor.py")

#: Anchor seconds on the reference host (2-vCPU VM, Python 3.11.7, numpy
#: 2.4.6, scipy 1.17.1): the scale of anchored timings.
ANCHOR_REF_S = 1.05
TIMINGS = ("wall_s", "setup_s", "run_s")

#: Inputs per ``--seed`` (see the module docstring); also the minimum
#: number of untraced samples, so every input is measured.
SUB_INPUTS = 3
MIN_SAMPLES = SUB_INPUTS
MIN_TRACED_PAIRS = 2
#: Whole-run deadline; every child is killed if it would run past it.
DEADLINE_S = 170.0
IMPORT_PROBES = 3

#: One thread per sample: numpy's BLAS pools would otherwise compete with
#: co-tenants and make wall time depend on the core count.
CHILD_ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1",
    OPENBLAS_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
    PYTHONPATH=SRC,
)


class SampleError(RuntimeError):
    """A child process crashed, timed out or printed no result."""


def _spawn(cmd: list, what: str, t0: float) -> subprocess.CompletedProcess:
    """Run one child process to completion, killing it at the deadline."""
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - t0)),
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"{what} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise SampleError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def input_seed(args, i: int) -> int:
    return args.seed * SUB_INPUTS + i % SUB_INPUTS


def run_child(args, i: int, trace: int, t0: float) -> dict:
    seed = input_seed(args, i)
    cmd = [
        sys.executable, CHILD, "--workload", args.workload,
        "--seed", str(seed), "--scale", args.scale, "--trace", str(trace),
    ]
    spawned = time.monotonic()
    proc = _spawn(cmd + ["--spawned-at", repr(spawned)], "sample", t0)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["elapsed"] = time.monotonic() - spawned
    record["input_seed"] = seed
    return record


def run_anchor(t0: float) -> float:
    spawned = time.monotonic()
    _spawn([sys.executable, ANCHOR], "anchor", t0)
    return time.monotonic() - spawned


def anchored_sample(args, i: int, t0: float) -> dict:
    """The anchor job, then one untraced sample."""
    anchor_s = run_anchor(t0)
    record = run_child(args, i, 0, t0)
    record["anchor_s"] = anchor_s
    record["elapsed"] += anchor_s
    return record


def import_probe(t0: float) -> dict:
    """``import repro`` under ``-X importtime``: total, scipy, repro's own."""
    proc = _spawn(
        [sys.executable, "-X", "importtime", "-c", "import repro"], "import probe", t0
    )
    total = scipy = repro_self = 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        if name == "repro":
            total = int(cum_us)
        if name.split(".")[0] == "scipy":
            scipy += int(self_us)
        elif name.split(".")[0] == "repro":
            repro_self += int(self_us)
    return {
        "import.total_s": total / 1e6,
        "import.scipy_s": scipy / 1e6,
        "import.repro_self_s": repro_self / 1e6,
    }


def collect(args, t0: float, sample, minimum: int) -> list:
    """Call ``sample(i)`` while another is expected to end nearer to
    ``--seconds`` than stopping now would.  Anchored samples leave room
    for the closing anchor."""
    out = []
    while True:
        out.append(sample(len(out)))
        elapsed = time.monotonic() - t0
        per = statistics.median(s["elapsed"] for s in out)
        reserve = statistics.median(s.get("anchor_s", 0.0) for s in out)
        if len(out) >= minimum and elapsed + per / 2 > args.seconds - reserve:
            return out
        if elapsed + per > DEADLINE_S - 5:
            return out


def _median(values) -> float:
    return statistics.median(list(values))


def by_input(samples: list) -> dict:
    """The first sample of each input seed."""
    first: dict = {}
    for s in samples:
        first.setdefault(s["input_seed"], s)
    return first


def tally(samples: list, problems: list) -> tuple[int, int]:
    """Sum the correctness tallies; flag a sample whose records differ
    from an earlier sample of the same input."""
    first = by_input(samples)
    for i, s in enumerate(samples):
        problems += [f"sample {i}: {p}" for p in s["problems"]]
        ref = first[s["input_seed"]]
        if s["digests"] != ref["digests"] or s["sim"] != ref["sim"]:
            problems.append(
                f"sample {i}: records differ from an earlier run of input "
                f"{s['input_seed']}"
            )
    return sum(s["attempted"] for s in samples), sum(s["failed"] for s in samples)


def end_to_end(samples: list, closing_anchor_s: float, raw: dict) -> dict:
    """End-to-end metrics; fills ``raw`` with the unanchored medians.

    Each sample's time is divided by the mean of the anchors run just
    before and just after it (``closing_anchor_s`` follows the last)."""
    anchors = [s["anchor_s"] for s in samples] + [closing_anchor_s]
    values = {"peak_rss_mb": _median(s["peak_rss_mb"] for s in samples)}
    raw["anchor_s"] = _median(anchors)
    for name in TIMINGS:
        raw[name] = _median(s[name] for s in samples)
        values[name] = ANCHOR_REF_S * _median(
            s[name] / ((anchors[i] + anchors[i + 1]) / 2)
            for i, s in enumerate(samples)
        )
    inputs = list(by_input(samples).values())
    for name in inputs[0]["sim"]:
        values[name] = statistics.fmean(s["sim"][name] for s in inputs)
    return values


def per_layer(untraced: list, traced: list, imports: list) -> dict:
    """Times are medians over every traced sample.  Counts and ratios are
    exact per input, so they are averaged over the first pairs' inputs
    only, which every run covers: they repeat exactly for a seed."""
    units = {m[0]: m[1] for m in catalog.PER_LAYER}
    fixed = traced[:MIN_TRACED_PAIRS]
    values = {
        name: (
            _median(s["layers"][name] for s in traced)
            if units[name] in ("s", "us")
            else statistics.fmean(s["layers"][name] for s in fixed)
        )
        for name in traced[0]["layers"]
    }
    for name in imports[0]:
        values[name] = _median(p[name] for p in imports)
    values["trace.overhead"] = (
        _median(s["run_s"] for s in traced) / _median(s["run_s"] for s in untraced)
        - 1.0
    )
    return values


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_rev() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() or None


def _source_sha() -> str:
    """Content hash of ``src/`` (the checkout may not be a git repository)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def host_meta(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "git_rev": _git_rev(),
        "source_sha": _source_sha(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(catalog.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "tiny"),
                    help="tiny: smoke-test sizes (perfbench/smoke.py)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}: nothing to measure", file=sys.stderr)
        return 2
    # Byte-compile once so no sample pays for compiling the package; an
    # installed package is compiled too.
    compileall.compile_dir(SRC, quiet=1)

    t0 = time.monotonic()
    meta = host_meta(args)
    problems: list[str] = []
    raw: dict = {}
    try:
        if args.trace:
            imports = [import_probe(t0) for _ in range(IMPORT_PROBES)]

            def pair(i: int) -> dict:
                # Alternate which side runs first, so drift hits both.
                runs = {t: run_child(args, i, t, t0) for t in ((0, 1), (1, 0))[i % 2]}
                return {"runs": runs, "elapsed": runs[0]["elapsed"] + runs[1]["elapsed"]}

            pairs = collect(args, t0, pair, MIN_TRACED_PAIRS)
            untraced = [p["runs"][0] for p in pairs]
            traced = [p["runs"][1] for p in pairs]
            samples = untraced + traced
            metrics = per_layer(untraced, traced, imports)
            names = [m[0] for m in catalog.PER_LAYER]
            units = {m[0]: m[1] for m in catalog.PER_LAYER}
        else:
            samples = collect(
                args, t0, lambda i: anchored_sample(args, i, t0), MIN_SAMPLES
            )
            metrics = end_to_end(samples, run_anchor(t0), raw)
            names = [m[0] for m in catalog.END_TO_END]
            units = {m[0]: m[1] for m in catalog.END_TO_END}
    except SampleError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed = tally(samples, problems)

    meta["loadavg_1m_end"] = os.getloadavg()[0]
    meta["samples"] = len(samples)
    print("meta " + json.dumps(meta))
    for seed, s in sorted(by_input(samples).items()):
        print(f"digest input_seed={seed} " + json.dumps(s["digests"]))
    for p in problems:
        print(f"problem {p}")
    for name in names:
        print(f"{name:36s} {metrics[name]:14.6g} {units[name]}")
    for name, value in raw.items():
        print(f"{name + ' (raw median)':36s} {value:14.6g} s")
    if raw:
        keys = ("anchor_s", "setup_s", "run_s", "wall_s")
        print(f"samples {keys}: " + json.dumps(
            [[round(s[k], 4) for k in keys] for s in samples]
        ))
    print(f"{'error_rate':36s} {failed / attempted:14.6g} "
          f"({failed} of {attempted} chunk operations failed a check)")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
