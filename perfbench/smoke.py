"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at tiny scale on seed 0 and on a held-out seed, once
untraced and once traced, and checks that each run exits 0, passes its
correctness checks with no failed operation, and prints every catalogued
metric by name with its unit.  It also checks that ``BENCHMARK.json``
agrees with ``perfbench/catalog.py``, and that the benchmark refuses to
run (non-zero exit, no result line) in a directory holding only
``BENCHMARK.json`` and ``perfbench/``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import catalog

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
SEEDS = (0, 7919)  # 7919: held out, never used while sizing the workloads
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_manifest() -> list[str]:
    with open(MANIFEST) as f:
        manifest = json.load(f)
    errors = []
    workloads = {w["name"]: w["why"] for w in manifest["workloads"]}
    if workloads != catalog.WORKLOADS:
        errors.append("BENCHMARK.json workloads differ from catalog.WORKLOADS")
    e2e = [tuple(m[k] for k in ("name", "unit", "better", "bound"))
           for m in manifest["end_to_end"]]
    if e2e != list(catalog.END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from catalog.END_TO_END")
    layers = [tuple(m[k] for k in ("name", "unit", "better"))
              for m in manifest["per_layer"]]
    if layers != [m[:3] for m in catalog.PER_LAYER]:
        errors.append("BENCHMARK.json per_layer differs from catalog.PER_LAYER")
    return errors


def check_run(workload: str, seed: int, trace: int) -> list[str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=175,
    )
    tag = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        return [f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{tag}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']}\n" + "\n".join(lines[:-1]))
    table = catalog.PER_LAYER if trace else catalog.END_TO_END
    expected = {m[0]: m[1] for m in table}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        errors.append(f"{tag}: metric names {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            errors.append(f"{tag}: {name} unit {got.get('unit')!r} != {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{tag}: {name} value {value!r}")
        if not any(line.split()[:1] == [name] for line in lines[:-1]):
            errors.append(f"{tag}: {name} missing from the printed table")
    if not trace:
        for name in ("wall_s", "setup_s", "run_s", "peak_rss_mb"):
            if not metrics.get(name, {}).get("value", 0) > 0:
                errors.append(f"{tag}: {name} is not positive")
    return errors


def check_bare_directory() -> list[str]:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(MANIFEST, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "single_static",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=bare, timeout=175,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare directory: benchmark did not refuse to run"]
    return []


def main() -> int:
    errors = check_manifest() + check_bare_directory()
    for workload in catalog.WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                found = check_run(workload, seed, trace)
                print(f"{'FAIL' if found else 'ok  '} {workload} seed={seed} trace={trace}")
                errors += found
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
