"""Cold start: importing the package must not load scipy or multiprocessing.

Only the §III analytical models (``repro.analysis.balance`` and
``repro.analysis.locality``) use ``scipy.stats``, and they import it on
first call.  Every run path — the package root, the CLI, the report
builder and each module the end-to-end benchmark's child process
imports — must stay scipy-free, since importing ``scipy.stats`` costs
more than a small run's DFS set-up and matching together.  The simulator
runs in one process, so no run path may load ``multiprocessing`` either
(it drags in ``socket``, ``subprocess`` and shared-memory support).

Both checks run in a fresh interpreter, because the pytest process has
already imported scipy.  No wall clock is read: the gate is which
modules are loaded, and that the lazily loaded models return exactly
what ``scipy.stats.binom`` returns when called directly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: The run path: the package root, the CLI, the report builder and every
#: module ``perfbench/child.py`` imports.
RUN_PATH_MODULES = (
    "repro",
    "repro.cli",
    "repro.report",
    "repro.core",
    "repro.core.bipartite",
    "repro.core.perf",
    "repro.dfs",
    "repro.simulate",
    "repro.workloads.generators",
    "repro.parallel.master_worker",
)

CHILD = r"""
import importlib
import json
import sys

for name in MODULES:
    importlib.import_module(name)
scipy_on_import = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
mp_on_import = sorted(
    m for m in sys.modules if m.split(".")[0].lstrip("_") == "multiprocessing"
)

import numpy as np

from repro.analysis import (
    cdf_served_chunks_total_probability,
    figure3_series,
    local_chunks_distribution,
    max_served_cdf,
    section3b_summary,
    served_chunks_distribution,
    stored_chunks_distribution,
    validation_grid,
)

got = {}
got["figure3"] = [
    [row.cdf.tobytes().hex(), row.prob_more_than_5.hex()]
    for row in figure3_series(k_max=8, cluster_sizes=(16, 64))
]
s = section3b_summary()
got["section3b"] = [
    s.nodes_at_most_1.hex(),
    s.nodes_more_than_8.hex(),
    s.paper_multiplier_at_most_1.hex(),
    s.paper_multiplier_more_than_8.hex(),
]
got["total_probability"] = [
    cdf_served_chunks_total_probability(k, 64, 3, 16).hex() for k in (0, 2, 5)
]
ks = np.arange(12)
got["max_served"] = np.asarray(max_served_cdf(ks, 64, 3, 16)).tobytes().hex()
rows = validation_grid(
    cluster_sizes=(8,), replications=(2,), chunks_per_process=2, trials=1
)
got["validation"] = [row.model_served_std.hex() for row in rows]
dists = [
    stored_chunks_distribution(64, 3, 16),
    served_chunks_distribution(64, 3, 16),
    local_chunks_distribution(64, 3, 16),
]
scipy_after_models = "scipy.stats" in sys.modules

# The reference: scipy.stats.binom called directly, with the same arithmetic.
from scipy import stats
from scipy.stats._distn_infrastructure import rv_discrete_frozen

want = {}
want["figure3"] = [
    [
        stats.binom(512, 3 / m).cdf(np.arange(9)).tobytes().hex(),
        float(1.0 - stats.binom(512, 3 / m).cdf(5)).hex(),
    ]
    for m in (16, 64)
]
z = stats.binom(512, 1.0 / 128)
want["section3b"] = [
    (128 * float(z.cdf(1))).hex(),
    (128 * float(1.0 - z.cdf(8))).hex(),
    (512 * float(z.cdf(1))).hex(),
    (512 * float(1.0 - z.cdf(8))).hex(),
]
a = np.arange(65)
want["total_probability"] = [
    float(np.sum(stats.binom.cdf(k, a, 1.0 / 3) * stats.binom.pmf(a, 64, 3 / 16))).hex()
    for k in (0, 2, 5)
]
want["max_served"] = (stats.binom(64, 1.0 / 16).cdf(ks) ** 16).tobytes().hex()
want["validation"] = [float(stats.binom(16, 1.0 / 8).std()).hex()]

print(json.dumps({
    "scipy_on_import": scipy_on_import,
    "mp_on_import": mp_on_import,
    "scipy_after_models": scipy_after_models,
    "frozen": [isinstance(d, rv_discrete_frozen) for d in dists],
    "got": got,
    "want": want,
}))
"""


def run_cold() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", f"MODULES = {RUN_PATH_MODULES!r}\n{CHILD}"],
        capture_output=True,
        text=True,
        timeout=180,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


def test_run_path_is_scipy_free_and_models_load_it_lazily():
    out = run_cold()
    assert out["scipy_on_import"] == []
    assert out["mp_on_import"] == []
    assert out["scipy_after_models"]
    assert out["frozen"] == [True, True, True]
    assert out["got"].keys() == out["want"].keys()
    for name, want in out["want"].items():
        assert out["got"][name] == want, name
