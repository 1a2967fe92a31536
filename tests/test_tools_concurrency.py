"""Tests for the OPS200 concurrency/float-identity pass (`opass-verify`).

Fixture snippets live in ``tests/data/lint/`` as violating/clean pairs,
same convention as OPS101–OPS103.  The OPS201/OPS202/OPS204 bad fixtures
put the defect two call levels below the site that flags, so only the
interprocedural reachability walk can catch them.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.tools.api import ALL_RULES
from repro.tools.cache import AnalysisCache, CacheStats
from repro.tools.concurrency import CONCURRENCY_RULES, worker_reachable
from repro.tools.config import (
    DEFAULT_WALLCLOCK_ALLOW,
    LintConfig,
    config_from_table,
    load_config,
)
from repro.tools.model import parse_reassoc_pragmas
from repro.tools.sarif import to_sarif
from repro.tools.summaries import LocalSummary, summarize_module
from repro.tools.verify import (
    EXIT_OK,
    EXIT_VIOLATIONS,
    _changed_files,
    main,
    verify_paths,
    verify_source,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "data" / "lint"

CONCURRENCY_RULE_IDS = ("OPS201", "OPS202", "OPS203", "OPS204")


def verify_fixture(name: str):
    path = FIXTURES / f"{name}.py"
    return verify_source(path.read_text(encoding="utf-8"), path=str(path))


def rules_in(report):
    return {v.rule for v in report.violations}


# -- fixture pairs -----------------------------------------------------------


class TestFixturePairs:
    @pytest.mark.parametrize(
        "name, rule",
        [
            ("ops201_bad", "OPS201"),
            ("ops201_rng_bad", "OPS201"),
            ("ops202_bad", "OPS202"),
            ("ops202_overlap_bad", "OPS202"),
            ("ops203_bad", "OPS203"),
            ("ops204_bad", "OPS204"),
        ],
    )
    def test_bad_fixture_trips_exactly_its_rule(self, name, rule):
        report = verify_fixture(name)
        assert rules_in(report) == {rule}, report.render()

    @pytest.mark.parametrize("rule", CONCURRENCY_RULE_IDS)
    def test_clean_fixture_is_clean(self, rule):
        report = verify_fixture(f"{rule.lower()}_ok")
        assert report.ok, report.render()

    def test_rule_table_registered(self):
        assert set(CONCURRENCY_RULE_IDS) == set(CONCURRENCY_RULES)
        assert set(CONCURRENCY_RULES) <= set(ALL_RULES)


# -- interprocedural depth ---------------------------------------------------


class TestInterproceduralDepth:
    """The defect sits ≥2 call levels from the flagged site."""

    def test_ops201_names_the_capture_chain(self):
        report = verify_fixture("ops201_bad")
        # flagged at the entrypoint's def line, naming the chain through
        # _handle down to _audit
        assert {v.line for v in report.violations} == {12}, report.render()
        msgs = [v.message for v in report.violations]
        assert any("_handle" in m and "_audit" in m for m in msgs), msgs
        assert any("opens a file handle" in m for m in msgs), msgs
        assert any("rebinds module global(s) _JOBS" in m for m in msgs), msgs

    def test_ops201_rng_machinery_two_levels_down(self):
        report = verify_fixture("ops201_rng_bad")
        msgs = [v.message for v in report.violations]
        assert any("live RNG machinery" in m and "_draw" in m for m in msgs), msgs

    def test_ops202_write_sites_two_levels_below_entrypoint(self):
        report = verify_fixture("ops202_bad")
        by_line = {v.line: v.message for v in report.violations}
        assert 27 in by_line and "parameter 'job'" in by_line[27], by_line
        assert 28 in by_line and "parameter 'shm'" in by_line[28], by_line
        assert all("worker-reachable via" in m for m in by_line.values())

    def test_ops202_overlapping_views_flag_the_written_one(self):
        report = verify_fixture("ops202_overlap_bad")
        assert len(report.violations) == 1, report.render()
        assert "overlaps another declared view" in report.violations[0].message

    def test_ops204_chain_through_sync_callees(self):
        report = verify_fixture("ops204_bad")
        msgs = {v.line: v.message for v in report.violations}
        # the call site in the async body flags, naming the sync chain
        assert any(
            "_commit" in m and "_flush" in m and "time.sleep" in m
            for m in msgs.values()
        ), msgs
        # direct blocking I/O in an async body flags at its own line
        assert any("blocks the event loop" in m for m in msgs.values()), msgs


# -- rule specifics ----------------------------------------------------------


class TestOPS203:
    def test_dtype_int_division_and_reduction_all_flag(self):
        report = verify_fixture("ops203_bad")
        msgs = [v.message for v in report.violations]
        assert any("dtype 'float32'" in m for m in msgs), msgs
        assert any("reassociating reduction" in m for m in msgs), msgs
        assert any("int/int true division" in m for m in msgs), msgs

    def test_rules_only_fire_in_registered_kernel_modules(self):
        source = (FIXTURES / "ops203_bad.py").read_text(encoding="utf-8")
        relocated = source.replace(
            "module=repro.simulate.vectorized", "module=repro.simulate.other"
        )
        report = verify_source(relocated, path="<relocated>")
        assert report.ok, report.render()

    def test_reassoc_pragma_without_reason_is_ops000(self):
        source = (
            "# opass-lint: module=repro.simulate.vectorized\n"
            "import numpy as np\n"
            "def f(xs):\n"
            "    return np.sum(xs)  # opass: reassoc-ok\n"
        )
        report = verify_source(source, path="<s>")
        # the malformed pragma is reported AND does not waive the reduction
        assert rules_in(report) == {"OPS000", "OPS203"}, report.render()
        msgs = [v.message for v in report.violations]
        assert any("missing reason" in m for m in msgs), msgs

    def test_parse_reassoc_pragmas_roundtrip(self):
        lines, errors = parse_reassoc_pragmas(
            "x = 1\ny = s.sum()  # opass: reassoc-ok -- exact\nz = 2\n", "<s>"
        )
        assert lines == {2} and errors == []


class TestOPS202:
    def test_constructor_self_writes_are_exempt(self):
        source = (
            "# opass-lint: module=repro.parallel.pool\n"
            "class Box:\n"
            "    def __init__(self, v):\n"
            "        self.v = v\n"
            "def _worker_main(conn):\n"
            "    return Box(conn.recv())\n"
        )
        report = verify_source(source, path="<s>")
        assert report.ok, report.render()

    def test_local_scratch_writes_are_allowed(self):
        report = verify_fixture("ops202_ok")
        assert report.ok, report.render()


class TestOPS204:
    def test_zero_arg_join_flags_but_str_join_does_not(self):
        source = (
            "# opass-lint: module=repro.simulate.svc\n"
            "async def a(pool, parts):\n"
            "    pool.join()\n"
            "    return ','.join(parts)\n"
        )
        report = verify_source(source, path="<s>")
        assert len(report.violations) == 1, report.render()
        assert "'.join()' may block" in report.violations[0].message


class TestReachability:
    def test_worker_reachable_follows_confident_edges_only(self):
        source = (
            "# opass-lint: module=repro.parallel.pool\n"
            "def _worker_main(conn):\n"
            "    helper(conn.recv())\n"
            "def helper(x):\n"
            "    return x\n"
            "def unrelated():\n"
            "    return 1\n"
        )
        from repro.tools.callgraph import Project, parse_module
        from repro.tools.summaries import resolve_summaries

        decl = parse_module(source, path="<s>")
        project = Project()
        project.add_module(decl)
        local = {
            f"{decl.module}.{n}": s
            for n, s in summarize_module(decl).items()
        }
        summaries = resolve_summaries(project, local)
        reach = worker_reachable(summaries, LintConfig())
        assert "repro.parallel.pool._worker_main" in reach
        assert "repro.parallel.pool.helper" in reach
        assert "repro.parallel.pool.unrelated" not in reach
        # chains start at the entrypoint
        assert reach["repro.parallel.pool.helper"][0].endswith("_worker_main")

    def test_global_writes_summary_roundtrips(self):
        from repro.tools.callgraph import parse_module

        decl = parse_module(
            "_N = 0\ndef f():\n    global _N\n    _N = _N + 1\n", path="<s>"
        )
        summary = summarize_module(decl)["f"]
        assert summary.global_writes == ["_N"]
        assert LocalSummary.from_dict(summary.to_dict()).global_writes == ["_N"]


# -- real tree ---------------------------------------------------------------


class TestRealTree:
    def test_src_is_clean_under_the_concurrency_pass(self):
        report = verify_paths([REPO_ROOT / "src"])
        assert report.ok, report.render()

    def test_pool_slice_reuse_suppression_is_pinned(self):
        # the one OPS202 suppression in the tree: _solve_descs writes
        # rates over the dead caps slot.  If the suppression (or its
        # reason) disappears, this test localizes the decision.
        report = verify_paths([REPO_ROOT / "src" / "repro" / "parallel" / "pool.py"])
        assert report.ok, report.render()
        ops202 = [v for v in report.suppressed if v.rule == "OPS202"]
        assert len(ops202) == 1, [v.render() for v in report.suppressed]
        assert "dead caps slot" in (ops202[0].reason or "")

    def test_kernel_reassoc_waivers_present(self):
        # flownetwork.py carries a waived int64 sum.  vectorized.py no
        # longer has to: its two waived float ``.sum()`` lines were in the
        # numpy kernel solve_flat replaced, and solve_flat releases counts
        # with an exact integer ``bincount``, so nothing there reassociates
        # a float reduction.  A kernel that brings one back must bring
        # back both its reassoc-ok waiver and ``waived=True`` here.  Every
        # pragma either file carries must still parse.
        for rel, waived in (
            (("src", "repro", "simulate", "vectorized.py"), False),
            (("src", "repro", "core", "flownetwork.py"), True),
        ):
            source = Path(REPO_ROOT, *rel).read_text(encoding="utf-8")
            lines, errors = parse_reassoc_pragmas(source, str(Path(*rel)))
            if waived:
                assert lines, f"expected reassoc-ok waivers in {rel}"
            assert errors == []


# -- config ------------------------------------------------------------------


class TestConfig:
    def test_wallclock_allow_has_a_single_source_of_truth(self):
        import tomllib

        pyproject = REPO_ROOT / "pyproject.toml"
        table = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"][
            "opass-lint"
        ]
        # not mirrored in pyproject: code default is the only source
        assert "wallclock-allow" not in table
        assert load_config(pyproject).wallclock_allow == DEFAULT_WALLCLOCK_ALLOW
        assert LintConfig().wallclock_allow == DEFAULT_WALLCLOCK_ALLOW

    def test_concurrency_registries_configurable(self):
        cfg = config_from_table(
            {
                "worker-entrypoints": ["repro.apps.workers.run"],
                "kernel-modules": ["repro.core.kernels"],
                "shared-view-factories": ["numpy.frombuffer", "repro.shm.view"],
            }
        )
        assert cfg.worker_entrypoints == ("repro.apps.workers.run",)
        assert cfg.kernel_modules == ("repro.core.kernels",)
        assert "repro.shm.view" in cfg.shared_view_factories

    def test_registry_changes_alter_the_fingerprint(self):
        base = LintConfig()
        other = config_from_table({"kernel-modules": ["repro.other"]})
        assert base.fingerprint() != other.fingerprint()

    def test_scoping_can_disable_a_concurrency_rule(self):
        source = (FIXTURES / "ops201_bad.py").read_text(encoding="utf-8")
        cfg = config_from_table({"scopes": {"OPS201": ["nonexistent"]}})
        report = verify_source(source, path="<s>", config=cfg)
        assert report.ok, report.render()


# -- outputs and cache -------------------------------------------------------


class TestOutputsAndCache:
    def test_sarif_rule_table_covers_the_ops200_series(self):
        report = verify_fixture("ops202_bad")
        sarif = to_sarif(report)
        rules = {
            r["id"]: r
            for r in sarif["runs"][0]["tool"]["driver"]["rules"]
        }
        for rule in CONCURRENCY_RULE_IDS:
            assert rule in rules
        results = sarif["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"OPS202"}

    def test_list_rules_includes_concurrency(self, capsys):
        assert main(["--list-rules"]) == EXIT_OK
        out = capsys.readouterr().out
        for rule in CONCURRENCY_RULE_IDS:
            assert rule in out

    def test_concurrency_findings_cached_and_replayed(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        for name in ("ops201_bad", "ops202_bad"):
            (tree / f"{name}.py").write_text(
                (FIXTURES / f"{name}.py").read_text(encoding="utf-8"),
                encoding="utf-8",
            )
        # distinct module names so the two files don't collide
        text = (tree / "ops202_bad.py").read_text(encoding="utf-8")
        (tree / "ops202_bad.py").write_text(
            text.replace("module=repro.parallel.pool", "module=repro.parallel.alt"),
            encoding="utf-8",
        )

        cold_stats = CacheStats()
        cold = verify_paths(
            [tree], cache=AnalysisCache(tmp_path / "cache", cold_stats)
        )
        warm_stats = CacheStats()
        warm = verify_paths(
            [tree], cache=AnalysisCache(tmp_path / "cache", warm_stats)
        )
        assert cold_stats.check_misses == 2 and warm_stats.check_misses == 0
        assert warm_stats.summary_misses == 0
        assert [v.render() for v in warm.violations] == [
            v.render() for v in cold.violations
        ]
        assert "OPS201" in rules_in(warm)

    def test_cli_exit_codes_cover_concurrency_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            (FIXTURES / "ops201_bad.py").read_text(encoding="utf-8"),
            encoding="utf-8",
        )
        assert main([str(bad), "--no-cache", "--format", "json"]) == EXIT_VIOLATIONS
        data = json.loads(capsys.readouterr().out)
        assert {v["rule"] for v in data["violations"]} == {"OPS201"}


# -- --changed robustness ----------------------------------------------------


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", *args],
        cwd=repo,
        check=True,
        capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t",
            "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t",
            "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo),
            "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


class TestChangedRobustness:
    def test_unborn_head_counts_tracked_and_untracked_files(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "tracked.py").write_text("x = 1\n", encoding="utf-8")
        _git(repo, "add", "tracked.py")
        (repo / "untracked.py").write_text("y = 2\n", encoding="utf-8")
        changed = _changed_files(repo)
        assert changed is not None
        names = {p.name for p in changed}
        assert {"tracked.py", "untracked.py"} <= names

    def test_detached_head_still_diffs(self, tmp_path):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        (repo / "a.py").write_text("a = 1\n", encoding="utf-8")
        _git(repo, "add", "a.py")
        _git(repo, "commit", "-q", "-m", "c1")
        _git(repo, "checkout", "-q", "--detach", "HEAD")
        (repo / "a.py").write_text("a = 2\n", encoding="utf-8")
        changed = _changed_files(repo)
        assert changed is not None
        assert {p.name for p in changed} == {"a.py"}

    def test_changed_flag_works_without_any_commit(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        repo.mkdir()
        _git(repo, "init", "-q")
        clean = repo / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        _git(repo, "add", "clean.py")
        assert main([str(clean), "--no-cache", "--changed"]) == EXIT_OK
