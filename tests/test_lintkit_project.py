"""Tests for the whole-program side of ``repro lint``.

The fixture tree under ``tests/data/lint_project_fixtures/`` mirrors the
package layout, so the project model roots its modules at ``repro.`` and
imports between fixture files resolve exactly as they do on the real
tree — aliased imports, ``__init__`` re-exports, method calls and all.
Each interprocedural code is held to the same contract as the per-file
codes: a fixture with known violations (exact codes and lines asserted)
and a clean fixture that must stay silent.  The self-check in
``TestLintProjectEngine`` is the acceptance gate: ``src/repro`` is clean
with an empty baseline.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.errors import LintError
from repro.lintkit import (
    build_project,
    collect_files,
    lint_project,
    load_baseline,
    rule_catalogue,
    save_baseline,
)
from repro.lintkit.core import Violation
from repro.lintkit.dataflow import _MAX_ENV_PASSES, _MAX_SUMMARY_PASSES, DataflowAnalysis
from repro.lintkit.project import iter_own_nodes
from repro.lintkit.rules.seeds import _TaintDomain
from repro.lintkit.rules.unitsflow import _UnitsDomain

FIXTURES = Path(__file__).parent / "data" / "lint_project_fixtures"
REPO = Path(__file__).resolve().parent.parent
CLI_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}

FILE_FIXTURES = REPO / "tests" / "data" / "lint_fixtures"

#: Every tree the benchmark lints, with the root it is linted under.
LINT_TREES = {
    "src/repro": (REPO / "src" / "repro", None),
    "lint_fixtures": (FILE_FIXTURES, FILE_FIXTURES),
    "lint_project_fixtures": (FIXTURES, FIXTURES),
}


@functools.lru_cache(maxsize=None)
def lint_fixture_tree():
    """Lint the whole fixture tree once (violations are immutable)."""
    return lint_project([str(FIXTURES)], root=str(FIXTURES))


def run_project_rule(code):
    """The fixture tree's violations of one rule code."""
    violations, _, _ = lint_fixture_tree()
    return [v for v in violations if v.rule == code]


def codes_and_lines(violations):
    return sorted((v.rule, Path(v.path).name, v.line) for v in violations)


class TestProjectRuleCatalogue:
    def test_three_project_rules_with_unique_codes(self):
        # The interprocedural codes close the one catalogue.
        catalogue = rule_catalogue()
        assert [code for code, _, _ in catalogue][7:] == ["RL008", "RL009", "RL010"]
        assert all(rationale for _, _, rationale in catalogue[7:])


class TestCallGraph:
    @pytest.fixture(scope="class")
    def project(self):
        return build_project(collect_files([str(FIXTURES)]), root=FIXTURES)

    def test_modules_are_rooted_at_repro(self, project):
        assert "repro.sim.rng" in project.modules
        assert "repro.cluster.graph" in project.modules
        assert "repro.sim" in project.modules  # the __init__ package

    def test_aliased_import_edge(self, project):
        # step() calls offset_seed through the alias ``shift``.
        assert "repro.sim.helpers.offset_seed" in project.call_graph[
            "repro.cluster.graph.Planner.step"
        ]

    def test_self_method_edge(self, project):
        assert "repro.cluster.graph.Planner.step" in project.call_graph[
            "repro.cluster.graph.Planner.plan"
        ]

    def test_typed_local_method_edge(self, project):
        # run() constructs Planner() locally, so p.plan() resolves.
        assert "repro.cluster.graph.Planner.plan" in project.call_graph[
            "repro.cluster.graph.run"
        ]

    def test_reexport_resolves_through_init(self, project):
        symbol = project.resolve_export("repro.sim.spawn_generator")
        assert symbol is not None
        assert symbol.qualname == "repro.sim.rng.spawn_generator"

    def test_reachability_covers_worker_tree(self, project):
        reached = project.reachable_from(["repro.cluster.rl009_bad.worker"])
        assert "repro.cluster.rl009_bad.record" in reached
        assert "repro.cluster.rl009_bad.tally" in reached
        assert "repro.cluster.rl009_bad.Jobs.mark" in reached
        # The submitting function is not part of the worker tree.
        assert "repro.cluster.rl009_bad.sweep" not in reached

    def test_module_nodes_are_ast_walk_order(self, project):
        # The per-file rules iterate this one walk instead of walking again.
        for mod in project.modules.values():
            walked = list(ast.walk(mod.tree))
            assert len(mod.nodes) == len(walked), mod.name
            assert all(a is b for a, b in zip(mod.nodes, walked)), mod.name

    def test_stats_shape(self, project):
        stats = project.stats().to_dict()
        assert stats["modules"] == 10
        assert stats["functions"] > 0
        assert stats["call_edges"] > 0
        assert set(stats) == {
            "modules", "functions", "classes", "call_edges", "unresolved_calls",
        }


class TestRL008SeedProvenance:
    def test_bad_fixture_fires_every_form(self):
        violations = run_project_rule("RL008")
        assert codes_and_lines(violations) == [
            ("RL008", "rl008_bad.py", 9),   # literal at the sink
            ("RL008", "rl008_bad.py", 14),  # literal through a helper return
            ("RL008", "rl008_bad.py", 18),  # literal by keyword
            ("RL008", "rl008_bad.py", 22),  # literal master into derive_seed
            ("RL008", "rl008_bad.py", 26),  # unprovable provenance
        ]

    def test_literal_and_unknown_get_distinct_messages(self):
        violations = run_project_rule("RL008")
        by_line = {v.line: v.message for v in violations}
        assert "seeded from a literal" in by_line[9]
        assert "not provably derived" in by_line[26]

    def test_suppression_comment_wins(self):
        # rl008_bad.py:30 carries `# repro-lint: disable=RL008`.
        assert all(v.line != 30 for v in run_project_rule("RL008"))

    def test_clean_fixture_is_silent(self):
        assert all(
            Path(v.path).name != "rl008_ok.py" for v in run_project_rule("RL008")
        )

    def test_sanctioned_rng_module_is_exempt(self):
        assert all(
            Path(v.path).name != "rng.py" for v in run_project_rule("RL008")
        )


class TestRL009ParallelSharedState:
    def test_bad_fixture_fires_every_form(self):
        violations = run_project_rule("RL009")
        assert codes_and_lines(violations) == [
            ("RL009", "rl009_bad.py", 13),  # helper writes module dict
            ("RL009", "rl009_bad.py", 18),  # global counter rebind
            ("RL009", "rl009_bad.py", 26),  # cls attribute store
            ("RL009", "rl009_bad.py", 39),  # mutable default mutation
            ("RL009", "rl009_bad.py", 40),  # module list append
        ]

    def test_decorated_worker_is_still_an_entry(self):
        # The worker carries @traced; resolution is by name, not value.
        messages = [v.message for v in run_project_rule("RL009")]
        assert any("worker()" in m and "default argument" in m for m in messages)

    def test_violations_name_the_offending_function(self):
        by_line = {v.line: v.message for v in run_project_rule("RL009")}
        assert "rl009_bad.tally()" in by_line[18]
        assert "rl009_bad.Jobs.mark()" in by_line[26]

    def test_clean_fixture_is_silent(self):
        assert all(
            Path(v.path).name != "rl009_ok.py" for v in run_project_rule("RL009")
        )


class TestRL010UnitsFlow:
    def test_bad_fixture_fires_every_form(self):
        violations = run_project_rule("RL010")
        assert codes_and_lines(violations) == [
            ("RL010", "rl010_bad.py", 14),  # arithmetic via helper return
            ("RL010", "rl010_bad.py", 19),  # comparison via assignment
            ("RL010", "rl010_bad.py", 24),  # positional arg vs _s param
            ("RL010", "rl010_bad.py", 29),  # keyword arg vs _s param
            ("RL010", "rl010_bad.py", 33),  # assignment to _s target
            ("RL010", "rl010_bad.py", 38),  # return vs _j name contract
        ]

    def test_dimension_flows_through_return_contract(self):
        # read_power_w has no suffixed return expression: the _w comes
        # from the function's own name, through the summary.
        by_line = {v.line: v.message for v in run_project_rule("RL010")}
        assert "_w" in by_line[14] and "_s" in by_line[14]

    def test_clean_fixture_is_silent(self):
        assert all(
            Path(v.path).name != "rl010_ok.py" for v in run_project_rule("RL010")
        )


def _assignment(node):
    """``(target names, value)`` of a simple-name assignment, as the solve reads it."""
    if isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        return (names, node.value) if names else None
    if isinstance(node, ast.AnnAssign) and node.value is not None:
        if isinstance(node.target, ast.Name):
            return ([node.target.id], node.value)
    if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
        return ([node.target.id], node.value)
    return None


class FullPassAnalysis(DataflowAnalysis):
    """The reference solve: every function on every summary pass, and a
    walk of the frame's own nodes on every env pass."""

    def _solve(self):
        functions = list(self.project.functions.values())
        for _ in range(_MAX_SUMMARY_PASSES):
            changed = False
            for fn in functions:
                env = {}
                for param in fn.params:
                    fact = self.domain.param_fact(fn, param)
                    if fact is not None:
                        env[param] = fact
                mod = self.project.modules[fn.module]
                env = self._walk_body(mod, fn, fn.node.body, env)
                self._envs[fn.qualname] = env
                summary = self._walk_returns(mod, fn, env)
                if self.summaries.get(fn.qualname) != summary:
                    self.summaries[fn.qualname] = summary
                    changed = True
            if not changed:
                break
        for mod in self.project.modules.values():
            self._module_envs[mod.name] = self._walk_body(mod, None, mod.tree.body, {})

    def _walk_body(self, mod, fn, body, env):
        env = dict(env)
        pinned = frozenset(env)
        for _ in range(_MAX_ENV_PASSES):
            changed = False
            assigned = {}
            for node in iter_own_nodes(body):
                target_value = _assignment(node)
                if target_value is None:
                    continue
                targets, value = target_value
                fact = self.expr_fact(mod, fn, env, value)
                for name in targets:
                    assigned.setdefault(name, []).append(fact)
            for name, facts in assigned.items():
                if name in pinned:
                    continue
                fact = facts[0] if len(set(facts)) == 1 else None
                if env.get(name) != fact:
                    env[name] = fact
                    changed = True
            if not changed:
                break
        return env

    def _walk_returns(self, mod, fn, env):
        facts = []
        for node in iter_own_nodes(fn.node.body):
            if isinstance(node, ast.Return) and node.value is not None:
                if isinstance(node.value, ast.Constant) and node.value.value is None:
                    continue
                facts.append(self.expr_fact(mod, fn, env, node.value))
        joined = facts[0] if facts and len(set(facts)) == 1 else None
        return self.domain.return_fact(fn, joined)


@functools.lru_cache(maxsize=None)
def linked_tree(name):
    """The linked project of one benchmark tree (built once per session)."""
    tree, root = LINT_TREES[name]
    return build_project(collect_files([str(tree)]), root=root)


#: A caller defined ahead of the suffix-named callee whose fact it reads.
CALLER_FIRST = """\
def unrelated(x):
    y = x
    return y


def average_power(samples):
    power = read_power_w(samples)
    return power


def read_power_w(samples):
    return sum(samples)
"""


class TestDataflowSolve:
    @pytest.mark.parametrize("tree", sorted(LINT_TREES))
    @pytest.mark.parametrize("domain", [_TaintDomain, _UnitsDomain])
    def test_solve_equals_the_full_pass_reference(self, tree, domain):
        project = linked_tree(tree)
        solved = DataflowAnalysis(project, domain())
        reference = FullPassAnalysis(project, domain())
        assert solved.summaries == reference.summaries
        functions = project.functions.values()
        assert {fn.qualname: solved.function_env(fn) for fn in functions} == {
            fn.qualname: reference.function_env(fn) for fn in functions
        }
        modules = project.modules.values()
        assert {mod.name: solved.module_env(mod) for mod in modules} == {
            mod.name: reference.module_env(mod) for mod in modules
        }

    def test_pass_two_resolves_only_the_caller_defined_first(self, tmp_path, monkeypatch):
        (tmp_path / "cluster").mkdir()
        (tmp_path / "cluster" / "flow.py").write_text(CALLER_FIRST)
        project = build_project(collect_files([str(tmp_path)]), root=tmp_path)
        solved = []
        real = DataflowAnalysis._converge_env

        def counting(self, fn):
            solved.append(fn.qualname)
            return real(self, fn)

        monkeypatch.setattr(DataflowAnalysis, "_converge_env", counting)
        analysis = DataflowAnalysis(project, _UnitsDomain())
        caller = "repro.cluster.flow.average_power"
        first_pass = list(project.functions)
        assert first_pass == [
            "repro.cluster.flow.unrelated", caller, "repro.cluster.flow.read_power_w",
        ]
        # Pass 1 read no summary for read_power_w yet; pass 2 re-solves
        # exactly its caller, and nothing calls that caller.
        assert solved == first_pass + [caller]
        assert analysis.function_env(project.functions[caller]) == {"power": "w"}
        assert analysis.summaries[caller] == "w"


class TestLintProjectEngine:
    def test_all_rules_sorted_with_stats(self):
        violations, n_files, stats = lint_project([str(FIXTURES)], root=str(FIXTURES))
        assert n_files == 10
        assert violations == sorted(violations)
        assert {v.rule for v in violations} == {"RL008", "RL009", "RL010"}
        assert stats.to_dict()["modules"] == 10

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            lint_project(["definitely/not/a/path"])

    def test_repo_is_clean_under_project_rules(self, repo_lint):
        # The acceptance gate: src/repro lints clean with an empty baseline.
        violations, _, stats = repo_lint
        assert violations == []
        assert stats.to_dict()["call_edges"] > 1000

    def test_fixture_tree_findings_are_pinned(self):
        violations, n_files, _ = lint_fixture_tree()
        assert n_files == 10
        found = [
            (Path(v.path).relative_to(FIXTURES).as_posix(), v.line, v.rule) for v in violations
        ]
        assert found == [
            ("cluster/rl009_bad.py", 13, "RL009"),
            ("cluster/rl009_bad.py", 18, "RL009"),
            ("cluster/rl009_bad.py", 26, "RL009"),
            ("cluster/rl009_bad.py", 39, "RL009"),
            ("cluster/rl009_bad.py", 40, "RL009"),
            ("cluster/rl010_bad.py", 14, "RL010"),
            ("cluster/rl010_bad.py", 19, "RL010"),
            ("cluster/rl010_bad.py", 24, "RL010"),
            ("cluster/rl010_bad.py", 29, "RL010"),
            ("cluster/rl010_bad.py", 33, "RL010"),
            ("cluster/rl010_bad.py", 38, "RL010"),
            ("sim/rl008_bad.py", 9, "RL008"),
            ("sim/rl008_bad.py", 14, "RL008"),
            ("sim/rl008_bad.py", 18, "RL008"),
            ("sim/rl008_bad.py", 22, "RL008"),
            ("sim/rl008_bad.py", 26, "RL008"),
        ]


class TestBaselineV2:
    def _violation(self, path="src/repro/sim/rng.py", rule="RL008", line=3):
        return Violation(path=path, line=line, col=0, rule=rule, message="m")

    def test_saved_baseline_is_version_2_with_counts(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(
            str(path),
            [self._violation(), self._violation(rule="RL009", line=9),
             self._violation(rule="RL009", line=4)],
        )
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["counts"] == {"RL008": 1, "RL009": 2}
        entries = [(e["path"], e["rule"], e["line"]) for e in payload["entries"]]
        assert entries == sorted(entries)

    def test_version_1_baseline_still_loads(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "version": 1,
            "entries": [{"path": "src/repro/sim/rng.py", "rule": "RL008", "line": 3}],
        }))
        baseline = load_baseline(str(path))
        assert len(baseline) == 1
        assert baseline.filter_new([self._violation()]) == []

    def test_v1_to_v2_migration_round_trip(self, tmp_path):
        v1 = tmp_path / "old.json"
        v1.write_text(json.dumps({
            "version": 1,
            "entries": [{"path": "a.py", "rule": "RL010", "line": 7}],
        }))
        migrated = load_baseline(str(v1))
        v2 = tmp_path / "new.json"
        save_baseline(
            str(v2), [self._violation(path="a.py", rule="RL010", line=7)]
        )
        payload = json.loads(v2.read_text())
        assert payload["version"] == 2
        assert load_baseline(str(v2)).entries == migrated.entries

    def test_absolute_paths_normalise_to_repo_relative(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "baseline.json"
        absolute = str(tmp_path / "pkg" / "mod.py")
        save_baseline(str(path), [self._violation(path=absolute, rule="RL009", line=2)])
        payload = json.loads(path.read_text())
        assert payload["entries"][0]["path"] == "pkg/mod.py"
        baseline = load_baseline(str(path))
        assert baseline.filter_new(
            [self._violation(path="pkg/mod.py", rule="RL009", line=2)]
        ) == []


class TestProjectCLI:
    def test_project_flag_reports_and_dumps_stats(self, tmp_path):
        dump = tmp_path / "callgraph.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "lint", str(FIXTURES),
                "--project", "--no-baseline", "--format", "json",
                "--package-root", str(FIXTURES),
                "--call-graph-dump", str(dump),
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env=CLI_ENV,
        )
        assert proc.returncode == 1, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["version"] == 1
        assert set(payload["counts"]) == {"RL008", "RL009", "RL010"}
        assert payload["project"]["modules"] == 10
        stats = json.loads(dump.read_text())
        assert stats == payload["project"]

    def test_no_cache_flag_still_lints(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "lint",
                str(FIXTURES / "cluster" / "graph.py"),
                "--no-cache", "--no-baseline", "--package-root", str(FIXTURES),
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_list_rules_includes_project_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env=CLI_ENV,
        )
        assert proc.returncode == 0
        for code in ("RL008", "RL009", "RL010"):
            assert code in proc.stdout

    def test_plain_lint_runs_project_rules_and_old_flags_are_no_ops(self, capsys):
        argv = [
            "lint", str(FIXTURES), "--no-baseline", "--format", "json",
            "--package-root", str(FIXTURES),
        ]
        reports = []
        for extra in ([], ["--project"], ["--no-cache"], ["--project", "--no-cache"]):
            assert cli.main(argv + extra) == 1
            reports.append(capsys.readouterr().out)
        assert json.loads(reports[0])["counts"] == {"RL008": 5, "RL009": 5, "RL010": 6}
        assert reports[1:] == reports[:1] * 3
