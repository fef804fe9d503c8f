"""Fixture-driven tests for the ``repro lint`` static-analysis engine.

Every per-file code (RL001–RL007) is held to a pair: a fixture with known
violations (exact codes and lines asserted) and a clean fixture that must
stay silent.  The fixture tree under ``tests/data/lint_fixtures/``
mirrors the package layout (``sim/``, ``runtime/``...) so path-scoped
rules see the same scopes they see on ``src/repro``.  The self-check at
the bottom is the acceptance gate: the repository lints clean against
its own rules.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro import cli
from repro.errors import LintError
from repro.lintkit import (
    Baseline,
    format_json,
    format_text,
    lint_project,
    load_baseline,
    rule_catalogue,
    save_baseline,
    scan_suppressions,
)

FIXTURES = Path(__file__).parent / "data" / "lint_fixtures"
REPO = Path(__file__).resolve().parent.parent
CLI_ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}


def run_on(relpath):
    """Lint one fixture file under every rule, returning its violations."""
    violations, _, _ = lint_project([str(FIXTURES / relpath)], root=str(FIXTURES))
    return violations


def codes_and_lines(violations):
    return sorted((v.rule, v.line) for v in violations)


class TestRuleCatalogue:
    def test_seven_rules_with_unique_codes(self):
        # The per-file codes lead the one catalogue; RL003 and RL005 are
        # reported by the walks of RL010 and RL009.
        catalogue = rule_catalogue()
        codes = [code for code, _, _ in catalogue]
        assert codes[:7] == [
            "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        ]
        assert len(set(codes)) == len(codes)
        assert all(rationale for _, _, rationale in catalogue)


class TestRL001Determinism:
    def test_bad_fixture_fires_every_form(self):
        violations = run_on("sim/rl001_bad.py")
        assert codes_and_lines(violations) == [
            ("RL001", 13),  # time.time
            ("RL001", 14),  # aliased perf_counter
            ("RL001", 15),  # datetime.now
            ("RL001", 20),  # random.random
            ("RL001", 21),  # np.random.default_rng
            ("RL001", 22),  # from-imported default_rng
        ]
        assert "sim.rng" in violations[-1].message

    def test_clean_fixture_is_silent(self):
        assert run_on("sim/rl001_ok.py") == []

    def test_out_of_scope_dir_is_not_checked(self):
        # experiments/ legitimately wall-clocks real work.
        assert run_on("experiments/rl001_out_of_scope.py") == []

    def test_coordinator_dir_is_in_scope(self):
        # Lease/heartbeat timing must replay bit-for-bit: the control
        # plane gets the same determinism discipline as the simulation.
        violations = run_on("coordinator/rl001_bad.py")
        assert codes_and_lines(violations) == [
            ("RL001", 13),  # time.monotonic in lease timing
            ("RL001", 18),  # global RNG jitter
        ]

    def test_coordinator_clean_fixture_is_silent(self):
        assert run_on("coordinator/rl001_ok.py") == []


class TestRL002MSRSafety:
    def test_bad_fixture_fires(self):
        violations = run_on("faults/rl002_bad.py")
        assert codes_and_lines(violations) == [
            ("RL002", 3),  # 0x620 constant
            ("RL002", 7),  # 0x309 read
            ("RL002", 8),  # raw accessor call
            ("RL002", 8),  # 0x30A literal inside it
        ]
        assert "MSR_UNCORE_RATIO_LIMIT" in violations[0].message

    def test_clean_fixture_is_silent(self):
        assert run_on("faults/rl002_ok.py") == []

    def test_the_register_table_itself_is_exempt(self):
        violations, _, _ = lint_project([str(REPO / "src/repro/telemetry/msr.py")])
        assert [v for v in violations if v.rule == "RL002"] == []

    def test_backends_dir_may_use_raw_accessors(self):
        # The backend layer is an access mechanism: raw accessors belong
        # there (a hardware backend slots in beside the simulator).
        assert run_on("backends/rl002_ok.py") == []

    def test_backends_dir_still_confines_address_literals(self):
        violations = run_on("backends/rl002_bad.py")
        assert codes_and_lines(violations) == [
            ("RL002", 3),  # 0x620 constant
            ("RL002", 7),  # 0x620 literal (the raw accessor itself is exempt)
        ]


class TestRL003Units:
    def test_bad_fixture_fires(self):
        violations = run_on("telemetry/rl003_bad.py")
        assert codes_and_lines(violations) == [
            ("RL003", 5),  # W + s
            ("RL003", 6),  # MHz - GHz
            ("RL003", 7),  # W vs s comparison
            ("RL003", 10),  # J += s
            ("RL003", 15),  # bare literal time_s
            ("RL003", 15),  # bare literal energy_j
            ("RL003", 16),  # bare literal power_w
            ("RL003", 17),  # _w kwarg bound to _s value
        ]

    def test_clean_fixture_is_silent(self):
        assert run_on("telemetry/rl003_ok.py") == []


class TestRL004MeterSafety:
    def test_bad_fixture_fires(self):
        violations = run_on("runtime/rl004_bad.py")
        assert codes_and_lines(violations) == [("RL004", 7), ("RL004", 14)]
        assert "IncidentLog" in violations[0].message

    def test_clean_fixture_is_silent(self):
        assert run_on("runtime/rl004_ok.py") == []


class TestRL005PickleSafety:
    def test_bad_fixture_fires(self):
        violations = run_on("experiments/rl005_bad.py")
        assert codes_and_lines(violations) == [
            ("RL005", 9),  # inline lambda
            ("RL005", 10),  # module-level lambda binding
            ("RL005", 18),  # nested def to pool.submit
        ]

    def test_clean_fixture_is_silent(self):
        assert run_on("experiments/rl005_ok.py") == []


class TestRL006MetricNames:
    def test_bad_fixture_fires_every_form(self):
        violations = run_on("obs/rl006_bad.py")
        assert codes_and_lines(violations) == [
            ("RL006", 5),   # f-string counter name
            ("RL006", 6),   # + concatenation
            ("RL006", 7),   # %-formatting
            ("RL006", 8),   # str.format()
            ("RL006", 9),   # literal breaking the grammar (no dot, CamelCase)
            ("RL006", 10),  # name= kwarg literal with uppercase segment
            ("RL006", 11),  # f-string span name
            ("RL006", 12),  # span literal with uppercase segment
        ]
        messages = " ".join(v.message for v in violations)
        assert "unbounded series" in messages
        assert "lowercase dotted grammar" in messages

    def test_clean_fixture_is_silent(self):
        # Variables, name tables and unrelated receivers all pass.
        assert run_on("obs/rl006_ok.py") == []

    def test_tsdb_and_alert_rule_names_fire_every_form(self):
        violations = run_on("obs/rl006_tsdb_bad.py")
        assert codes_and_lines(violations) == [
            ("RL006", 5),   # f-string tsdb.record series name
            ("RL006", 6),   # + concatenation in db.series
            ("RL006", 7),   # %-formatting in tsdb.record
            ("RL006", 8),   # db.record literal breaking the grammar
            ("RL006", 9),   # name= kwarg literal with uppercase segment
            ("RL006", 14),  # f-string ThresholdRule name
            ("RL006", 15),  # concatenated BurnRateRule target series
            ("RL006", 16),  # AbsenceRule series literal breaking the grammar
            ("RL006", 23),  # threshold_series= literal breaking the grammar
        ]
        messages = " ".join(v.message for v in violations)
        assert "unbounded series" in messages
        assert "lowercase dotted grammar" in messages

    def test_tsdb_clean_fixture_is_silent(self):
        # Labels carry the cardinality; tables/variables are sanctioned;
        # .record on a non-store receiver is not a series call.
        assert run_on("obs/rl006_tsdb_ok.py") == []


class TestRL007GuardBypass:
    def test_bad_fixture_fires_every_form(self):
        violations = run_on("governors/rl007_bad.py")
        assert codes_and_lines(violations) == [
            ("RL007", 5),   # ctx.hub.pcm chained read
            ("RL007", 6),   # ctx.hub.msr chained read
            ("RL007", 8),   # aliased hub variable, .rapl
            ("RL007", 9),   # aliased hub variable, .hsmp
            ("RL007", 10),  # bare handle alias assignment
        ]
        messages = " ".join(v.message for v in violations)
        assert "ctx.telemetry" in messages
        assert "bypassing" in messages

    def test_core_package_is_in_scope(self):
        violations = run_on("core/rl007_bad.py")
        assert codes_and_lines(violations) == [("RL007", 5)]

    def test_clean_fixture_is_silent(self):
        # Guarded reads, non-device hub attributes, non-hub receivers.
        assert run_on("governors/rl007_ok.py") == []

    def test_below_the_trust_boundary_is_out_of_scope(self):
        violations = run_on("telemetry/rl007_out_of_scope.py")
        assert [v for v in violations if v.rule == "RL007"] == []


class TestSuppressions:
    def test_directive_forms(self):
        violations = run_on("sim/suppressed.py")
        # Only the deliberately-unsuppressed perf_counter call survives.
        assert codes_and_lines(violations) == [("RL001", 17)]

    def test_scanner_directly(self):
        idx = scan_suppressions(
            "x = 1  # repro-lint: disable=RL001,RL003\n"
            "# repro-lint: disable=all\n"
            "y = 2\n"
        )
        assert idx.is_suppressed("RL001", 1)
        assert idx.is_suppressed("RL003", 1)
        assert not idx.is_suppressed("RL002", 1)
        assert idx.is_suppressed("RL999", 3)  # 'all' on the next line

    def test_directive_inside_string_is_ignored(self):
        idx = scan_suppressions('s = "# repro-lint: disable-file=all"\n')
        assert not idx.is_suppressed("RL001", 1)

    def test_source_without_the_marker_is_not_tokenized(self, monkeypatch):
        import repro.lintkit.suppressions as suppressions

        tokenized = []
        real = suppressions.tokenize.generate_tokens

        def counting(readline):
            tokenized.append(readline)
            return real(readline)

        monkeypatch.setattr(suppressions.tokenize, "generate_tokens", counting)
        plain = scan_suppressions("x = 1  # an ordinary comment\n")
        assert tokenized == []
        assert plain.file_level == frozenset() and plain.by_line == {}
        idx = scan_suppressions("x = 1  # repro-lint: disable=RL001\n")
        assert len(tokenized) == 1
        assert idx.is_suppressed("RL001", 1)


class TestEngineAndBaseline:
    def test_syntax_error_reports_rl000(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        (tmp_path / "fine.py").write_text("x = 1\n")
        violations, n_files, stats = lint_project([str(tmp_path)])
        assert [(Path(v.path).name, v.rule) for v in violations] == [("broken.py", "RL000")]
        # The broken file is counted as checked but kept out of the model.
        assert n_files == 2
        assert stats.modules == 1

    def test_missing_path_raises(self):
        with pytest.raises(LintError):
            lint_project(["definitely/not/a/path"])

    def test_two_files_for_one_module_raise(self, capsys):
        paths = [
            str(REPO / "src/repro/sim/rng.py"),
            str(REPO / "tests/data/lint_project_fixtures/sim/rng.py"),
        ]
        root = str(REPO / "tests/data/lint_project_fixtures")
        with pytest.raises(LintError, match="repro.sim.rng") as excinfo:
            lint_project(paths, root=root)
        assert all(path in str(excinfo.value) for path in paths)
        assert cli.main(["lint", *paths, "--package-root", root, "--no-baseline"]) == 2
        assert "both map to module repro.sim.rng" in capsys.readouterr().err

    def test_each_file_is_parsed_and_scanned_once(self, monkeypatch):
        import repro.lintkit.engine as engine
        import repro.lintkit.project as project

        parsed, scanned = Counter(), []
        real_parse, real_scan = project.parse_file, engine.scan_suppressions

        def counting_parse(path):
            parsed[path.as_posix()] += 1
            return real_parse(path)

        def counting_scan(source):
            scanned.append(source)
            return real_scan(source)

        monkeypatch.setattr(project, "parse_file", counting_parse)
        monkeypatch.setattr(engine, "scan_suppressions", counting_scan)
        _, n_files, _ = lint_project([str(FIXTURES)], root=str(FIXTURES))
        assert n_files == 24
        assert sorted(parsed) == sorted(p.as_posix() for p in FIXTURES.rglob("*.py"))
        assert set(parsed.values()) == {1}
        assert len(scanned) == n_files

    def test_baseline_round_trip(self, tmp_path):
        violations, _, _ = lint_project(
            [str(FIXTURES / "sim" / "rl001_bad.py")], root=str(FIXTURES)
        )
        assert violations
        baseline_path = tmp_path / "baseline.json"
        n = save_baseline(str(baseline_path), violations)
        assert n == len(violations)
        baseline = load_baseline(str(baseline_path))
        assert baseline.filter_new(violations) == []
        # A violation at a new location is still new.
        moved = violations[0].__class__(**{**violations[0].__dict__, "line": 999})
        assert baseline.filter_new([moved]) == [moved]

    def test_missing_baseline_is_empty(self, tmp_path):
        assert len(load_baseline(str(tmp_path / "nope.json"))) == 0

    def test_corrupt_baseline_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(LintError):
            load_baseline(str(path))
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(LintError):
            load_baseline(str(path))

    def test_reporters(self):
        violations, n_files, stats = lint_project(
            [str(FIXTURES / "runtime")], root=str(FIXTURES)
        )
        text = format_text(violations, n_files)
        assert "RL004" in text and "rl004_bad.py:7" in text
        payload = json.loads(format_json(violations, n_files, project_stats=stats.to_dict()))
        assert payload["version"] == 1
        assert payload["counts"] == {"RL004": 2}
        assert payload["files"] == n_files == 2
        assert payload["project"]["modules"] == 2

    def test_empty_baseline_object(self):
        violations, _, _ = lint_project(
            [str(FIXTURES / "runtime" / "rl004_bad.py")], root=str(FIXTURES)
        )
        assert Baseline().filter_new(violations) == violations

    def test_fixture_tree_findings_are_pinned(self):
        # Every (file, line, rule) of the whole tree, linted as its own
        # package root; any drift in any rule's reach shows here.
        violations, n_files, _ = lint_project([str(FIXTURES)], root=str(FIXTURES))
        assert n_files == 24
        found = sorted(
            (Path(v.path).relative_to(FIXTURES).as_posix(), v.line, v.rule) for v in violations
        )
        assert found == [
            ("backends/rl002_bad.py", 3, "RL002"),
            ("backends/rl002_bad.py", 7, "RL002"),
            ("coordinator/rl001_bad.py", 13, "RL001"),
            ("coordinator/rl001_bad.py", 18, "RL001"),
            ("core/rl007_bad.py", 5, "RL007"),
            ("experiments/rl005_bad.py", 9, "RL005"),
            ("experiments/rl005_bad.py", 10, "RL005"),
            ("experiments/rl005_bad.py", 18, "RL005"),
            ("faults/rl002_bad.py", 3, "RL002"),
            ("faults/rl002_bad.py", 7, "RL002"),
            ("faults/rl002_bad.py", 8, "RL002"),
            ("faults/rl002_bad.py", 8, "RL002"),
            ("governors/rl007_bad.py", 5, "RL007"),
            ("governors/rl007_bad.py", 6, "RL007"),
            ("governors/rl007_bad.py", 8, "RL007"),
            ("governors/rl007_bad.py", 9, "RL007"),
            ("governors/rl007_bad.py", 10, "RL007"),
            ("obs/rl006_bad.py", 5, "RL006"),
            ("obs/rl006_bad.py", 6, "RL006"),
            ("obs/rl006_bad.py", 7, "RL006"),
            ("obs/rl006_bad.py", 8, "RL006"),
            ("obs/rl006_bad.py", 9, "RL006"),
            ("obs/rl006_bad.py", 10, "RL006"),
            ("obs/rl006_bad.py", 11, "RL006"),
            ("obs/rl006_bad.py", 12, "RL006"),
            ("obs/rl006_tsdb_bad.py", 5, "RL006"),
            ("obs/rl006_tsdb_bad.py", 6, "RL006"),
            ("obs/rl006_tsdb_bad.py", 7, "RL006"),
            ("obs/rl006_tsdb_bad.py", 8, "RL006"),
            ("obs/rl006_tsdb_bad.py", 9, "RL006"),
            ("obs/rl006_tsdb_bad.py", 14, "RL006"),
            ("obs/rl006_tsdb_bad.py", 15, "RL006"),
            ("obs/rl006_tsdb_bad.py", 16, "RL006"),
            ("obs/rl006_tsdb_bad.py", 23, "RL006"),
            ("runtime/rl004_bad.py", 7, "RL004"),
            ("runtime/rl004_bad.py", 14, "RL004"),
            ("sim/rl001_bad.py", 13, "RL001"),
            ("sim/rl001_bad.py", 14, "RL001"),
            ("sim/rl001_bad.py", 15, "RL001"),
            ("sim/rl001_bad.py", 20, "RL001"),
            ("sim/rl001_bad.py", 21, "RL001"),
            ("sim/rl001_bad.py", 22, "RL001"),
            ("sim/suppressed.py", 17, "RL001"),
            ("telemetry/rl003_bad.py", 5, "RL003"),
            ("telemetry/rl003_bad.py", 6, "RL003"),
            ("telemetry/rl003_bad.py", 7, "RL003"),
            ("telemetry/rl003_bad.py", 10, "RL003"),
            ("telemetry/rl003_bad.py", 15, "RL003"),
            ("telemetry/rl003_bad.py", 15, "RL003"),
            ("telemetry/rl003_bad.py", 16, "RL003"),
            ("telemetry/rl003_bad.py", 17, "RL003"),
        ]


class TestSelfCheck:
    def test_repo_lints_clean(self, repo_lint):
        """The acceptance gate: ``src/repro`` is clean under all ten rules."""
        violations, n_files, stats = repo_lint
        assert n_files == 144
        assert violations == [], format_text(violations, n_files)
        assert stats.call_edges > 1000

    def test_cli_verb_end_to_end(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "lint", str(REPO / "src"),
                "--format", "json", "--no-baseline", "--out", str(out),
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env=CLI_ENV,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(out.read_text())
        assert payload["violations"] == []

    def test_cli_exit_code_on_violations(self):
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "lint",
                str(FIXTURES / "sim" / "rl001_bad.py"), "--no-baseline",
                "--package-root", str(FIXTURES),
            ],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env=CLI_ENV,
        )
        assert proc.returncode == 1
        assert "RL001" in proc.stdout

    def test_cli_list_rules(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "lint", "--list-rules"],
            capture_output=True,
            text=True,
            cwd=str(REPO),
            env=CLI_ENV,
        )
        assert proc.returncode == 0
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007"):
            assert code in proc.stdout
