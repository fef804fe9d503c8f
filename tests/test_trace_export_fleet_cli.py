"""RunResult trace export and the fleet CLI command."""

import csv

import pytest

from repro.cli import main
from repro.errors import ConfigError
from repro.runtime.session import make_governor, run_application


class TestTraceExport:
    @pytest.fixture(scope="class")
    def run(self):
        return run_application("intel_a100", "sort", make_governor("magus"), seed=1)

    def test_exports_all_channels(self, run, tmp_path):
        path = tmp_path / "traces.csv"
        run.export_traces_csv(path)
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            first = next(reader)
        assert header[0] == "time_s"
        assert "pkg_w" in header and "uncore_target_ghz" in header
        assert len(first) == len(header)

    def test_channel_subset(self, run, tmp_path):
        path = tmp_path / "subset.csv"
        run.export_traces_csv(path, channels=["delivered_gbps", "cpu_w"])
        with path.open(newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["time_s", "delivered_gbps", "cpu_w"]

    def test_row_count_matches_ticks(self, run, tmp_path):
        path = tmp_path / "rows.csv"
        run.export_traces_csv(path, channels=["cpu_w"])
        with path.open() as fh:
            n_rows = sum(1 for _ in fh) - 1
        assert n_rows == len(run.traces["cpu_w"])

    def test_values_round_trip(self, run, tmp_path):
        path = tmp_path / "values.csv"
        run.export_traces_csv(path, channels=["cpu_w"])
        with path.open(newline="") as fh:
            reader = csv.DictReader(fh)
            row = next(reader)
        assert float(row["cpu_w"]) == pytest.approx(run.traces["cpu_w"].values[0], rel=1e-4)

    def test_unknown_channel_rejected(self, run, tmp_path):
        with pytest.raises(ConfigError):
            run.export_traces_csv(tmp_path / "x.csv", channels=["nope"])


class TestFleetCli:
    def test_fleet_command(self, capsys):
        rc = main(
            ["fleet", "--job", "sort@0", "--job", "bfs@3", "--governor", "magus", "--seed", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "peak power" in out
        assert "magus vs default" in out

    def test_fleet_with_budget_and_queueing(self, capsys):
        rc = main(
            [
                "fleet",
                "--job",
                "sort",
                "--job",
                "bfs",
                "--nodes",
                "1",
                "--budget",
                "600",
                "--seed",
                "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "budget" in out
        # One node forces queueing for the simultaneous jobs.
        assert "queue wait" in out

    def test_fleet_requires_jobs(self):
        with pytest.raises(SystemExit):
            main(["fleet"])

    @pytest.mark.parametrize(
        "flags", [["--mtbf", "nan"], ["--mtbf", "30", "--restart-delay", "nan"]]
    )
    def test_nan_failure_model_is_a_clean_error(self, capsys, flags):
        # Both used to exit 0: no node died, or the restart delay read NaN.
        rc = main(["fleet", "--job", "sort@0", *flags, "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and "must not be NaN" in captured.err
        assert captured.out == ""


class TestFleetJsonCli:
    def test_fleet_json_schema(self, capsys):
        import json

        rc = main(
            [
                "fleet", "--job", "sort@0", "--job", "bfs@3",
                "--governor", "magus", "--seed", "1",
                "--budget", "700", "--json",
            ]
        )
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert set(body) == {"baseline", "method", "comparison"}
        for side in ("baseline", "method"):
            assert body[side]["budget_w"] == 700.0
            assert body[side]["time_over_budget_s"] is not None
        comparison = body["comparison"]
        assert comparison["method_governor"] == "magus"
        assert "baseline_time_over_budget_s" in comparison
        assert "method_time_over_budget_s" in comparison

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_is_a_clean_error(self, capsys, budget):
        # It used to print "budget_w": NaN (or Infinity) with no time over it.
        rc = main(["fleet", "--job", "sort@0", "--budget", budget, "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and "budget must be finite" in captured.err
        assert captured.out == ""

    def test_zero_budget_is_a_clean_error_in_the_text_report(self, capsys):
        # The comparison used to drop a zero budget's time over it, and the
        # text report then failed on formatting None.
        rc = main(["fleet", "--job", "sort@0", "--budget", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "budget must be positive, got 0.0" in captured.err
        assert captured.out == ""

    def test_fleet_json_without_budget_reports_null(self, capsys):
        import json

        rc = main(["fleet", "--job", "sort@0", "--job", "bfs@3", "--json"])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert body["baseline"]["budget_w"] is None
        assert body["baseline"]["time_over_budget_s"] is None


class TestCoordinateCli:
    def test_chaos_json_gate_and_journal(self, capsys, tmp_path):
        import json

        journal = tmp_path / "grants.jsonl"
        out_file = tmp_path / "score.json"
        rc = main(
            [
                "coordinate", "--job", "sort@0", "--job", "bfs@3",
                "--seed", "2", "--max-time", "12", "--budget-frac", "0.8",
                "--json", "--gate",
                "--journal", str(journal), "--out", str(out_file),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        body = json.loads(out[: out.rindex("}") + 1])
        assert body["never_exceeded"] is True
        assert body["overshoot_ticks"] == 0
        assert body["journal_overshoot_ticks"] == 0
        assert body["partition_floor_ok"] is True
        assert "gate:" in out
        # The grant journal and the report artifact landed on disk.
        assert journal.exists() and journal.stat().st_size > 0
        assert json.loads(out_file.read_text())["never_exceeded"] is True

    def test_journal_path_starts_empty(self, capsys, tmp_path):
        """A second run on the same ``--journal`` scores only its own grants."""

        def run(journal, frac):
            rc = main(
                [
                    "coordinate", "--job", "sort@0", "--job", "bfs@1",
                    "--max-time", "8", "--no-chaos", "--json", "--gate",
                    "--budget-frac", frac, "--journal", str(journal),
                ]
            )
            return rc, capsys.readouterr().out, journal.read_bytes()

        reused = tmp_path / "reused.jsonl"
        assert run(reused, "1.0")[0] == 0
        second = run(reused, "0.6")
        assert second[0] == 0
        assert second == run(tmp_path / "fresh.jsonl", "0.6")

    def test_no_chaos_text_report(self, capsys):
        rc = main(
            [
                "coordinate", "--job", "sort@0",
                "--seed", "1", "--max-time", "10", "--no-chaos",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "never-exceed: OK" in out
        assert "no faults" in out

    @pytest.mark.parametrize("budget", ["nan", "inf", "-5"])
    def test_invalid_budget_is_a_clean_error(self, capsys, budget):
        # A NaN budget used to pass every check and the gate.
        rc = main(
            [
                "coordinate", "--job", "sort@0", "--job", "bfs@3", "--seed", "2",
                "--budget", budget, "--max-time", "5", "--json", "--gate",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "error:" in captured.err and "budget_w" in captured.err
        assert "gate:" not in captured.out

    def test_requires_jobs(self):
        with pytest.raises(SystemExit):
            main(["coordinate"])
