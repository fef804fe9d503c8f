"""CLI subcommands: argument handling and output shape."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_governor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bfs", "--governor", "quantum"])

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "bfs", "--system", "cray"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "intel_a100" in out
        assert "magus" in out
        assert "srad" in out

    def test_run(self, capsys):
        assert main(["run", "--workload", "sort", "--governor", "magus", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "runtime (s)" in out
        assert "total energy (kJ)" in out

    def test_run_unknown_workload_is_clean_error(self, capsys):
        assert main(["run", "--workload", "hpl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_defaults_to_both_methods(self, capsys):
        assert main(["compare", "--workload", "sort", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "magus" in out and "ups" in out
        assert "energy saving" in out

    def test_compare_single_method(self, capsys):
        assert main(["compare", "--workload", "sort", "--method", "magus"]) == 0
        out = capsys.readouterr().out
        assert "magus" in out and "ups" not in out

    def test_overhead(self, capsys):
        assert main(["overhead", "--governor", "magus", "--duration", "30"]) == 0
        out = capsys.readouterr().out
        assert "power overhead" in out
        assert "invocation" in out

    def test_overhead_json_schema(self, capsys):
        assert main(["overhead", "--governor", "magus", "--duration", "30", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "governor_name",
            "system_name",
            "baseline_idle_cpu_w",
            "managed_idle_cpu_w",
            "power_overhead_frac",
            "mean_invocation_s",
            "decision_period_s",
            "duration_s",
            "actuation_switches",
            "actuation_latency_s",
        }
        assert payload["governor_name"] == "magus"
        assert payload["duration_s"] == 30.0
        assert payload["power_overhead_frac"] >= 0.0


class TestObservabilityCommands:
    def test_trace_writes_chrome_json_and_table(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert (
            main(
                [
                    "trace", "--workload", "sort", "--seed", "1",
                    "--max-time", "60", "--out", str(out), "--top", "3",
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        cycles = [e for e in events if e.get("name") == "daemon.cycle"]
        assert cycles, "no decision-cycle events in the trace"
        # Decision attribution rides on the cycle events.
        assert all("reason" in c["args"] for c in cycles)
        assert any("trend_derivative" in c["args"] for c in cycles)
        # Nested child spans reference their parent cycle.
        samples = [e for e in events if e.get("name") == "governor.sample"]
        assert samples and all("parent_id" in s["args"] for s in samples)
        table = capsys.readouterr().out
        assert "slowest decision cycle" in table
        assert "reason" in table

    def test_metrics_prometheus_and_attribution(self, capsys):
        assert main(["metrics", "--workload", "sort", "--seed", "1", "--max-time", "60"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_daemon_cycles counter" in out
        assert 'repro_daemon_invocation_seconds_bucket{le="+Inf"}' in out
        assert "energy by decision cause" in out
        assert "trend-raise" in out or "hold" in out

    def test_metrics_json_to_file(self, capsys, tmp_path):
        out = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "metrics", "--workload", "sort", "--seed", "1",
                    "--max-time", "60", "--format", "json", "--out", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["repro.daemon.cycles"]["kind"] == "counter"
        assert payload["repro.daemon.cycles"]["value"] > 0
        assert payload["repro.daemon.invocation_seconds"]["kind"] == "histogram"
        assert "energy by decision cause" in capsys.readouterr().out

    def test_watch_rejects_uncatalogued_series_before_running(self, capsys, monkeypatch):
        import repro.cli

        def no_run(*args, **kwargs):
            raise AssertionError("simulated before validating --series")

        monkeypatch.setattr(repro.cli, "_run_scraped", no_run)
        argv = ["watch", "--job", "sort@0", "--series", "repro.ts.bogus", "--max-time", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "repro.ts.bogus" in err and "--list-series" in err

    def test_watch_catalogued_series_without_samples(self, capsys):
        # A coordinated fleet runs no guard, so this catalogued series is empty.
        series = "repro.ts.guard.quarantines"
        assert main(["watch", "--job", "sort@0", "--series", series, "--max-time", "2"]) == 0
        assert f"{series} (no samples)" in capsys.readouterr().out
