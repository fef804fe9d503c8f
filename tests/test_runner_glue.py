"""The experiment runner's report assembly and CLI glue (stubbed heavy
experiments so this stays a unit test; the real experiments are exercised
by tests/test_experiments.py and the benchmark harness)."""

import pytest

import repro.experiments.runner as runner_mod
from repro import cli
from repro.experiments.fig4_end_to_end import Fig4Row, summary_stats
from repro.errors import ExperimentError


class TestSummaryStats:
    def _rows(self):
        return [
            Fig4Row("s", "a", "magus", 0.01, 0.2, 0.10, 1),
            Fig4Row("s", "b", "magus", 0.03, 0.1, 0.05, 1),
            Fig4Row("s", "a", "ups", 0.05, 0.3, 0.02, 1),
        ]

    def test_aggregates(self):
        stats = summary_stats(self._rows(), "magus")
        assert stats["max_performance_loss"] == pytest.approx(0.03)
        assert stats["max_energy_saving"] == pytest.approx(0.10)
        assert stats["min_energy_saving"] == pytest.approx(0.05)
        assert stats["mean_energy_saving"] == pytest.approx(0.075)

    def test_unknown_method_rejected(self):
        with pytest.raises(ExperimentError):
            summary_stats(self._rows(), "nonexistent")


class TestRunnerMain:
    """``repro experiments`` is the runner's only front end."""

    def test_main_prints_all_reports(self, monkeypatch, capsys):
        monkeypatch.setattr(runner_mod, "run_all", lambda **kw: ["REPORT-A", "REPORT-B"])
        assert cli.main(["experiments", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.index("REPORT-A") < out.index("REPORT-B")

    def test_main_forwards_seed(self, monkeypatch):
        captured = {}

        def fake_run_all(**kwargs):
            captured.update(kwargs)
            return []

        monkeypatch.setattr(runner_mod, "run_all", fake_run_all)
        assert cli.main(["experiments", "--seed", "7"]) == 0
        assert captured == {"quick": False, "seed": 7}

    def test_trace_schema_prints_the_channel_blocks(self, monkeypatch, capsys):
        monkeypatch.setattr(runner_mod, "run_all", lambda **kw: pytest.fail("ran experiments"))
        assert cli.main(["experiments", "--trace-schema", "intel_a100"]) == 0
        out = capsys.readouterr().out
        assert "core0_freq_ghz .. core79_freq_ghz (80 channels)" in out

    def test_banner_shape(self):
        banner = runner_mod._banner("Title")
        lines = banner.strip().splitlines()
        assert lines[1] == "# Title"
        assert set(lines[0]) == {"#"}
