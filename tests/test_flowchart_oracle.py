"""Fig. 3 flowchart graph and the oracle governor."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.flowchart import COMPONENTS, build_flowchart, flowchart_to_dot
from repro.errors import GovernorError
from repro.governors.oracle import OracleGovernor
from repro.runtime.session import make_governor, run_application

SRC = Path(__file__).resolve().parent.parent / "src"


def test_repro_imports_without_networkx():
    # networkx is the optional ``analysis`` extra: only building the graph needs it.
    code = 'import sys; sys.modules["networkx"] = None; import repro, repro.cli'
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr


class TestFlowchart:
    @pytest.fixture(scope="class")
    def nx(self):
        return pytest.importorskip("networkx")

    @pytest.fixture(scope="class")
    def graph(self, nx):
        return build_flowchart()

    def test_every_component_implemented(self):
        # Fig. 3's boxes must point at real classes — the architecture
        # diagram is checked against the code.
        for node, impl in COMPONENTS.items():
            module_path, _, attr = impl.rpartition(".")
            module = importlib.import_module(module_path)
            assert hasattr(module, attr), f"{node}: {impl} does not exist"

    def test_closed_control_loop(self, graph, nx):
        # The decision path closes a loop through the hardware: decision ->
        # MSR -> uncore -> application -> PCM -> monitor -> predictor -> decision.
        cycle = nx.find_cycle(graph)
        nodes_in_cycle = {u for u, _v in cycle} | {v for _u, v in cycle}
        assert {"decision", "msr_0x620", "uncore", "pcm_counter"} <= nodes_in_cycle

    def test_detector_gates_decision(self, graph):
        assert graph.has_edge("detector", "decision")
        assert graph.edges["detector", "decision"]["kind"] == "control"

    def test_phases_match_paper(self, graph):
        phases = {n: d["phase"] for n, d in graph.nodes(data=True)}
        assert phases["predictor"] == "phase1"
        assert phases["detector"] == "phase2"
        assert phases["pcm_counter"] == "monitor"

    def test_dot_export(self, graph):
        dot = flowchart_to_dot(graph)
        assert dot.startswith("digraph")
        assert "predictor -> decision" in dot
        assert "style=dashed" in dot  # control edges


class TestOracle:
    def test_validation(self):
        with pytest.raises(GovernorError):
            OracleGovernor(margin=0.5)
        with pytest.raises(GovernorError):
            OracleGovernor(interval_s=0.0)

    def test_factory(self):
        assert isinstance(make_governor("oracle"), OracleGovernor)

    @pytest.fixture(scope="class")
    def runs(self):
        return {
            name: run_application("intel_a100", "lavamd", make_governor(name), seed=1)
            for name in ("default", "oracle", "magus")
        }

    def test_oracle_negligible_loss(self, runs):
        from repro.analysis.metrics import compare

        c = compare(runs["default"], runs["oracle"])
        assert c.performance_loss <= 0.02

    def test_oracle_upper_bounds_magus(self, runs):
        from repro.analysis.metrics import compare

        oracle = compare(runs["default"], runs["oracle"])
        magus = compare(runs["default"], runs["magus"])
        assert oracle.energy_saving >= magus.energy_saving - 0.01

    def test_oracle_costs_nothing_to_monitor(self, runs):
        assert runs["oracle"].monitor_energy_j == 0.0

    def test_oracle_tracks_demand_levels(self, runs):
        # Unlike MAGUS's two-level policy, the oracle uses intermediate
        # frequencies when demand sits between the bounds.
        import numpy as np

        targets = set(np.round(runs["oracle"].traces["uncore_target_ghz"].values, 1))
        intermediate = {t for t in targets if 0.85 < t < 2.15}
        assert intermediate
