"""Shared fixtures.

Expensive simulated runs are session-scoped and shared across test modules:
many assertions (calibration anchors, metric sanity, trace invariants) can
be made against the *same* runs, so we pay for each run once.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.hw.presets import intel_a100
from repro.runtime.session import make_governor, run_application
from repro.sim.rng import RngStreams
from repro.telemetry.hub import TelemetryHub
from repro.workloads.base import Segment, Workload
from repro.workloads.registry import get_workload


@pytest.fixture()
def a100_preset():
    """A fresh Intel+A100 preset."""
    return intel_a100()


@pytest.fixture()
def a100_node(a100_preset):
    """A fresh Intel+A100 node (idle at min uncore, like deployment)."""
    node = a100_preset.build_node(RngStreams(0))
    node.force_uncore_all(a100_preset.uncore_min_ghz)
    return node


@pytest.fixture()
def a100_hub(a100_preset, a100_node):
    """Telemetry hub bound to ``a100_node``."""
    return TelemetryHub(a100_node, a100_preset.telemetry)


@pytest.fixture()
def tiny_workload():
    """A 3-segment workload small enough for sub-second simulations."""
    return Workload(
        "tiny",
        (
            Segment(0.5, 2.0, mem_intensity=0.3, cpu_util=0.2, gpu_util=0.5, name="a"),
            Segment(0.5, 20.0, mem_intensity=0.8, cpu_util=0.3, gpu_util=0.4, name="b"),
            Segment(0.5, 1.0, mem_intensity=0.1, cpu_util=0.1, gpu_util=0.9, name="c"),
        ),
    )


# ----------------------------------------------------------------------
# Session-scoped paired runs on a mid-size workload, shared by the
# integration/metric/analysis tests.
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def repo_lint():
    """``lint_project`` over ``src/repro``, once per session.

    ``(violations, n_files, stats)``. Linting ``src`` gives the same
    violations and stats, since ``repro`` is the only package under it.
    """
    from repro.lintkit import lint_project

    return lint_project([str(Path(__file__).resolve().parent.parent / "src" / "repro")])


@pytest.fixture(scope="session")
def srad_runs():
    """SRAD under every policy on Intel+A100 (seed 1)."""
    workload = get_workload("srad", seed=1)
    return {
        name: run_application("intel_a100", workload, make_governor(name), seed=1)
        for name in ("default", "static_max", "static_min", "magus", "ups")
    }


@pytest.fixture(scope="session")
def unet_runs():
    """UNet under the Fig. 1/2 policies on Intel+A100 (seed 1)."""
    workload = get_workload("unet", seed=1)
    return {
        name: run_application("intel_a100", workload, make_governor(name), seed=1)
        for name in ("default", "static_max", "static_min", "magus", "ups")
    }


@pytest.fixture(scope="session")
def bfs_runs():
    """BFS (a top power saver) under baseline + methods (seed 1)."""
    workload = get_workload("bfs", seed=1)
    return {
        name: run_application("intel_a100", workload, make_governor(name), seed=1)
        for name in ("default", "static_max", "magus", "ups")
    }
