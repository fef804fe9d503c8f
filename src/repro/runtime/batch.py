"""Back-to-back application batches on one node — §4's deployment model.

In production MAGUS is installed once and runs as a background process;
applications arrive, execute and leave while the daemon persists. This
runner reproduces that: several workloads execute consecutively (separated
by idle gaps) on *one* node under *one* daemon, and per-application
windows are recovered from the progress trace. Two deployment behaviours
become observable:

* between applications the node's memory throughput collapses, so MAGUS
  returns the uncore to the floor — the idle-conservation behaviour §4
  describes ("default uncore frequencies ... set to their minimum values
  to conserve power when the nodes are idle");
* the next application's arrival is a sharp throughput rise that the
  predictor catches, restoring bandwidth without any re-initialisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro.errors import ExperimentError
from repro.governors.base import UncoreGovernor
from repro.hw.presets import SystemPreset, get_preset
from repro.runtime.session import run_application
from repro.sim.trace import TimeSeries
from repro.workloads.base import Segment, Workload
from repro.workloads.registry import get_workload
from repro.workloads.synthesis import concat

__all__ = ["AppWindow", "BatchResult", "run_batch"]

#: Trickle traffic of an idle node between applications (GB/s).
_IDLE_BW_GBPS = 0.05


@dataclass(frozen=True)
class AppWindow:
    """One application's window within a batch run."""

    workload_name: str
    start_s: float
    end_s: float
    energy_j: float
    avg_cpu_w: float

    @property
    def runtime_s(self) -> float:
        """Wall time the application occupied the node."""
        return self.end_s - self.start_s


@dataclass
class BatchResult:
    """Outcome of one batch run."""

    system_name: str
    governor_name: str
    windows: List[AppWindow]
    total_runtime_s: float
    total_energy_j: float
    traces: dict
    decisions: list

    def window(self, workload_name: str) -> AppWindow:
        """Look up one application's window by name."""
        for w in self.windows:
            if w.workload_name == workload_name:
                return w
        raise ExperimentError(f"no window for workload {workload_name!r}")


def _gap_segments(gap_s: float, index: int) -> List[Segment]:
    return [
        Segment(
            duration_s=gap_s,
            mem_bw_gbps=_IDLE_BW_GBPS,
            mem_intensity=0.0,
            cpu_util=0.01,
            gpu_util=0.0,
            name=f"<gap{index}>",
        )
    ]


def run_batch(
    preset: Union[SystemPreset, str],
    workloads: Sequence[Union[Workload, str]],
    governor: UncoreGovernor,
    *,
    gap_s: float = 4.0,
    seed: int = 0,
    dt_s: float = 0.01,
    max_time_s: float = 3600.0,
) -> BatchResult:
    """Run several applications consecutively under one persistent daemon.

    Parameters
    ----------
    preset:
        System preset (or name).
    workloads:
        The applications, in arrival order (names resolve via the
        registry with ``seed``).
    governor:
        The single long-lived policy instance managing the node.
    gap_s:
        Idle time between consecutive applications.

    Returns
    -------
    BatchResult
        Per-application windows plus whole-batch traces.
    """
    if isinstance(preset, str):
        preset = get_preset(preset)
    if not workloads:
        raise ExperimentError("batch needs at least one workload")
    if gap_s < 0:
        raise ExperimentError(f"gap must be non-negative, got {gap_s!r}")

    resolved: List[Workload] = [
        get_workload(w, seed=seed) if isinstance(w, str) else w for w in workloads
    ]

    # Compose one mega-workload: app segments separated by idle gaps. The
    # per-app nominal-progress boundaries let us recover app windows from
    # the progress trace afterwards.
    parts: List[List[Segment]] = []
    for i, wl in enumerate(resolved):
        parts.append(list(wl.segments))
        if gap_s > 0 and i < len(resolved) - 1:
            parts.append(_gap_segments(gap_s, i))
    composite = Workload(
        "+".join(w.name for w in resolved),
        concat(*parts),
        description=f"batch of {len(resolved)} applications",
        tags=("batch",),
    )

    run = run_application(
        preset, composite, governor, seed=seed, dt_s=dt_s, max_time_s=max_time_s
    )
    if not run.completed:
        raise ExperimentError(
            f"batch did not complete within {run.runtime_s:.0f}s of simulated time"
        )

    traces = run.traces
    progress: TimeSeries = traces["progress"]
    total_power: TimeSeries = traces["total_w"]
    cpu_power: TimeSeries = traces["cpu_w"]

    total_nominal = composite.nominal_duration_s
    windows: List[AppWindow] = []
    cursor = 0.0
    for i, wl in enumerate(resolved):
        start_p = cursor / total_nominal
        cursor += wl.nominal_duration_s
        end_p = cursor / total_nominal
        if gap_s > 0 and i < len(resolved) - 1:
            cursor += gap_s
        start_idx = int(np.searchsorted(progress.values, start_p + 1e-12))
        end_idx = int(np.searchsorted(progress.values, end_p - 1e-12))
        start_idx = min(start_idx, len(progress) - 1)
        end_idx = min(max(end_idx, start_idx + 1), len(progress) - 1)
        t0 = float(progress.times[start_idx])
        t1 = float(progress.times[end_idx])
        window_power = total_power.slice(t0, t1 + 1e-9)
        window_cpu = cpu_power.slice(t0, t1 + 1e-9)
        windows.append(
            AppWindow(
                workload_name=wl.name,
                start_s=t0,
                end_s=t1,
                energy_j=window_power.integral() if len(window_power) > 1 else 0.0,
                avg_cpu_w=window_cpu.mean() if len(window_cpu) else 0.0,
            )
        )

    return BatchResult(
        system_name=preset.name,
        governor_name=governor.name,
        windows=windows,
        total_runtime_s=run.runtime_s,
        total_energy_j=total_power.integral(),
        traces=traces,
        decisions=run.decisions,
    )
