"""Cluster job description."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ExperimentError
from repro.units import require_finite

__all__ = ["ClusterJob"]


@dataclass(frozen=True)
class ClusterJob:
    """One application scheduled onto one node of the fleet.

    Parameters
    ----------
    name:
        Job identifier, unique within a fleet.
    workload:
        Workload registry name.
    start_time_s:
        Cluster time at which the job launches on its node; the node idles
        (min uncore) before that.
    seed:
        Workload jitter seed (also the node's hardware-noise seed).
    gpu_count:
        GPUs the application spans (must not exceed the preset's count).
    max_time_s:
        Optional per-job simulation horizon; ``None`` uses the runtime
        default.  Short horizons (below the aggregation grid step) are
        valid — instant jobs contribute only their idle-replacement window.
    """

    name: str
    workload: str
    start_time_s: float = 0.0
    seed: int = 0
    gpu_count: int = 1
    max_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("job name must be non-empty")
        # NaN passes every range check below, and a job that starts at
        # infinity never runs. An infinite max_time_s stays legal, as it is
        # for a single workload run.
        require_finite(
            self.start_time_s,
            error=lambda t: ExperimentError(
                f"job {self.name!r}: start time must be finite, got {t!r}"
            ),
        )
        if self.max_time_s is not None:
            require_finite(
                self.max_time_s,
                error=lambda _: ExperimentError(f"job {self.name!r}: max_time_s must not be NaN"),
                allow_inf=True,
            )
        if self.start_time_s < 0:
            raise ExperimentError(f"job {self.name!r}: negative start time {self.start_time_s!r}")
        if self.gpu_count < 1:
            raise ExperimentError(f"job {self.name!r}: invalid gpu_count {self.gpu_count!r}")
        if self.max_time_s is not None and self.max_time_s <= 0:
            raise ExperimentError(f"job {self.name!r}: invalid max_time_s {self.max_time_s!r}")
