"""Seeded node-failure modeling for fleet simulations.

The §6.1 budget argument assumes every node survives the schedule; real
fleets do not.  Cuttlefish and the deadline-aware GPU-scheduling literature
both treat job failure/rescheduling as first-class in energy accounting, so
the :class:`~repro.cluster.simulator.ClusterSimulator` accepts an optional
:class:`NodeFailureModel`: an MTBF-style, fully seeded model that kills
nodes mid-job.  A killed node is gone for the rest of the run (fail-stop);
its job requeues FIFO onto the surviving nodes with checkpoint-restart
semantics — a configurable fraction of the work done since the last
checkpoint is lost and must be replayed, and the replayed energy is booked
as *wasted*.

Everything is pure data + a seeded draw, so the same seed reproduces the
same failure log bit-for-bit regardless of pool width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExperimentError
from repro.sim.rng import spawn_generator
from repro.units import require_finite

__all__ = ["NodeFailureModel", "NodeFailureEvent", "Segment"]


@dataclass(frozen=True)
class NodeFailureModel:
    """MTBF-style fail-stop node deaths with checkpoint-restart semantics.

    Parameters
    ----------
    mtbf_s:
        Mean time between failures per node (cluster seconds).  Each node's
        time of death is one exponential draw with this mean; nodes whose
        draw lands past the schedule simply never fail (with ``inf``, no
        node does).  NaN is refused, here and in ``restart_delay_s``.
    seed:
        Seeds the death-time draws (one :func:`numpy.random.default_rng`
        stream, consumed in node-id order).
    restart_delay_s:
        Delay between a failure and the job becoming eligible to run again
        (re-scheduling + checkpoint-load time).
    lost_work_fraction:
        Fraction of the work done in the killed execution segment that is
        lost and must be re-executed.  ``1.0`` (default) models no
        checkpointing — the segment restarts from its beginning; ``0.0``
        models perfect continuous checkpointing.
    """

    mtbf_s: float
    seed: int = 0
    restart_delay_s: float = 5.0
    lost_work_fraction: float = 1.0

    def __post_init__(self) -> None:
        # The range checks below are comparisons, which NaN passes.
        for name in ("mtbf_s", "restart_delay_s"):
            require_finite(
                getattr(self, name),
                error=lambda value, name=name: ExperimentError(f"{name} must not be NaN"),
                allow_inf=True,
            )
        if self.mtbf_s <= 0:
            raise ExperimentError(f"mtbf_s must be positive, got {self.mtbf_s!r}")
        if self.restart_delay_s < 0:
            raise ExperimentError(
                f"restart_delay_s must be >= 0, got {self.restart_delay_s!r}"
            )
        if not 0.0 <= self.lost_work_fraction <= 1.0:
            raise ExperimentError(
                f"lost_work_fraction must be in [0, 1], got {self.lost_work_fraction!r}"
            )

    def death_times(self, n_nodes: int) -> np.ndarray:
        """Absolute cluster time at which each node fail-stops.

        One exponential draw per node from the model seed; deterministic in
        ``n_nodes`` (growing the fleet keeps the first nodes' draws).
        """
        if n_nodes < 1:
            raise ExperimentError(f"n_nodes must be >= 1, got {n_nodes!r}")
        rng = spawn_generator(self.seed)
        return rng.exponential(self.mtbf_s, size=n_nodes)


@dataclass(frozen=True)
class NodeFailureEvent:
    """One node death that interrupted a running job."""

    #: Node that fail-stopped (gone for the rest of the run).
    node_id: int
    #: Cluster time of the failure.
    time_s: float
    #: Job that was executing on the node.
    job_name: str
    #: Work (job-seconds) lost to the failure and replayed after requeue.
    lost_work_s: float
    #: Energy spent on the lost work (booked against the fleet as waste).
    wasted_energy_j: float


@dataclass(frozen=True)
class Segment:
    """One contiguous execution interval of a job on one node.

    A job that never sees a failure has exactly one segment covering its
    whole runtime; each failure splits off a further segment that resumes
    at the checkpointed ``offset_s`` into the job's power profile.
    """

    #: Node the segment ran on.
    node_id: int
    #: Cluster time the segment started.
    start_s: float
    #: Job-local progress (seconds into the job profile) at segment start.
    offset_s: float
    #: Segment length (cluster seconds == job-profile seconds).
    duration_s: float

    @property
    def end_s(self) -> float:
        """Cluster time the segment ended (completion or failure)."""
        return self.start_s + self.duration_s
