"""Core workload datatypes.

A workload is a list of :class:`Segment` phases.  Each segment is described
in *nominal* time — the time it takes when the hardware fully satisfies its
demand.  During simulation the engine stretches segments whose memory demand
exceeds the bandwidth the uncore currently delivers (see
:meth:`repro.hw.memory.MemorySubsystem.service`), so the *executed* duration
of a workload depends on the governor under test.  That stretch is the
performance-loss mechanism the paper measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.units import ordered_sum, require_finite

__all__ = ["Segment", "Workload", "WorkloadExecution"]

#: A segment ends once the nominal time consumed in it is within this of its
#: duration (float residue of many small advances).
_END_SLACK_S = 1e-12


@dataclass(frozen=True)
class Segment:
    """One application phase, in nominal (unstretched) time.

    Parameters
    ----------
    duration_s:
        Nominal duration in seconds; must be finite and positive.
    mem_bw_gbps:
        Host memory throughput demand in GB/s (system total, the quantity
        Intel PCM reports); finite and not negative. Zero for pure-compute
        phases.
    mem_intensity:
        Fraction of the phase's critical path that is bound on host memory
        traffic, in [0, 1]. Controls how much the phase stretches when its
        demand is not met: stretch = (1 - mi) + mi * demand/delivered.
    cpu_util:
        Average CPU core utilisation in [0, 1] (drives core DVFS + power).
    gpu_util:
        Average GPU utilisation in [0, 1] (drives SM clock + GPU power).
    name:
        Optional label for debugging and trace annotation.
    """

    duration_s: float
    mem_bw_gbps: float
    mem_intensity: float = 0.5
    cpu_util: float = 0.1
    gpu_util: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        # NaN passes the bandwidth check below, and an infinite duration or
        # demand passes both: a run could never end its segment, or would
        # divide by an infinite stretch.
        require_finite(
            self.duration_s,
            self.mem_bw_gbps,
            error=lambda duration, demand: WorkloadError(
                f"segment {self.name!r}: duration and bandwidth demand must be finite, "
                f"got {duration!r} and {demand!r}"
            ),
        )
        if not (self.duration_s > 0):
            raise WorkloadError(f"segment {self.name!r}: duration must be positive, got {self.duration_s!r}")
        if self.mem_bw_gbps < 0:
            raise WorkloadError(f"segment {self.name!r}: negative bandwidth demand {self.mem_bw_gbps!r}")
        for attr in ("mem_intensity", "cpu_util", "gpu_util"):
            v = getattr(self, attr)
            if not (0.0 <= v <= 1.0):
                raise WorkloadError(f"segment {self.name!r}: {attr} must be in [0, 1], got {v!r}")


@dataclass(frozen=True)
class Workload:
    """A named, ordered sequence of :class:`Segment` phases.

    Instances are immutable; the mutable execution cursor lives in
    :class:`WorkloadExecution` so one workload object can be run under many
    governors without re-construction (important for paired baseline/method
    comparisons, which must see the *same* demand trace).
    """

    name: str
    segments: Tuple[Segment, ...]
    description: str = ""
    tags: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("workload name must be non-empty")
        if not self.segments:
            raise WorkloadError(f"workload {self.name!r} has no segments")
        object.__setattr__(self, "segments", tuple(self.segments))
        object.__setattr__(self, "tags", tuple(self.tags))

    @property
    def nominal_duration_s(self) -> float:
        """Total nominal duration (the runtime at fully satisfied demand)."""
        return float(ordered_sum(s.duration_s for s in self.segments))

    @property
    def peak_demand_gbps(self) -> float:
        """Largest memory-throughput demand of any segment."""
        return float(max(s.mem_bw_gbps for s in self.segments))

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self) -> Iterator[Segment]:
        return iter(self.segments)

    def demand_series(self, period_s: float) -> Tuple[np.ndarray, np.ndarray]:
        """Sample the nominal demand trace on a regular ``period_s`` grid.

        Returns ``(times, demand_gbps)`` where sample ``i`` is the demand at
        nominal time ``i * period_s``.  Used by analyses that need the
        demand independent of any execution (e.g. burst statistics).
        """
        if period_s <= 0:
            raise WorkloadError(f"period must be positive, got {period_s!r}")
        boundaries = np.cumsum([0.0, *(s.duration_s for s in self.segments)])
        times = np.arange(0.0, boundaries[-1], period_s)
        idx = np.minimum(np.searchsorted(boundaries, times, side="right") - 1, len(self.segments) - 1)
        demand = np.array([self.segments[i].mem_bw_gbps for i in idx])
        return times, demand

    def execution(self) -> "WorkloadExecution":
        """Create a fresh execution cursor positioned at the start."""
        return WorkloadExecution(self)

    def scaled(self, factor: float, name: Optional[str] = None) -> "Workload":
        """Return a copy with every segment duration multiplied by ``factor``.

        Handy for building short smoke-test variants of long workloads.
        """
        if factor <= 0:
            raise WorkloadError(f"scale factor must be positive, got {factor!r}")
        segs = tuple(
            Segment(
                duration_s=s.duration_s * factor,
                mem_bw_gbps=s.mem_bw_gbps,
                mem_intensity=s.mem_intensity,
                cpu_util=s.cpu_util,
                gpu_util=s.gpu_util,
                name=s.name,
            )
            for s in self.segments
        )
        return Workload(name or f"{self.name}@x{factor:g}", segs, self.description, self.tags)


class WorkloadExecution:
    """A mutable cursor tracking progress through a workload.

    The engine calls :meth:`current` each step to learn the active demand and
    :meth:`advance` with the amount of *nominal* time that elapsed per tick
    (wall time divided by the stretch factor) and the step's tick count.
    When a tick spans a segment boundary the cursor rolls into the next
    segment, consuming the remainder. :meth:`quiet_ticks` says how many
    ticks one step can take: up to the one whose advance rolls.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self._index = 0
        self._consumed_in_segment = 0.0
        self._nominal_done = 0.0
        # The workload is immutable: size it once, not on every tick.
        self._n_segments = len(workload.segments)
        self._nominal_total_s = workload.nominal_duration_s
        #: :attr:`progress` after each tick of the latest :meth:`advance`.
        self.tick_progress: List[float] = [0.0]

    @property
    def done(self) -> bool:
        """True once every segment has been fully executed."""
        return self._index >= self._n_segments

    @property
    def progress(self) -> float:
        """Fraction of nominal work completed, in [0, 1].

        Exactly 1.0 once :attr:`done` (guarding against float residue from
        accumulating many tiny advances).
        """
        if self.done:
            return 1.0
        return min(1.0, self._nominal_done / self._nominal_total_s)

    @property
    def segment_index(self) -> int:
        """Index of the segment the cursor is currently in."""
        return self._index

    def current(self) -> Segment:
        """The segment currently executing.

        Raises
        ------
        WorkloadError
            If the workload has already completed.
        """
        if self._index >= self._n_segments:
            raise WorkloadError(f"workload {self.workload.name!r} already complete")
        return self.workload.segments[self._index]

    def advance(self, nominal_dt: float, ticks: int = 1) -> None:
        """Consume ``nominal_dt`` seconds of nominal work in each of ``ticks``
        ticks, one tick after another.

        Rolls over segment boundaries; any nominal time left after the final
        segment is discarded (the application has exited). Records the
        progress after each tick in :attr:`tick_progress`.
        """
        if nominal_dt < 0:
            raise WorkloadError(f"cannot advance by negative time {nominal_dt!r}")
        if ticks < 1:
            raise WorkloadError(f"cannot advance by {ticks!r} ticks")
        segments = self.workload.segments
        n_segments = self._n_segments
        index = self._index
        consumed = self._consumed_in_segment
        done = self._nominal_done
        progress: List[float] = []
        while ticks:
            ticks -= 1
            remaining = nominal_dt
            while remaining > 0 and index < n_segments:
                seg = segments[index]
                left_in_seg = seg.duration_s - consumed
                step = min(remaining, left_in_seg)
                consumed += step
                done += step
                remaining -= step
                if consumed >= seg.duration_s - _END_SLACK_S:
                    index += 1
                    consumed = 0.0
            progress.append(1.0 if index >= n_segments else min(1.0, done / self._nominal_total_s))
        self._index = index
        self._consumed_in_segment = consumed
        self._nominal_done = done
        self.tick_progress = progress

    def quiet_ticks(self, nominal_dt: float, limit: int) -> int:
        """How many of the next ``limit`` advances of ``nominal_dt`` one
        step can take, at least 1: up to and including the advance that
        rolls the segment.

        Replays :meth:`advance`'s own arithmetic on the segment's consumed
        time. The rolling advance may close a span: that tick runs under
        the segment it leaves, and the roll happens inside its own advance,
        so the span's ticks all share one segment.
        """
        if self.done:
            return 1
        if not nominal_dt > 0:
            return limit  # an advance of nothing never rolls
        duration = self.workload.segments[self._index].duration_s
        consumed = self._consumed_in_segment
        # Whether or not the limit-th advance rolls, the span may take it.
        for quiet in range(1, limit):
            consumed += min(nominal_dt, duration - consumed)
            if consumed >= duration - _END_SLACK_S:
                return quiet
        return max(1, limit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadExecution({self.workload.name!r}, segment={self._index}/"
            f"{len(self.workload.segments)}, progress={self.progress:.1%})"
        )
