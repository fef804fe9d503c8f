"""The engine core: clock + physics step + observer dispatch.

Each tick the engine:

1. asks the workload execution for the active segment (or idle),
2. steps the node (uncore slew → memory service → DVFS → power),
3. advances workload progress by ``dt / stretch`` nominal seconds (the
   roofline stretch is where an underfed uncore costs runtime),
4. dispatches every :class:`~repro.sim.observers.TickObserver` in order
   (telemetry advancement, trace-channel capture, scheduled-runtime
   firing all live here as observers),
5. flushes the shared trace row through the recorder's columnar
   :meth:`~repro.sim.trace.TraceRecorder.record_row` fast path.

The engine knows nothing about trace channels, telemetry devices or
governor scheduling — those concerns arrive as observers, composed by the
layers above (:func:`repro.sim.observers.standard_observers` builds the
canonical stack). Everything above this module is policy; everything below
is physics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.channels import ChannelRegistry
from repro.sim.clock import SimClock
from repro.sim.observers import ScheduledRuntime, TickObserver
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # typing-only: sim is the bottom layer and must not
    # runtime-import the hardware/workload packages built on it.
    from repro.hw.node import HeterogeneousNode
    from repro.workloads.base import Workload, WorkloadExecution

__all__ = [
    "ScheduledRuntime",
    "EngineResult",
    "SimulationEngine",
]


@dataclass
class EngineResult:
    """Outcome of one simulated run.

    Attributes
    ----------
    recorder:
        The per-tick trace of every registered channel (``None`` only when
        the engine ran with no channel-declaring observers).
    runtime_s:
        Simulated time at which the workload completed (equals the horizon
        for idle runs or timeouts).
    completed:
        Whether the workload ran to completion before the horizon.
    horizon_s:
        The configured maximum simulated time.
    """

    recorder: Optional[TraceRecorder]
    runtime_s: float
    completed: bool
    horizon_s: float


class SimulationEngine:
    """Drives one node through one (optional) workload under some observers.

    Parameters
    ----------
    node:
        The hardware node.
    observers:
        The full observer stack, dispatched in order every tick. Compose
        with :func:`~repro.sim.observers.standard_observers` (telemetry
        advancement, node-state + per-core trace capture, runtime firing)
        or build your own.
    clock:
        The simulation clock; a fresh 10 ms clock is created if omitted.
    """

    def __init__(
        self,
        node: "HeterogeneousNode",
        *,
        observers: Sequence[TickObserver],
        clock: Optional[SimClock] = None,
    ) -> None:
        self.node = node
        self.observers: List[TickObserver] = list(observers)
        self.clock = clock if clock is not None else SimClock()
        #: Set per run: the channel schema, shared row buffer and recorder
        #: (observers grab these in ``on_start``).
        self.registry: Optional[ChannelRegistry] = None
        self.trace_row: Optional[np.ndarray] = None
        self.recorder: Optional[TraceRecorder] = None

    def run(
        self,
        workload: Optional["Workload"] = None,
        *,
        max_time_s: float = 600.0,
        safety_factor: float = 4.0,
    ) -> EngineResult:
        """Simulate until the workload completes or the horizon is reached.

        Parameters
        ----------
        workload:
            The application to execute, or ``None`` for an idle run (used by
            the overhead experiments) — idle runs last exactly
            ``max_time_s``.
        max_time_s:
            Hard simulated-time horizon.
        safety_factor:
            For workload runs, the horizon is additionally capped at
            ``safety_factor × nominal duration``; a run hitting that cap
            signals a governor pathologically starving the workload, which
            is surfaced via ``completed=False`` rather than an exception so
            experiments can report it.
        """
        if max_time_s <= 0:
            raise SimulationError(f"max_time_s must be positive, got {max_time_s!r}")
        execution: Optional["WorkloadExecution"] = workload.execution() if workload is not None else None
        horizon = max_time_s
        if workload is not None:
            horizon = min(max_time_s, workload.nominal_duration_s * safety_factor)

        registry = ChannelRegistry()
        for obs in self.observers:
            declare = getattr(obs, "declare_channels", None)
            if declare is not None:
                declare(registry)
        registry.freeze()
        self.registry = registry
        if len(registry):
            recorder: Optional[TraceRecorder] = TraceRecorder(registry.channels)
            row: Optional[np.ndarray] = recorder.row_buffer()
        else:
            recorder = None
            row = None
        self.recorder = recorder
        self.trace_row = row

        for obs in self.observers:
            obs.on_start(self)

        clock = self.clock
        dt = clock.dt
        tick_hooks = [obs.on_tick for obs in self.observers]
        node_step = self.node.step
        record_row = recorder.record_row if recorder is not None else None

        completed = execution is None
        runtime_s = horizon
        while True:
            now = clock.now
            if now >= horizon:
                break
            if execution is not None and execution.done:
                completed = True
                runtime_s = now
                break

            segment = execution.current() if execution is not None else None
            state = node_step(dt, segment)
            if execution is not None:
                execution.advance(dt / state.stretch)
            for hook in tick_hooks:
                hook(state, execution)
            if record_row is not None:
                record_row(state.time_s, row)
            clock.advance()

        if execution is not None and execution.done:
            completed = True
            runtime_s = min(runtime_s, clock.now)
        result = EngineResult(
            recorder=recorder,
            runtime_s=runtime_s,
            completed=completed,
            horizon_s=horizon,
        )
        for obs in self.observers:
            obs.on_finish(result)
        return result
