"""The engine core: clock + physics step + observer dispatch.

Each step the engine:

1. asks the workload execution for the active segment (or idle),
2. settles the step's first tick on the node (uncore slew → memory
   service → uncore, DRAM and GPU power), which says the tick's stretch
   and whether every socket is settled,
3. bounds the step's span: how many ticks every observer, the horizon and
   the workload's segment allow to pass as one, up to a runtime's firing
   tick or the tick that rolls the segment (DESIGN.md §6q); one tick while
   a socket is not settled,
4. steps the node (DVFS → power) by that span,
5. advances workload progress by ``dt / stretch`` nominal seconds per tick
   (the roofline stretch is where an underfed uncore costs runtime),
6. dispatches every :class:`~repro.sim.observers.TickObserver` in order
   (telemetry advancement, trace-channel capture, scheduled-runtime
   firing all live here as observers),
7. appends the step's trace rows through the recorder's
   :meth:`~repro.sim.trace.TraceRecorder.record_rows`.

A single tick is the span of one, so there is one stepping path and one
run loop, :meth:`SimulationEngine.run`. A fleet runs its jobs one after
another, each engine alone on its own spans (DESIGN.md §6n).

The engine knows nothing about trace channels, telemetry devices or
governor scheduling — those concerns arrive as observers, composed by the
layers above (:func:`repro.sim.observers.standard_observers` builds the
canonical stack). Everything above this module is policy; everything below
is physics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.channels import ChannelRegistry
from repro.sim.clock import SimClock
from repro.sim.observers import ScheduledRuntime, TickObserver
from repro.sim.trace import TraceRecorder
from repro.units import require_finite

if TYPE_CHECKING:  # typing-only: sim is the bottom layer and must not
    # runtime-import the hardware/workload packages built on it.
    from repro.hw.node import HeterogeneousNode
    from repro.workloads.base import Workload, WorkloadExecution

__all__ = [
    "ScheduledRuntime",
    "EngineResult",
    "SimulationEngine",
]


def _bad_safety_factor(factor: float) -> SimulationError:
    return SimulationError(f"safety_factor must be finite and positive, got {factor!r}")


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
        #: Set per run: the channel schema, shared row block (one row per
        #: tick of a step; ``trace_row`` is its first row) and recorder
        #: (observers grab these in ``on_start``).
        self.registry: Optional[ChannelRegistry] = None
        self.trace_rows: Optional[np.ndarray] = None
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

        The run first builds its channel schema, recorder and row block,
        then calls every observer's ``on_start``. The recorder starts with
        one row per tick up to the horizon (at most 1024 rows, growing past
        that); the row block holds the longest span the node can step.

        Each step first checks whether the run has reached its horizon or
        completed its workload; if it has, the observers' ``on_finish``
        runs and the result is returned. Otherwise the node settles the
        step's first tick and, while every socket is settled, steps for the
        longest span every bound allows (DESIGN.md §6q), else for one tick;
        the workload advances by ``dt / stretch`` per tick, the observers
        are dispatched, the step's rows are recorded and the clock
        advances.

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
            experiments can report it. It must be finite and positive.
        """
        # NaN passes the comparison below; only a workload run's safety
        # factor caps an infinite horizon.
        require_finite(
            max_time_s,
            error=lambda t: SimulationError(f"max_time_s must be finite, got {t!r}"),
            allow_inf=workload is not None,
        )
        if max_time_s <= 0:
            raise SimulationError(f"max_time_s must be positive, got {max_time_s!r}")
        require_finite(safety_factor, error=_bad_safety_factor)
        if safety_factor <= 0:
            raise _bad_safety_factor(safety_factor)
        execution: Optional["WorkloadExecution"] = workload.execution() if workload is not None else None
        horizon = max_time_s
        if workload is not None:
            horizon = min(max_time_s, workload.nominal_duration_s * safety_factor)

        node = self.node
        clock = self.clock
        observers = self.observers
        registry = ChannelRegistry()
        for obs in observers:
            declare = getattr(obs, "declare_channels", None)
            if declare is not None:
                declare(registry)
        registry.freeze()
        self.registry = registry
        if len(registry):
            expected = clock.ticks_until(horizon) + 1
            recorder: Optional[TraceRecorder] = TraceRecorder(
                registry.channels, expected_rows=expected
            )
            rows: Optional[np.ndarray] = recorder.row_block(min(expected, node.max_span_ticks))
        else:
            recorder = None
            rows = None
        self.recorder = recorder
        self.trace_rows = rows
        self.trace_row = rows[0] if rows is not None else None
        for obs in observers:
            obs.on_start(self)

        hooks = [obs.on_tick for obs in observers]
        # The observers' span hooks; an observer without one steps every
        # tick of the run alone.
        bounds: List[Callable[[int], int]] = [
            getattr(obs, "quiet_ticks", _one_tick) for obs in observers
        ]
        record = recorder.record_rows if recorder is not None else None
        # The longest span the row block holds.
        limit = len(rows) if rows is not None else node.max_span_ticks
        dt = clock.dt
        settle = node.settle
        step = node.step
        now = clock.now
        while now < horizon and not (execution is not None and execution.done):
            segment = execution.current() if execution is not None else None
            stretch, steady = settle(dt, segment)
            # The workload's nominal time per tick of the step.
            nominal_dt = dt / stretch
            ticks = _span(clock, execution, horizon, bounds, limit, nominal_dt) if steady else 1
            state = step(dt, segment, ticks)
            ticks = state.ticks
            if execution is not None:
                execution.advance(nominal_dt, ticks)
            for hook in hooks:
                hook(state, execution)
            if record is not None:
                record(state.tick_time_s, rows)
            now = clock.advance(ticks)

        result = EngineResult(
            recorder=recorder,
            runtime_s=horizon if now >= horizon else now,
            completed=execution is None or execution.done,
            horizon_s=horizon,
        )
        for obs in observers:
            obs.on_finish(result)
        return result


def _one_tick(limit: int) -> int:
    """The span hook of an observer that has none."""
    return 1


def _span(
    clock: SimClock,
    execution: Optional["WorkloadExecution"],
    horizon: float,
    bounds: List[Callable[[int], int]],
    limit: int,
    nominal_dt: float,
) -> int:
    """How many ticks the run's next step may span, at least 1.

    The span is the smallest of the run's bounds: ``limit`` (its row
    block), every span hook, the ticks up to the one that reaches the
    horizon and, for a workload, the advances of ``nominal_dt`` up to the
    one that rolls its segment. ``nominal_dt`` is the step's first tick's,
    which the node settled; the engine asks only while the node is steady,
    so every tick of the span repeats it.
    """
    for bound in bounds:
        limit = bound(limit)
        if limit == 1:
            return 1
    # The tick whose end reaches the horizon is the run's last one.
    limit = min(limit, clock.ticks_before(horizon, limit) + 1)
    if execution is not None and limit > 1:
        limit = execution.quiet_ticks(nominal_dt, limit)
    return limit
