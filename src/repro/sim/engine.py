"""The engine core: clock + physics step + observer dispatch.

Each step the engine:

1. asks the workload execution for the active segment (or idle),
2. bounds the step's span: how many ticks every observer, the horizon and
   the workload's segment allow to pass as one (DESIGN.md §6q),
3. steps the node (uncore slew → memory service → DVFS → power) by that
   span, or by one tick when the node's inputs do not repeat,
4. advances workload progress by ``dt / stretch`` nominal seconds per tick
   (the roofline stretch is where an underfed uncore costs runtime),
5. dispatches every :class:`~repro.sim.observers.TickObserver` in order
   (telemetry advancement, trace-channel capture, scheduled-runtime
   firing all live here as observers),
6. appends the step's trace rows through the recorder's
   :meth:`~repro.sim.trace.TraceRecorder.record_rows`.

A single tick is the span of one, so there is one stepping path.
:func:`lockstep` runs several started engines together, stepping their
nodes as one :class:`~repro.hw.node.NodeBatch`; :meth:`SimulationEngine.run`
is the lockstep of one engine, so there is one tick loop.

The engine knows nothing about trace channels, telemetry devices or
governor scheduling — those concerns arrive as observers, composed by the
layers above (:func:`repro.sim.observers.standard_observers` builds the
canonical stack). Everything above this module is policy; everything below
is physics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.channels import ChannelRegistry
from repro.sim.clock import SimClock
from repro.sim.observers import ScheduledRuntime, TickObserver
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # typing-only: sim is the bottom layer and must not
    # runtime-import the hardware/workload packages built on it.
    from repro.hw.node import HeterogeneousNode, NodeTickState
    from repro.workloads.base import Workload, WorkloadExecution

__all__ = [
    "ScheduledRuntime",
    "EngineResult",
    "SimulationEngine",
    "lockstep",
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
        #: Set per run: the channel schema, shared row block (one row per
        #: tick of a step; ``trace_row`` is its first row) and recorder
        #: (observers grab these in ``on_start``).
        self.registry: Optional[ChannelRegistry] = None
        self.trace_rows: Optional[np.ndarray] = None
        self.trace_row: Optional[np.ndarray] = None
        self.recorder: Optional[TraceRecorder] = None
        #: The started run :func:`lockstep` steps next (``None`` otherwise).
        self._run: Optional[_Run] = None

    def start(
        self,
        workload: Optional["Workload"] = None,
        *,
        max_time_s: float = 600.0,
        safety_factor: float = 4.0,
    ) -> None:
        """Prepare a run for :func:`lockstep` without stepping it.

        Builds the run's channel schema, recorder and row block, then calls
        every observer's ``on_start``. The recorder starts with one row per
        tick up to the horizon (at most 1024 rows, growing past that), so
        runs held live together cost no more memory than the ticks they
        record. The row block holds the longest span the node can step. The
        arguments are :meth:`run`'s.
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
            expected = self.clock.ticks_until(horizon) + 1
            recorder: Optional[TraceRecorder] = TraceRecorder(
                registry.channels, expected_rows=expected
            )
            rows: Optional[np.ndarray] = recorder.row_block(
                min(expected, self.node.max_span_ticks)
            )
        else:
            recorder = None
            rows = None
        self.recorder = recorder
        self.trace_rows = rows
        self.trace_row = rows[0] if rows is not None else None

        for obs in self.observers:
            obs.on_start(self)
        self._run = _Run(self, execution, horizon)

    def run(
        self,
        workload: Optional["Workload"] = None,
        *,
        max_time_s: float = 600.0,
        safety_factor: float = 4.0,
    ) -> EngineResult:
        """Simulate until the workload completes or the horizon is reached.

        :meth:`start`, then the :func:`lockstep` of this one engine.

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
        self.start(workload, max_time_s=max_time_s, safety_factor=safety_factor)
        ((_, result),) = lockstep([self])
        return result


class _Run:
    """A started engine's loop state, as :func:`lockstep` steps it."""

    __slots__ = (
        "engine",
        "index",
        "node",
        "clock",
        "execution",
        "horizon",
        "hooks",
        "bounds",
        "limit",
        "record",
        "rows",
    )

    def __init__(
        self, engine: SimulationEngine, execution: Optional["WorkloadExecution"], horizon: float
    ) -> None:
        self.engine = engine
        #: Position in the engines :func:`lockstep` was given.
        self.index = 0
        self.node = engine.node
        self.clock = engine.clock
        self.execution = execution
        self.horizon = horizon
        self.hooks: List[Callable[["NodeTickState", Optional["WorkloadExecution"]], None]] = [
            obs.on_tick for obs in engine.observers
        ]
        # The observers' span hooks; None when some observer has none, which
        # steps every tick of the run alone.
        bounds = [getattr(obs, "quiet_ticks", None) for obs in engine.observers]
        self.bounds: Optional[List[Callable[[int], int]]] = None if None in bounds else bounds
        recorder = engine.recorder
        self.record = recorder.record_rows if recorder is not None else None
        self.rows = engine.trace_rows
        #: The longest span the run's row block holds.
        self.limit = len(self.rows) if self.rows is not None else engine.node.max_span_ticks

    def end(self, runtime_s: float) -> EngineResult:
        """Close the run at ``runtime_s``: build its result, call ``on_finish``."""
        execution = self.execution
        result = EngineResult(
            recorder=self.engine.recorder,
            runtime_s=runtime_s,
            completed=execution is None or execution.done,
            horizon_s=self.horizon,
        )
        for obs in self.engine.observers:
            obs.on_finish(result)
        return result


def _span(live: List[_Run], dt: float) -> int:
    """How many ticks the live runs' next step may span, at least 1.

    Every live run has its observers' span hooks. The span is the smallest
    of each run's bounds: its row block, every span hook, the ticks until
    its horizon and, for a workload, the ticks before the advance that
    would roll its segment. That last bound assumes the stretch of the
    node's previous tick; the node batch steps a span only when that tick's
    physics repeats, and steps one tick otherwise.
    """
    limit = live[0].limit
    for run in live:
        bounds = run.bounds
        assert bounds is not None
        for bound in bounds:
            limit = bound(limit)
            if limit == 1:
                return 1
        # The tick whose end reaches the horizon is the run's last one.
        limit = min(limit, run.limit, run.clock.ticks_before(run.horizon, limit) + 1)
        execution = run.execution
        if execution is not None:
            previous = run.node.last_state
            if previous is None:
                return 1
            limit = execution.quiet_ticks(dt / previous.stretch, limit)
        if limit == 1:
            return 1
    return limit


def lockstep(engines: Sequence[SimulationEngine]) -> Iterator[Tuple[int, EngineResult]]:
    """Run started engines together, one step at a time.

    Each step, every live run in input order first checks whether it has
    reached its horizon or completed its workload. A run that has leaves
    the lockstep: its observers' ``on_finish`` runs, ``(its index in
    engines, its result)`` is yielded, and its node draws nothing more.
    The other runs' nodes step as one :class:`~repro.hw.node.NodeBatch`,
    for the shortest span any run allows (DESIGN.md §6q), then each run in
    turn advances its workload by ``dt / stretch`` per tick, dispatches its
    observers, records its rows and advances its clock. Runs share nothing
    but the batch, so each run's trace is bit-identical to the same engine
    run alone (DESIGN.md §6n).

    Every engine must have been :meth:`~SimulationEngine.start`-ed, and all
    must share one tick width; both are checked before this returns. The
    iterator holds only the live runs, so an ended run's engine, recorder
    and observers are freed once the caller drops them.
    """
    live: List[_Run] = []
    for engine in engines:
        run = engine._run
        if run is None:
            raise SimulationError("lockstep needs started engines; call start() first")
        live.append(run)
    if live and any(run.clock.dt != live[0].clock.dt for run in live):
        raise SimulationError("lockstep runs must share one tick width")
    for index, run in enumerate(live):
        run.engine._run = None
        run.index = index
    return _step_runs(live)


def _step_runs(live: List[_Run]) -> Iterator[Tuple[int, EngineResult]]:
    """:func:`lockstep`'s tick loop over its started runs."""
    if not live:
        return
    dt = live[0].clock.dt
    # The sim layer imports repro.hw for typing only, so the node class
    # builds the batch.
    batch = live[0].node.batch([run.node for run in live])
    # Whether every live run has its observers' span hooks; a run without
    # them steps the batch one tick at a time.
    hooked = all(run.bounds is not None for run in live)
    # A run's end condition is tested at the top of a step; the first step
    # tests every run, and later ones only after some run's step ended on
    # its horizon or on its workload's completion.
    due = True
    while True:
        if due:
            staying = []
            for run in live:
                execution = run.execution
                now = run.clock.now
                if now >= run.horizon:
                    yield run.index, run.end(run.horizon)
                elif execution is not None and execution.done:
                    yield run.index, run.end(now)
                else:
                    staying.append(run)
            if not staying:
                return
            if len(staying) != len(live):
                live = staying
                batch = live[0].node.batch([run.node for run in live])
                hooked = all(run.bounds is not None for run in live)
            due = False
        segments = [run.execution.current() if run.execution is not None else None for run in live]
        for run, state in zip(live, batch.step(dt, segments, _span(live, dt) if hooked else 1)):
            ticks = state.ticks
            execution = run.execution
            if execution is not None:
                execution.advance(dt / state.stretch, ticks)
            for hook in run.hooks:
                hook(state, execution)
            if run.record is not None:
                run.record(state.tick_time_s, run.rows)
            if run.clock.advance(ticks) >= run.horizon or (execution is not None and execution.done):
                due = True
