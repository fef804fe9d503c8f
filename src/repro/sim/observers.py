"""Tick observers: the pluggable per-tick hooks around the engine core.

The engine itself is only clock + physics step + observer dispatch
(:mod:`repro.sim.engine`). Everything else that used to be welded into the
tick loop — telemetry advancement, trace recording, per-core frequency
capture, scheduled-runtime (governor daemon) firing — is an observer
implementing the three-hook :class:`TickObserver` protocol:

* ``on_start(engine)`` — once, before the first tick; the engine's clock,
  registry, row block and recorder are available.
* ``on_tick(state, execution)`` — every step, after the physics step and
  workload advancement; ``state`` is the node's
  :class:`~repro.hw.node.NodeTickState`, ``execution`` the in-flight
  :class:`~repro.workloads.base.WorkloadExecution` (or ``None`` when idle).
* ``on_finish(result)`` — once, after the horizon or completion.

Observers are dispatched **in list order** each step; the standard stack
orders telemetry before trace capture before runtime firing, which is the
exact sequencing of the pre-refactor monolithic loop.

A step is a span of ``state.ticks`` ticks (DESIGN.md §6q). An observer that
can take a span in one call implements the span hook ``quiet_ticks(limit)``:
how many of the next ``limit`` ticks, at least 1, it can take as one step.
Its ``on_tick`` then accounts for every tick of the span (the state's
``tick_`` columns, :attr:`~repro.workloads.base.WorkloadExecution.tick_progress`).
An observer without the hook bounds every step of its run to one tick, so
it sees each tick alone, as before.

An observer that records trace channels additionally implements
``declare_channels(registry)`` (detected by the engine via ``hasattr``) and
writes its columns into the first ``state.ticks`` rows of the engine's
shared row block (``engine.trace_rows``; ``engine.trace_row`` is its first
row) during ``on_tick``; the engine appends the completed rows through the
recorder's :meth:`~repro.sim.trace.TraceRecorder.record_rows`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Protocol, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.channels import ChannelRegistry

if TYPE_CHECKING:  # typing-only: sim is the bottom layer and must not
    # runtime-import the hardware/telemetry/workload packages built on it.
    from repro.hw.node import HeterogeneousNode, NodeTickState
    from repro.sim.clock import SimClock
    from repro.sim.engine import EngineResult, SimulationEngine
    from repro.telemetry.hub import TelemetryHub
    from repro.workloads.base import WorkloadExecution

__all__ = [
    "TickObserver",
    "ScheduledRuntime",
    "DegradedSource",
    "BaseTickObserver",
    "TelemetryObserver",
    "NodeStateObserver",
    "CoreFrequencyObserver",
    "DegradedStateObserver",
    "RuntimeObserver",
    "core_freq_channels",
    "standard_observers",
]


class TickObserver(Protocol):
    """Structural protocol for engine observers (duck-typed)."""

    def on_start(self, engine: "SimulationEngine") -> None:
        """Called once before the first tick."""

    def on_tick(self, state: "NodeTickState", execution: Optional["WorkloadExecution"]) -> None:
        """Called every step after the physics step."""

    def on_finish(self, result: "EngineResult") -> None:
        """Called once after the run ends."""


class ScheduledRuntime(Protocol):
    """A daemon that wakes at self-chosen times (a governor's monitor loop)."""

    def start(self, now_s: float) -> None:
        """Called once when the simulation begins."""

    def next_fire_s(self) -> float:
        """Simulated time of the next wanted invocation (``inf`` = never)."""

    def invoke(self, now_s: float) -> None:
        """Perform one monitoring/decision cycle at ``now_s``."""


class BaseTickObserver:
    """No-op base class; concrete observers override what they need."""

    def on_start(self, engine: "SimulationEngine") -> None:
        pass

    def on_tick(self, state: "NodeTickState", execution: Optional["WorkloadExecution"]) -> None:
        pass

    def on_finish(self, result: "EngineResult") -> None:
        pass


class TelemetryObserver(BaseTickObserver):
    """Advances a node's telemetry hub by every tick of each step.

    Governors read the hub's accumulators; this observer must therefore be
    ordered *before* :class:`RuntimeObserver` so a firing daemon sees
    counters that include the current tick (the pre-refactor sequencing).
    """

    def __init__(self, hub: "TelemetryHub") -> None:
        self.hub = hub
        self._dt = 0.0

    def on_start(self, engine: "SimulationEngine") -> None:
        if self.hub.node is not engine.node:
            raise SimulationError("telemetry hub is bound to a different node")
        self._dt = engine.clock.dt

    def quiet_ticks(self, limit: int) -> int:
        """The span hook: the hub's, which knows what its devices fold."""
        return self.hub.quiet_ticks(self._dt, limit)

    def on_tick(self, state: "NodeTickState", execution: Optional["WorkloadExecution"]) -> None:
        self.hub.on_tick(self._dt)

    def on_finish(self, result: "EngineResult") -> None:
        self.hub.on_finish()


class NodeStateObserver(BaseTickObserver):
    """Records the node-level tick state plus workload progress.

    Owns the scalar channels every analysis depends on: memory demand and
    delivery, stretch, uncore target/effective frequency, the power-domain
    breakdown, IPC/clock means and progress.
    """

    CHANNELS = (
        "demand_gbps",
        "delivered_gbps",
        "stretch",
        "uncore_target_ghz",
        "uncore_effective_ghz",
        "core_w",
        "uncore_w",
        "dram_w",
        "gpu_w",
        "monitor_w",
        "pkg_w",
        "cpu_w",
        "total_w",
        "mean_ipc",
        "mean_core_freq_ghz",
        "gpu_sm_clock_ghz",
        "served_fraction",
        "progress",
    )

    def __init__(self) -> None:
        self._rows: List[np.ndarray] = []
        self._sl: slice = slice(0, 0)

    def declare_channels(self, registry: ChannelRegistry) -> None:
        self._sl = registry.declare("node", self.CHANNELS).slice

    def on_start(self, engine: "SimulationEngine") -> None:
        # One view per row of the engine's row block: a 1-D row takes a
        # slice assignment fastest.
        self._rows = list(engine.trace_rows)

    def quiet_ticks(self, limit: int) -> int:
        return limit

    def on_tick(self, state: "NodeTickState", execution: Optional["WorkloadExecution"]) -> None:
        # Everything but the tick_ columns is the same on every tick.
        demand, delivered, stretch = state.demand_gbps, state.delivered_gbps, state.stretch
        target, effective = state.uncore_target_ghz, state.uncore_effective_ghz
        sm_clock, served = state.gpu_sm_clock_ghz, state.served_fraction
        power = state.power
        uncore_w, dram_w, gpu_w, monitor_w = power.uncore_w, power.dram_w, power.gpu_w, power.monitor_w
        progress = execution.tick_progress if execution is not None else (0.0,) * state.ticks
        sl = self._sl
        for row, core_w, package_w, mean_ipc, mean_freq, done in zip(
            self._rows,
            state.tick_core_w,
            state.tick_package_w,
            state.tick_mean_ipc,
            state.tick_mean_core_freq_ghz,
            progress,
        ):
            # PowerBreakdown's cpu_w and total_w sums, in their order.
            cpu_w = package_w + dram_w
            row[sl] = (
                demand,
                delivered,
                stretch,
                target,
                effective,
                core_w,
                uncore_w,
                dram_w,
                gpu_w,
                monitor_w,
                package_w,
                cpu_w,
                cpu_w + gpu_w,
                mean_ipc,
                mean_freq,
                sm_clock,
                served,
                done,
            )


def core_freq_channels(node: "HeterogeneousNode") -> List[str]:
    """Per-core trace channel names for ``node``, from its topology.

    Cores are numbered globally across sockets in socket order, matching
    how an OS enumerates them: a 2-socket, 40-core/socket node yields
    ``core0_freq_ghz`` .. ``core79_freq_ghz``.
    """
    names: List[str] = []
    k = 0
    for cpu, _ in node.sockets:
        names.extend(f"core{k + c}_freq_ghz" for c in range(cpu.n_cores))
        k += cpu.n_cores
    return names


class CoreFrequencyObserver(BaseTickObserver):
    """Records every core's effective frequency, across all sockets.

    The channel set is derived from the node topology (one channel per
    core per socket) instead of the old hardcoded ``core0..core3`` capture
    of socket 0 — dual-socket presets now record both sockets, and nodes
    with fewer than four cores no longer duplicate the last core's value
    into phantom channels. Capture is one block assignment per step from
    the node's per-tick core frequencies, which are in channel order.
    """

    def __init__(self, node: "HeterogeneousNode") -> None:
        self.node = node
        self._names = tuple(core_freq_channels(node))
        self._rows: np.ndarray = np.empty((0, 0))
        self._start = 0
        self._stop = 0

    @property
    def channels(self) -> Sequence[str]:
        """The derived per-core channel names, in column order."""
        return self._names

    def declare_channels(self, registry: ChannelRegistry) -> None:
        self._start = registry.declare("cores", self._names).start
        self._stop = self._start + len(self._names)

    def on_start(self, engine: "SimulationEngine") -> None:
        if self.node is not engine.node:
            raise SimulationError("core-frequency observer is bound to a different node")
        self._rows = engine.trace_rows[:, self._start : self._stop]

    def quiet_ticks(self, limit: int) -> int:
        return limit

    def on_tick(self, state: "NodeTickState", execution: Optional["WorkloadExecution"]) -> None:
        self._rows[: state.ticks] = self.node.tick_core_freqs_ghz


class DegradedSource(Protocol):
    """What :class:`DegradedStateObserver` reads: a supervised daemon's health.

    Structural, so the sim layer never imports the runtime package; a
    :class:`~repro.runtime.supervisor.SupervisedDaemon` satisfies it.
    """

    @property
    def degraded(self) -> bool:
        """Whether the supervised runtime is currently failed-safe."""
        ...  # pragma: no cover - protocol

    @property
    def incident_count(self) -> int:
        """Cumulative incidents recorded so far."""
        ...  # pragma: no cover - protocol


class DegradedStateObserver(BaseTickObserver):
    """Records a supervised runtime's health as trace channels.

    ``supervisor_degraded`` is 1.0 while the node runs in degraded mode
    (governor failed-safe, uncore pinned at the vendor-default ceiling,
    awaiting re-arm or permanently dead) and 0.0 otherwise; integrating it
    gives the run's degraded-mode dwell time.  ``supervisor_incidents`` is
    the cumulative incident count, so incident bursts are visible on the
    shared time base of every other channel.

    ``source`` is anything with a boolean ``degraded`` attribute and an
    integer ``incident_count`` property — in practice a
    :class:`~repro.runtime.supervisor.SupervisedDaemon`; the protocol keeps
    the sim layer free of runtime imports.
    """

    CHANNELS = ("supervisor_degraded", "supervisor_incidents")

    def __init__(self, source: DegradedSource) -> None:
        self.source = source
        self._rows: List[np.ndarray] = []
        self._sl: slice = slice(0, 0)

    def declare_channels(self, registry: ChannelRegistry) -> None:
        self._sl = registry.declare("supervision", self.CHANNELS).slice

    def on_start(self, engine: "SimulationEngine") -> None:
        self._rows = list(engine.trace_rows)

    def quiet_ticks(self, limit: int) -> int:
        # Health changes only when a runtime fires, after every tick of the
        # step has been recorded (the runtime observer comes last), or when
        # a fault injector logs a wrap or a freeze on an edge tick, which
        # steps alone.
        return limit

    def on_tick(self, state: "NodeTickState", execution: Optional["WorkloadExecution"]) -> None:
        values = (1.0 if self.source.degraded else 0.0, float(self.source.incident_count))
        sl = self._sl
        for row in self._rows[: state.ticks]:
            row[sl] = values


class RuntimeObserver(BaseTickObserver):
    """Fires every scheduled runtime whose schedule elapsed during a tick.

    Each tick, any runtime whose ``next_fire_s()`` falls within the tick
    just simulated is invoked (repeatedly, so several due cycles of one
    runtime and several runtimes due in the same tick all fire, in list
    order). The due check uses the *clock-quantised* tick boundary —
    ``(tick + 1) * dt``, bit-identical to what ``SimClock.advance`` will
    return — not the node's float-accumulated ``state.time_s``, so firing
    ticks never shift by float noise. A runtime that does not advance its
    schedule past its own firing time would spin forever, so that is
    detected and raised.

    Its span hook counts the ticks up to the next firing by the same
    boundaries (:meth:`~repro.sim.clock.SimClock.ticks_before`, plus the
    firing tick), so a span may end on a firing tick: the runtime fires
    after the whole span, with its own due time, as it fires after a tick
    stepped alone. Every observer before this one has then taken the firing
    tick, as it would have taken the lone tick. A span with a due time in
    one of its earlier ticks is refused.
    """

    def __init__(self, runtimes: Sequence[ScheduledRuntime] = ()) -> None:
        self.runtimes: List[ScheduledRuntime] = list(runtimes)
        self._clock: Optional["SimClock"] = None
        self._dt = 0.0

    def on_start(self, engine: "SimulationEngine") -> None:
        self._clock = engine.clock
        self._dt = engine.clock.dt
        for rt in self.runtimes:
            rt.start(engine.clock.now)

    def quiet_ticks(self, limit: int) -> int:
        clock = self._clock
        if clock is None:  # pragma: no cover - engine always calls on_start
            raise SimulationError("RuntimeObserver.quiet_ticks before on_start")
        for rt in self.runtimes:
            # The ticks that end before the runtime falls due, then the one
            # it falls due in.
            limit = min(limit, clock.ticks_before(rt.next_fire_s(), limit) + 1)
        return limit

    def on_tick(self, state: "NodeTickState", execution: Optional["WorkloadExecution"]) -> None:
        clock = self._clock
        if clock is None:  # pragma: no cover - engine always calls on_start
            raise SimulationError("RuntimeObserver.on_tick before on_start")
        ticks = state.ticks
        tick, dt = clock.tick, self._dt
        now = (tick + ticks) * dt
        for rt in self.runtimes:
            while rt.next_fire_s() <= now:
                due = rt.next_fire_s()
                # A span may end on a firing tick, not run past one: the
                # span's earlier ticks end at or before (tick + ticks - 1) * dt.
                if ticks > 1 and due <= (tick + ticks - 1) * dt:
                    raise SimulationError(
                        f"runtime {rt!r} fell due at {due!r} inside a {ticks}-tick span, "
                        "before its last tick"
                    )
                rt.invoke(due)
                if rt.next_fire_s() <= due:
                    raise SimulationError(
                        f"runtime {rt!r} did not advance its schedule past {due!r}"
                    )


def standard_observers(
    node: "HeterogeneousNode",
    hub: Optional["TelemetryHub"] = None,
    runtimes: Sequence[ScheduledRuntime] = (),
    *,
    per_core_channels: bool = True,
    extra: Sequence[TickObserver] = (),
) -> List[TickObserver]:
    """The canonical observer stack, in dispatch order.

    Telemetry advancement, node-state trace capture, (optionally) per-core
    frequency capture, then scheduled-runtime firing — the exact semantics
    of the pre-refactor monolithic tick loop. ``extra`` observers are
    inserted before the runtime-firing stage so their recorded channels are
    complete when a governor fires. Fleet-scale callers pass
    ``per_core_channels=False`` to drop the (wide) per-core block from the
    schema.

    Raises
    ------
    SimulationError
        If ``hub`` is bound to a different node.
    """
    observers: List[TickObserver] = []
    if hub is not None:
        if hub.node is not node:
            raise SimulationError("telemetry hub is bound to a different node")
        observers.append(TelemetryObserver(hub))
    observers.append(NodeStateObserver())
    if per_core_channels:
        observers.append(CoreFrequencyObserver(node))
    observers.extend(extra)
    observers.append(RuntimeObserver(runtimes))
    return observers
