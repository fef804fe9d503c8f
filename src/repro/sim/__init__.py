"""Deterministic discrete-time simulation core.

This subpackage provides the small, generic pieces the hardware and runtime
models are built on:

* :class:`~repro.sim.clock.SimClock` — quantised simulated time,
* :mod:`~repro.sim.rng` — named, seeded random streams,
* :class:`~repro.sim.trace.TraceRecorder` — append-only columnar
  time-series traces (positional ``record_rows`` block append),
* :class:`~repro.sim.channels.ChannelRegistry` — per-layer trace-channel
  ownership (each observer declares the channels it records),
* :mod:`~repro.sim.observers` — the :class:`~repro.sim.observers.TickObserver`
  protocol and the standard observer stack (telemetry advancement, trace
  capture, scheduled-runtime firing),
* :class:`~repro.sim.engine.SimulationEngine` — the engine core: clock +
  physics step + observer dispatch; :func:`~repro.sim.engine.lockstep`
  steps several started engines together.
"""

from repro.sim.clock import SimClock
from repro.sim.rng import RngStreams
from repro.sim.trace import TimeSeries, TraceRecorder
from repro.sim.channels import ChannelBlock, ChannelRegistry
from repro.sim.observers import (
    BaseTickObserver,
    CoreFrequencyObserver,
    NodeStateObserver,
    RuntimeObserver,
    TelemetryObserver,
    TickObserver,
    core_freq_channels,
    standard_observers,
)
from repro.sim.engine import ScheduledRuntime, SimulationEngine, lockstep

__all__ = [
    "SimClock",
    "RngStreams",
    "TimeSeries",
    "TraceRecorder",
    "ChannelBlock",
    "ChannelRegistry",
    "TickObserver",
    "BaseTickObserver",
    "TelemetryObserver",
    "NodeStateObserver",
    "CoreFrequencyObserver",
    "RuntimeObserver",
    "core_freq_channels",
    "standard_observers",
    "ScheduledRuntime",
    "SimulationEngine",
    "lockstep",
]
