"""A run's metrics registry and time-series store, derived when it ends.

Each layer of a run keeps only its own plain record of what happened: the
daemon one :class:`~repro.runtime.daemon.Cycle` per completed cycle, the
supervisor its retry count and degraded edges, the guard its quarantine
and breaker-step lists, the control backend its switch delays, the hub its
actuation count.  After the engine stops, :func:`derive_metrics` and
:func:`derive_tsdb` turn those records into the run's registry and series
and :func:`record_run_totals` adds the run's totals, so this module names
every single-run instrument and series.  Spans are not derived: they carry
nesting and aborts, so the tracer stays live.

The result is bit-identical to recording live (DESIGN.md §6m):

* an instrument exists only if a live recorder would have touched it, so
  no counter is ever created at zero;
* histograms observe one value per record, in record order, and counters
  ``inc`` by integer totals (never ``sum()`` over floats, whose rounding
  changed in Python 3.12);
* each series gets the same samples, at the same times, in the same order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.backends.latency import ACTUATION_SECONDS_BUCKETS
from repro.obs.registry import DEFAULT_JOULES_BUCKETS, MetricsRegistry
from repro.obs.tsdb import TimeSeriesDB
from repro.runtime.daemon import MonitorDaemon
from repro.runtime.supervisor import SupervisedDaemon
from repro.telemetry.hub import TelemetryHub

if TYPE_CHECKING:  # typing-only: the session imports this module.
    from repro.runtime.session import RunResult

__all__ = [
    "ACCESS_COUNTER_NAMES",
    "BREAKER_GAUGE_NAMES",
    "HOLDOVER_AGE_BOUNDS",
    "derive_metrics",
    "derive_tsdb",
    "record_run_totals",
]

#: Meter access kind → per-device read/write counter (static, RL006-clean:
#: every name is a lowercase dotted literal known at import time).
ACCESS_COUNTER_NAMES: Mapping[str, str] = {
    "msr_read": "repro.telemetry.reads.msr",
    "msr_write": "repro.telemetry.writes.msr",
    "pcm_read": "repro.telemetry.reads.pcm",
    "rapl_read": "repro.telemetry.reads.rapl",
    "nvml_query": "repro.telemetry.reads.nvml",
    "hsmp_mailbox": "repro.telemetry.writes.hsmp",
    "retry_backoff": "repro.supervisor.backoff_charges",
    "actuation_latency": "repro.actuation.latency_charges",
    "guard_check": "repro.guard.check_charges",
}

#: Breaker-state gauges, one static name per guard device (closed=0,
#: open=1, half-open=2) — the RL006-sanctioned table for per-device names.
BREAKER_GAUGE_NAMES: Mapping[str, str] = {
    "msr": "repro.guard.breaker_state.msr",
    "pcm": "repro.guard.breaker_state.pcm",
    "rapl": "repro.guard.breaker_state.rapl",
    "actuation": "repro.guard.breaker_state.actuation",
}

#: Histogram bounds for the age of the last good sample at quarantine time.
HOLDOVER_AGE_BOUNDS = (0.1, 0.3, 0.5, 1.0, 2.0, 5.0)


def _count(registry: MetricsRegistry, name: str, n: int) -> None:
    """Add the integer total ``n`` to counter ``name``; create it only if ``n``."""
    if n:
        registry.counter(name).inc(n)


def derive_metrics(
    hub: TelemetryHub,
    daemon: Optional[MonitorDaemon],
    supervisor: Optional[SupervisedDaemon],
) -> MetricsRegistry:
    """The instruments of a run's layers, built from their records."""
    registry = MetricsRegistry()
    if daemon is not None:
        cycles = daemon.cycles
        actuations = sum(1 for c in cycles if c.decision.target_ghz is not None)
        _count(registry, "repro.daemon.cycles", len(cycles))
        _count(registry, "repro.daemon.actuations", actuations)
        _count(registry, "repro.daemon.holds", len(cycles) - actuations)
        _count(registry, "repro.daemon.failed_cycles", daemon.failed_cycles)
        software = [(c.invocation_s, c.energy_j) for c in cycles if c.invocation_s is not None]
        if software:
            invocation = registry.histogram("repro.daemon.invocation_seconds")
            energy = registry.histogram("repro.daemon.cycle_energy_joules", DEFAULT_JOULES_BUCKETS)
            for invocation_s, energy_j in software:
                invocation.observe(invocation_s)
                energy.observe(energy_j)
        for kind, n in daemon.access_counts.items():
            name = ACCESS_COUNTER_NAMES.get(kind)
            if name is not None:
                _count(registry, name, n)
        _count(registry, "repro.telemetry.accesses.total", sum(daemon.access_counts.values()))
    _count(registry, "repro.telemetry.actuations", hub.actuation_count)

    backend = hub.backend
    _count(registry, "repro.actuation.settling_ticks", backend.settling_ticks)
    if backend.switch_delays_s:
        latency = registry.histogram("repro.actuation.latency_s", ACTUATION_SECONDS_BUCKETS)
        for delay_s in backend.switch_delays_s:
            latency.observe(delay_s)

    if supervisor is not None:
        _count(registry, "repro.supervisor.retries", supervisor.retry_count)
        _count(registry, "repro.supervisor.missed_deadlines", supervisor.missed_deadlines)
        _count(registry, "repro.supervisor.failsafes", supervisor.failsafe_count)
        _count(registry, "repro.supervisor.rearms", supervisor.rearm_count)

    guard = hub.guard
    if guard is not None:
        for device, breaker in guard.breakers.items():
            registry.gauge(BREAKER_GAUGE_NAMES[device]).set(breaker.gauge_value)
        _count(registry, "repro.guard.quarantines", guard.quarantine_count)
        _count(registry, "repro.guard.breaker_trips", guard.breaker_trip_count)
        _count(registry, "repro.guard.refusals", guard.refusal_count)
        _count(registry, "repro.guard.verify_failures", guard.verify_failure_count)
        _count(registry, "repro.guard.probes", sum(b.probe_count for b in guard.breakers.values()))
        ages = [age for _t, _device, age in guard.quarantine_events if age is not None]
        if ages:
            holdover = registry.histogram("repro.guard.holdover_age_seconds", HOLDOVER_AGE_BOUNDS)
            for age in ages:
                holdover.observe(age)
    return registry


def record_run_totals(registry: MetricsRegistry, result: "RunResult", ticks: int) -> None:
    """Add the engine's tick count and the ``repro.run.*`` gauges of ``result``."""
    registry.counter("repro.engine.ticks").inc(ticks)
    registry.gauge("repro.run.runtime_seconds").set(result.runtime_s)
    registry.gauge("repro.run.completed").set(1.0 if result.completed else 0.0)
    registry.gauge("repro.run.pkg_energy_joules").set(result.pkg_energy_j)
    registry.gauge("repro.run.dram_energy_joules").set(result.dram_energy_j)
    registry.gauge("repro.run.gpu_energy_joules").set(result.gpu_energy_j)
    registry.gauge("repro.run.monitor_energy_joules").set(result.monitor_energy_j)
    registry.gauge("repro.run.actuation_latency_seconds").set(result.actuation_latency_s)


def derive_tsdb(
    hub: TelemetryHub,
    daemon: Optional[MonitorDaemon],
    supervisor: Optional[SupervisedDaemon],
) -> TimeSeriesDB:
    """The run's time-series store, built from its layers' records."""
    tsdb = TimeSeriesDB()
    if daemon is not None:
        causes: Dict[str, int] = {}
        for c in daemon.cycles:
            t_s, decision = c.time_s, c.decision
            if decision.target_ghz is not None:
                tsdb.record("repro.ts.daemon.target_uncore_ghz", t_s, decision.target_ghz)
            if c.invocation_s is not None:
                tsdb.record("repro.ts.daemon.invocation_s", t_s, c.invocation_s)
                tsdb.record("repro.ts.daemon.monitor_power_w", t_s, c.monitor_power_w)
            tsdb.record("repro.ts.daemon.cycle_energy_j", t_s, c.energy_j)
            n = causes[decision.reason] = causes.get(decision.reason, 0) + 1
            tsdb.record("repro.ts.daemon.decision_cause", t_s, float(n), {"cause": decision.reason})
            tsdb.record("repro.ts.daemon.actuation_latency_s", t_s, c.latency_s)
    if supervisor is not None:
        for t_s, value in supervisor.degraded_edges:
            tsdb.record("repro.ts.supervisor.degraded", t_s, value)
    guard = hub.guard
    if guard is not None:
        for t_s, device, state in guard.breaker_steps:
            tsdb.record("repro.ts.guard.breaker_state", t_s, state, {"device": device})
        quarantined: Dict[str, int] = {}
        for t_s, device, _age in guard.quarantine_events:
            n = quarantined[device] = quarantined.get(device, 0) + 1
            tsdb.record("repro.ts.guard.quarantines", t_s, float(n), {"device": device})
    return tsdb
