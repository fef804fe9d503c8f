"""run_application: one workload × one governor × one system → RunResult.

This is the library's main entry point.  It builds a fresh node from the
preset, wires telemetry, wraps the governor in a
:class:`~repro.runtime.daemon.MonitorDaemon`, simulates to completion and
condenses the traces into the quantities the paper's metrics are defined
over (runtime, per-domain energy, average powers).

Paired comparisons (the heart of every figure) are simply two calls with
the same ``workload`` and ``seed`` and different governors: the workload's
demand trace and the node's stochastic jitter are identical by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.backends.latency import LatencyModel, resolve_latency
from repro.errors import ConfigError, GovernorError
from repro.core.config import MagusConfig
from repro.core.magus import MagusGovernor
from repro.faults.incidents import Incident, IncidentLog
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.governors.base import Decision, UncoreGovernor
from repro.governors.default import VendorDefaultGovernor
from repro.governors.oracle import OracleGovernor
from repro.governors.powercap import PowerCapGovernor
from repro.governors.static import StaticUncoreGovernor
from repro.governors.ups import UPSConfig, UPSGovernor
from repro.guard.config import GuardConfig
from repro.guard.core import TelemetryGuard
from repro.hw.presets import SystemPreset, get_preset
from repro.obs.config import ObsConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import Span, SpanTracer
from repro.obs.tsdb import TimeSeriesDB
from repro.runtime.daemon import MonitorDaemon
from repro.runtime.derived import derive_metrics, derive_tsdb, record_run_totals
from repro.runtime.supervisor import SupervisedDaemon, SupervisorConfig
from repro.sim.clock import SimClock
from repro.sim.engine import EngineResult, SimulationEngine
from repro.sim.observers import standard_observers
from repro.sim.rng import RngStreams
from repro.sim.trace import TimeSeries
from repro.telemetry.hub import TelemetryHub
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

__all__ = ["RunResult", "run_application", "make_governor", "BuiltRun", "build_run"]


def make_governor(name: str, **options) -> UncoreGovernor:
    """Construct a governor by name.

    Recognised names: ``"default"``, ``"static_max"``, ``"static_min"``,
    ``"ups"``, ``"magus"``, ``"powercap"``. Options are forwarded to the
    policy's config (e.g. ``make_governor("magus", inc_threshold=300)`` or
    ``make_governor("powercap", cap_w=150.0)``).
    """
    if name == "default":
        return VendorDefaultGovernor(**options)
    if name == "static_max":
        if options:
            raise ConfigError(f"static_max takes no options, got {sorted(options)}")
        return StaticUncoreGovernor.at_max()
    if name == "static_min":
        if options:
            raise ConfigError(f"static_min takes no options, got {sorted(options)}")
        return StaticUncoreGovernor.at_min()
    if name == "ups":
        return UPSGovernor(UPSConfig(**options)) if options else UPSGovernor()
    if name == "powercap":
        return PowerCapGovernor(**options)
    if name == "oracle":
        return OracleGovernor(**options)
    if name == "magus":
        return MagusGovernor(MagusConfig(**options)) if options else MagusGovernor()
    raise ConfigError(
        f"unknown governor {name!r}; known: default, static_max, static_min, ups, magus, powercap, oracle"
    )


@dataclass
class RunResult:
    """Everything measured during one run.

    Energy domains follow the paper's definitions (§5): *CPU energy* is
    package (core + uncore + monitoring) plus DRAM; *total energy* adds the
    GPU board — the quantity behind the headline "energy saving" metric.
    """

    workload_name: str
    governor_name: str
    system_name: str
    seed: int
    runtime_s: float
    completed: bool
    pkg_energy_j: float
    dram_energy_j: float
    gpu_energy_j: float
    avg_pkg_w: float
    avg_dram_w: float
    avg_gpu_w: float
    monitor_energy_j: float
    mean_invocation_s: Optional[float]
    decision_period_s: Optional[float]
    traces: Dict[str, TimeSeries] = field(repr=False, default_factory=dict)
    decisions: List[Decision] = field(repr=False, default_factory=list)
    #: Incident log of a supervised/faulted run (injections + responses).
    incidents: List[Incident] = field(repr=False, default_factory=list)
    #: Whether the run executed under a SupervisedDaemon.
    supervised: bool = False
    #: Simulated seconds the node spent degraded (failed-safe).
    degraded_time_s: float = 0.0
    #: Fail-safe transitions, re-arms and watchdog trips (supervised runs).
    failsafe_count: int = 0
    rearm_count: int = 0
    missed_deadlines: int = 0
    #: Final metrics registry of an observability-enabled run (else None).
    metrics: Optional[MetricsRegistry] = field(repr=False, default=None)
    #: Time-series store of a tsdb-enabled run (else None).
    tsdb: Optional[TimeSeriesDB] = field(repr=False, default=None)
    #: Decision-cycle spans of an observability-enabled run (else empty).
    spans: List[Span] = field(repr=False, default_factory=list)
    #: Actuations routed through the control backend.
    actuation_switches: int = 0
    #: Total modeled switch latency charged to decision cycles, seconds.
    actuation_latency_s: float = 0.0
    #: Ticks during which some uncore transition was still settling.
    actuation_settling_ticks: int = 0
    #: Whether the run executed with a TelemetryGuard installed.
    guarded: bool = False
    #: Samples quarantined by the guard (holdover substituted).
    guard_quarantines: int = 0
    #: Guard quarantines split per device family.
    guard_quarantines_by_device: Dict[str, int] = field(default_factory=dict)
    #: Circuit-breaker openings across all devices.
    guard_breaker_trips: int = 0
    #: Accesses refused outright by an open breaker.
    guard_refusals: int = 0
    #: Actuation write-verify mismatches (including retried ones).
    guard_verify_failures: int = 0
    #: Guard-validated accesses per device family (guarded runs).
    guard_reads_by_device: Dict[str, int] = field(default_factory=dict)

    @property
    def cpu_energy_j(self) -> float:
        """Package + DRAM energy (the paper's "CPU power" domain)."""
        return self.pkg_energy_j + self.dram_energy_j

    @property
    def total_energy_j(self) -> float:
        """Package + DRAM + GPU board energy (the energy-saving domain)."""
        return self.cpu_energy_j + self.gpu_energy_j

    @property
    def avg_cpu_w(self) -> float:
        """Average package + DRAM power over the run."""
        return self.avg_pkg_w + self.avg_dram_w

    @property
    def avg_total_w(self) -> float:
        """Average node power over the run."""
        return self.avg_cpu_w + self.avg_gpu_w

    def export_traces_csv(self, path, channels=None) -> None:
        """Write the run's traces to a CSV file (one row per tick).

        Parameters
        ----------
        path:
            Destination file.
        channels:
            Channel subset to export; defaults to every recorded channel.
            All exported channels share the engine's common time base, so
            the file loads straight into pandas/spreadsheets.
        """
        import csv as _csv

        if not self.traces:
            raise ConfigError("run has no traces to export")
        names = list(channels) if channels is not None else sorted(self.traces)
        for name in names:
            if name not in self.traces:
                raise ConfigError(f"unknown trace channel {name!r}; have {sorted(self.traces)}")
        base = self.traces[names[0]]
        with open(path, "w", newline="") as fh:
            writer = _csv.writer(fh)
            writer.writerow(["time_s", *names])
            columns = [self.traces[n].values for n in names]
            for i, t in enumerate(base.times):
                writer.writerow([f"{t:.4f}", *(f"{col[i]:.6g}" for col in columns)])


def run_application(
    preset: Union[SystemPreset, str],
    workload: Union[Workload, str, None],
    governor: Optional[UncoreGovernor],
    *,
    seed: int = 0,
    dt_s: float = 0.01,
    max_time_s: float = 600.0,
    per_core_channels: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    supervise: Optional[bool] = None,
    supervisor_config: Optional[SupervisorConfig] = None,
    incident_log: Optional[IncidentLog] = None,
    obs: Optional[ObsConfig] = None,
    actuation_latency: Union[LatencyModel, str, None] = None,
    guard: Optional[bool] = None,
    guard_config: Optional[GuardConfig] = None,
) -> RunResult:
    """Simulate one workload under one governor on one system.

    Parameters
    ----------
    preset:
        A :class:`~repro.hw.presets.SystemPreset` or its registry name.
    workload:
        A :class:`~repro.workloads.base.Workload`, a registry name, or
        ``None`` for an idle run (overhead measurement).
    governor:
        A freshly constructed governor, or ``None`` to run with no uncore
        management at all (the node stays in its idle min-uncore state).
    seed:
        Master seed for workload jitter and hardware noise streams.
    dt_s:
        Simulation tick width.
    max_time_s:
        Horizon; idle runs last exactly this long.
    per_core_channels:
        Record the per-core frequency channels (derived from the node
        topology). Fleet-scale callers disable this to keep the trace
        narrow — on an 80-core node it is by far the widest channel block.
    fault_plan:
        A :class:`~repro.faults.plan.FaultPlan` to inject against the
        node's telemetry, or ``None`` for a fault-free run.
    supervise:
        Wrap the daemon in a :class:`~repro.runtime.supervisor.
        SupervisedDaemon`. Defaults to ``True`` when a fault plan is given
        (an unsupervised faulted run unwinds on the first raised fault —
        occasionally useful as a control, so it stays expressible with
        ``supervise=False``) and ``False`` otherwise.
    supervisor_config:
        Supervision tunables; defaults apply when omitted.
    incident_log:
        Shared log for injections and supervisor responses; a fresh one is
        created when omitted. The final contents are returned on
        ``RunResult.incidents``.
    obs:
        An :class:`~repro.obs.config.ObsConfig` choosing the run's
        observability outputs. Spans are traced live; the metrics registry
        and time-series store are derived from the layers' records when
        the run ends (:mod:`repro.runtime.derived`). Observation is purely
        passive: traces stay bit-identical either way (guarded by the
        golden-trace suite). The outputs land on ``RunResult.metrics``,
        ``RunResult.tsdb`` and ``RunResult.spans``.
    actuation_latency:
        Switch-latency model for the control backend: a
        :class:`~repro.backends.latency.LatencyModel`, a preset name
        (``"msr_fast"``, ``"hsmp_mailbox"``, ``"gpu_dvfs"`` — seeded with
        the run's master seed) or ``None`` for instantaneous transitions
        (the pre-backend behaviour, bit-identical to the pinned traces).
    guard:
        Install a :class:`~repro.guard.core.TelemetryGuard` between the
        hub's devices and the governor: every sample is validated against
        the preset's physical bounds (corrupt ones quarantined and
        replaced by deterministic holdover estimates), every uncore write
        is read back and verified, and per-device circuit breakers route
        persistent corruption into the supervisor's fail-safe path.
        Defaults to ``True`` when ``guard_config`` is given, else
        ``False``. On clean telemetry the default guard is invisible:
        traces and decisions stay bit-identical to an unguarded run.
    guard_config:
        Guard tunables (:class:`~repro.guard.config.GuardConfig`);
        defaults apply when omitted.

    Returns
    -------
    RunResult

    Raises
    ------
    GovernorError
        If the governor instance was already used in a previous run.
    """
    run = build_run(
        preset,
        workload,
        governor,
        seed=seed,
        dt_s=dt_s,
        max_time_s=max_time_s,
        per_core_channels=per_core_channels,
        fault_plan=fault_plan,
        supervise=supervise,
        supervisor_config=supervisor_config,
        incident_log=incident_log,
        obs=obs,
        actuation_latency=actuation_latency,
        guard=guard,
        guard_config=guard_config,
    )
    return run.finish(run.engine.run(run.workload, max_time_s=run.max_time_s))


@dataclass
class BuiltRun:
    """One run as :func:`build_run` assembled it, not yet simulated.

    :meth:`~repro.sim.engine.SimulationEngine.run` ``engine`` on
    ``workload`` with ``max_time_s`` and hand its result to :meth:`finish`.
    """

    engine: SimulationEngine
    workload: Optional[Workload]
    max_time_s: float
    preset: SystemPreset
    governor: Optional[UncoreGovernor]
    seed: int
    obs: ObsConfig
    hub: TelemetryHub
    log: IncidentLog
    tracer: Optional[SpanTracer]
    daemon: Optional[MonitorDaemon]
    supervisor: Optional[SupervisedDaemon]
    guard: Optional[TelemetryGuard]

    def finish(self, result: EngineResult) -> RunResult:
        """The second half of :func:`run_application`: condense the engine's
        result and the layers' records into the :class:`RunResult`."""
        traces = result.recorder.as_dict()
        pkg_energy = traces["pkg_w"].integral()
        dram_energy = traces["dram_w"].integral()
        gpu_energy = traces["gpu_w"].integral()
        duration = max(result.runtime_s, 1e-9)
        degraded_time_s = (
            traces["supervisor_degraded"].integral() if "supervisor_degraded" in traces else 0.0
        )

        tracer, daemon, supervisor, guard = self.tracer, self.daemon, self.supervisor, self.guard
        if tracer is not None:
            tracer.finish(result.runtime_s)

        run = RunResult(
            workload_name=self.workload.name if self.workload is not None else "<idle>",
            governor_name=self.governor.name if self.governor is not None else "<none>",
            system_name=self.preset.name,
            seed=self.seed,
            runtime_s=result.runtime_s,
            completed=result.completed,
            pkg_energy_j=pkg_energy,
            dram_energy_j=dram_energy,
            gpu_energy_j=gpu_energy,
            avg_pkg_w=pkg_energy / duration,
            avg_dram_w=dram_energy / duration,
            avg_gpu_w=gpu_energy / duration,
            monitor_energy_j=daemon.monitor_energy_j if daemon is not None else 0.0,
            mean_invocation_s=daemon.mean_invocation_s if daemon is not None else None,
            decision_period_s=daemon.decision_period_s if daemon is not None else None,
            traces=traces,
            decisions=daemon.decisions if daemon is not None else [],
            incidents=list(self.log),
            supervised=supervisor is not None,
            degraded_time_s=degraded_time_s,
            failsafe_count=supervisor.failsafe_count if supervisor is not None else 0,
            rearm_count=supervisor.rearm_count if supervisor is not None else 0,
            missed_deadlines=supervisor.missed_deadlines if supervisor is not None else 0,
            spans=list(tracer.spans) if tracer is not None else [],
            actuation_switches=self.hub.backend.switch_count,
            actuation_latency_s=self.hub.backend.latency_charged_s,
            actuation_settling_ticks=self.hub.backend.settling_ticks,
            guarded=guard is not None,
            guard_quarantines=guard.quarantine_count if guard is not None else 0,
            guard_quarantines_by_device=(
                dict(guard.quarantines_by_device) if guard is not None else {}
            ),
            guard_breaker_trips=guard.breaker_trip_count if guard is not None else 0,
            guard_refusals=guard.refusal_count if guard is not None else 0,
            guard_verify_failures=guard.verify_failure_count if guard is not None else 0,
            guard_reads_by_device=dict(guard.reads_by_device) if guard is not None else {},
        )
        if self.obs.enabled and self.obs.metrics:
            registry = derive_metrics(self.hub, daemon, supervisor)
            record_run_totals(registry, run, len(result.recorder))
            run.metrics = registry
        if self.obs.enabled and self.obs.tsdb:
            run.tsdb = derive_tsdb(self.hub, daemon, supervisor)
        return run


def build_run(
    preset: Union[SystemPreset, str],
    workload: Union[Workload, str, None],
    governor: Optional[UncoreGovernor],
    *,
    seed: int = 0,
    dt_s: float = 0.01,
    max_time_s: float = 600.0,
    per_core_channels: bool = True,
    fault_plan: Optional[FaultPlan] = None,
    supervise: Optional[bool] = None,
    supervisor_config: Optional[SupervisorConfig] = None,
    incident_log: Optional[IncidentLog] = None,
    obs: Optional[ObsConfig] = None,
    actuation_latency: Union[LatencyModel, str, None] = None,
    guard: Optional[bool] = None,
    guard_config: Optional[GuardConfig] = None,
) -> BuiltRun:
    """The first half of :func:`run_application`, with the same arguments.

    Builds the node, telemetry, daemon and engine of the run without
    simulating it. :func:`run_application` is ``build_run``, then the
    engine's run, then :meth:`BuiltRun.finish`.
    """
    if isinstance(preset, str):
        preset = get_preset(preset)
    if isinstance(workload, str):
        workload = get_workload(workload, seed=seed)

    rng = RngStreams(seed)
    node = preset.build_node(rng)
    # Idle deployment state (§4): nodes conserve power at min uncore until
    # a management policy takes over.
    node.force_uncore_all(preset.uncore_min_ghz)
    latency_model = resolve_latency(actuation_latency, seed=seed)
    hub = TelemetryHub(node, preset.telemetry, vendor=preset.vendor, latency=latency_model)

    obs = obs if obs is not None else ObsConfig()
    tracer = SpanTracer() if obs.enabled and obs.spans else None

    if supervise is None:
        supervise = fault_plan is not None
    log = incident_log if incident_log is not None else IncidentLog()
    if fault_plan is not None:
        hub.install_fault_injector(FaultInjector(fault_plan, log=log))
    if guard is None:
        guard = guard_config is not None
    telemetry_guard: Optional[TelemetryGuard] = None
    if guard:
        telemetry_guard = TelemetryGuard(preset, guard_config, log=log, seed=seed)
        hub.install_guard(telemetry_guard)

    runtimes = []
    daemon: Optional[MonitorDaemon] = None
    supervisor: Optional[SupervisedDaemon] = None
    policy_observers = []
    if governor is not None:
        daemon = MonitorDaemon(
            governor, hub, node, app_present=workload is not None, tracer=tracer
        )
        if supervise:
            supervisor = SupervisedDaemon(
                daemon,
                supervisor_config if supervisor_config is not None else SupervisorConfig(),
                log=log,
            )
            runtimes.append(supervisor)
            policy_observers.extend(supervisor.observers)
        else:
            runtimes.append(daemon)
            policy_observers.extend(daemon.observers)

    observers = standard_observers(
        node,
        hub,
        runtimes,
        per_core_channels=per_core_channels,
        extra=policy_observers,
    )
    engine = SimulationEngine(node, observers=observers, clock=SimClock(dt_s))
    return BuiltRun(
        engine=engine,
        workload=workload,
        max_time_s=max_time_s,
        preset=preset,
        governor=governor,
        seed=seed,
        obs=obs,
        hub=hub,
        log=log,
        tracer=tracer,
        daemon=daemon,
        supervisor=supervisor,
        guard=telemetry_guard,
    )
