"""Span wrappers installed on ``repro`` from outside, for the traced pass.

Each layer is measured at its boundary: :data:`SPANS` maps a span name to
the class methods and module attributes that make up that layer, and
:meth:`Tracer.install` replaces each with a wrapper that times the call.
Module attributes are wrapped where they are looked up, so
``repro.cluster.simulator:run_application`` times the fleet's calls into
the session layer without touching ``repro.runtime.session`` itself.

A wrapper only appends its span, start and end to an in-memory log, so a
call costs two clock reads, two appends and the argument forwarding (well
under a µs). :meth:`Tracer.analyse`
rebuilds the nesting afterwards: a span's self time is its duration minus
the time its child spans cover. The wrappers' own cost is measured by
:func:`wrapper_cost` and subtracted, split into the part a span's own
clock sees (``inner``) and the part its parent's clock sees (``outer``).
The untraced run stays the source of every end-to-end number; this pass
only apportions it.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import importlib
import inspect
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

__all__ = [
    "DISTRIBUTION_SPANS",
    "SPANS",
    "UNATTRIBUTED",
    "Analysis",
    "Tracer",
    "call_us",
    "chrome_trace",
    "summary",
    "wrapper_cost",
]

_clock = time.perf_counter_ns

#: Span name -> the ``module:Class.attr`` / ``module:attr`` sites it times.
#: Sites are a layer's entry points. Accessors that take ~0.1 µs (power
#: getters, ``WorkloadExecution.done``) stay unwrapped: a wrapper costs
#: several times that, and their time lands in the caller's self time.
SPANS: Dict[str, Tuple[str, ...]] = {
    "hw.node.step": ("repro.hw.node:HeterogeneousNode.step",),
    "hw.cpu.step": ("repro.hw.cpu:CPUCoreModel.step",),
    "hw.cpu.mean_ipc": ("repro.hw.cpu:CPUCoreModel.mean_ipc",),
    "hw.cpu.power_w": ("repro.hw.cpu:CPUCoreModel.power_w",),
    "hw.uncore": (
        "repro.hw.uncore:UncoreModel.step",
        "repro.hw.uncore:UncoreModel.set_target",
        "repro.hw.uncore:UncoreModel.request_target",
    ),
    "hw.memory": ("repro.hw.memory:MemorySubsystem.service",),
    "hw.gpu": ("repro.hw.gpu:GPUGroup.step",),
    "telemetry.hub": (
        "repro.telemetry.hub:TelemetryHub.on_tick",
        "repro.telemetry.hub:TelemetryHub.set_uncore_max_ghz",
    ),
    "telemetry.msr": (
        "repro.telemetry.msr:MSRDevice.on_tick",
        "repro.telemetry.msr:MSRDevice.read",
        "repro.telemetry.msr:MSRDevice.write",
        "repro.telemetry.msr:MSRDevice.read_all_core_counters",
        "repro.telemetry.msr:MSRDevice.set_uncore_max_ghz",
    ),
    "telemetry.pcm": (
        "repro.telemetry.pcm:PCMCounters.on_tick",
        "repro.telemetry.pcm:PCMCounters.read_throughput_mbps",
    ),
    "telemetry.rapl": (
        "repro.telemetry.rapl:RAPLCounters.on_tick",
        "repro.telemetry.rapl:RAPLCounters.energy_j",
        "repro.telemetry.rapl:RAPLCounters.read_register",
        "repro.telemetry.rapl:RAPLCounters.power_w",
    ),
    "telemetry.nvml": (
        "repro.telemetry.nvml:NVMLDevice.on_tick",
        "repro.telemetry.nvml:NVMLDevice.power_w",
        "repro.telemetry.nvml:NVMLDevice.sm_clock_ghz",
        "repro.telemetry.nvml:NVMLDevice.energy_j",
        "repro.telemetry.nvml:NVMLDevice.per_gpu_power_w",
    ),
    "backends.sim": (
        "repro.backends.sim:SimBackend.on_tick",
        "repro.backends.sim:SimBackend.read",
        "repro.backends.sim:SimBackend.write",
        "repro.backends.sim:SimBackend.set_uncore_max_ghz",
    ),
    "sim.engine.run": ("repro.sim.engine:SimulationEngine.run",),
    "sim.observers.telemetry": ("repro.sim.observers:TelemetryObserver.on_tick",),
    "sim.observers.node_state": ("repro.sim.observers:NodeStateObserver.on_tick",),
    "sim.observers.core_freq": ("repro.sim.observers:CoreFrequencyObserver.on_tick",),
    "sim.observers.degraded": ("repro.sim.observers:DegradedStateObserver.on_tick",),
    "sim.observers.runtime": ("repro.sim.observers:RuntimeObserver.on_tick",),
    "sim.trace": (
        "repro.sim.trace:TraceRecorder.record_row",
        "repro.sim.trace:TraceRecorder.as_dict",
    ),
    "workloads.execution": (
        "repro.workloads.base:WorkloadExecution.current",
        "repro.workloads.base:WorkloadExecution.advance",
    ),
    "runtime.daemon": (
        "repro.runtime.daemon:MonitorDaemon.invoke",
        "repro.runtime.daemon:MonitorDaemon.abandon_cycle",
    ),
    "runtime.supervisor": ("repro.runtime.supervisor:SupervisedDaemon.invoke",),
    "core.magus": ("repro.core.magus:MagusGovernor.sample_and_decide",),
    "governors.ups": ("repro.governors.ups:UPSGovernor.sample_and_decide",),
    "faults.injector": (
        "repro.faults.injector:FaultInjector.on_tick",
        "repro.faults.injector:_FaultyMSRDevice.read",
        "repro.faults.injector:_FaultyMSRDevice.read_all_core_counters",
        "repro.faults.injector:_FaultyMSRDevice.write",
        "repro.faults.injector:_FaultyMSRDevice.set_uncore_max_ghz",
        "repro.faults.injector:_FaultyPCMCounters.on_tick",
        "repro.faults.injector:_FaultyPCMCounters.read_throughput_mbps",
        "repro.faults.injector:_FaultyRAPLCounters.energy_j",
        "repro.faults.injector:_FaultyRAPLCounters.read_register",
        "repro.faults.injector:_FaultyRAPLCounters.power_w",
    ),
    "guard": (
        "repro.guard.core:TelemetryGuard.on_tick",
        "repro.guard.core:TelemetryGuard.read_throughput_mbps",
        "repro.guard.core:TelemetryGuard.read_all_core_counters",
        "repro.guard.core:TelemetryGuard.energy_j",
        "repro.guard.core:TelemetryGuard.power_w",
        "repro.guard.core:TelemetryGuard.actuate_uncore_max_ghz",
    ),
    "obs.spans": (
        "repro.obs.spans:SpanTracer.begin",
        "repro.obs.spans:SpanTracer.end",
        "repro.obs.spans:SpanTracer.abort",
        "repro.obs.spans:SpanTracer.instant",
    ),
    "obs.registry": (
        "repro.obs.registry:Counter.inc",
        "repro.obs.registry:Gauge.set",
        "repro.obs.registry:Histogram.observe",
        "repro.obs.registry:MetricsRegistry.counter",
        "repro.obs.registry:MetricsRegistry.gauge",
        "repro.obs.registry:MetricsRegistry.histogram",
        "repro.obs.registry:MetricsRegistry.merge",
        "repro.cluster.simulator:merge_registries",
    ),
    "runtime.session": (
        "repro.runtime.session:run_application",
        "repro.cluster.simulator:run_application",
    ),
    "cluster.simulator": (
        "repro.cluster.simulator:ClusterSimulator.run_fleet",
        "repro.cluster.simulator:ClusterSimulator._place_fifo",
        "repro.cluster.simulator:ClusterSimulator._aggregate",
        "repro.cluster.simulator:FleetResult.metrics_rollup",
        "repro.cluster.simulator:FleetResult.node_tsdbs",
        "repro.cluster.simulator:FleetResult.tsdb_rollup",
        "repro.cluster.simulator:_run_job",
    ),
    "parallel.map_parallel": ("repro.cluster.simulator:map_parallel",),
    "coordinator.fleet": (
        "repro.coordinator.fleet:run_coordinated_fleet",
        "repro.coordinator.fleet:node_demand_matrix",
        "repro.coordinator.fleet:ample_budget_w",
        "repro.coordinator.fleet:_desired_caps",
        "repro.coordinator.fleet:_reconvergence",
        "repro.coordinator.fleet:_record_metrics",
    ),
    "coordinator.core": (
        "repro.coordinator.core:BudgetCoordinator.receive",
        "repro.coordinator.core:BudgetCoordinator.expire",
        "repro.coordinator.core:BudgetCoordinator.arbitrate",
        "repro.coordinator.core:BudgetCoordinator.granted_sum_w",
        "repro.coordinator.core:BudgetCoordinator.crash",
        "repro.coordinator.core:BudgetCoordinator.maybe_restart",
        "repro.coordinator.core:BudgetCoordinator.is_down",
        "repro.coordinator.core:BudgetCoordinator.in_quarantine",
    ),
    "coordinator.chaos": (
        "repro.coordinator.chaos:ControlPlane.send_heartbeat",
        "repro.coordinator.chaos:ControlPlane.deliver_heartbeats",
        "repro.coordinator.chaos:ControlPlane.send_grant",
        "repro.coordinator.chaos:ControlPlane.deliver_grants",
        "repro.coordinator.chaos:ControlPlane.crash_due",
    ),
    "coordinator.lease": (
        "repro.coordinator.lease:NodeLeaseState.apply_grant",
        "repro.coordinator.lease:NodeLeaseState.effective_cap_w",
    ),
    "coordinator.journal": (
        "repro.coordinator.journal:GrantJournal.record_grant",
        "repro.coordinator.journal:GrantJournal.record_restart",
        "repro.coordinator.journal:GrantJournal.replay",
    ),
    "obs.tsdb": (
        "repro.obs.tsdb:TimeSeriesDB.record",
        "repro.obs.tsdb:TimeSeriesDB.series",
        "repro.obs.tsdb:TimeSeriesDB.merge",
        "repro.obs.tsdb:TimeSeriesDB.relabeled",
        "repro.cluster.simulator:merge_tsdbs",
    ),
    "obs.alerts": ("repro.obs.alerts:AlertEngine.evaluate",),
    "lintkit.engine": (
        "repro.lintkit:lint_paths",
        "repro.lintkit:lint_project",
        "repro.lintkit.engine:lint_file",
    ),
    "lintkit.loader": (
        "repro.lintkit.engine:collect_files",
        "repro.lintkit.engine:parse_file",
        "repro.lintkit.project:parse_file",
    ),
    # Call-graph and fact queries the rules make (resolve_call, expr_fact)
    # recurse tens of thousands of times per iteration; they stay in the
    # caller's self time, and these spans cover construction and solving.
    "lintkit.project": (
        "repro.lintkit.engine:build_project",
        "repro.lintkit.project:Project.reachable_from",
    ),
    "lintkit.dataflow": ("repro.lintkit.dataflow:DataflowAnalysis.__init__",),
    "lintkit.rules.file": (
        "repro.lintkit.rules.determinism:DeterminismRule.check",
        "repro.lintkit.rules.msr:MSRSafetyRule.check",
        "repro.lintkit.rules.units:UnitsRule.check",
        "repro.lintkit.rules.meters:MeterExceptionRule.check",
        "repro.lintkit.rules.pickles:PickleSafetyRule.check",
        "repro.lintkit.rules.metrics:MetricNameRule.check",
        "repro.lintkit.rules.guard:GuardBypassRule.check",
    ),
    "lintkit.rules.project": (
        "repro.lintkit.rules.seeds:SeedProvenanceRule.check_project",
        "repro.lintkit.rules.races:ParallelSharedStateRule.check_project",
        "repro.lintkit.rules.unitsflow:UnitsFlowRule.check_project",
    ),
}

#: Spans whose per-call durations are kept for percentiles.
DISTRIBUTION_SPANS = ("hw.node.step", "runtime.daemon", "coordinator.core")

#: Pseudo-span for iteration time spent outside every wrapped site.
UNATTRIBUTED = "unattributed"

#: Pseudo-span for the calibration probes that interrupt a traced iteration
#: (``child.py``). Its time belongs to no layer: it is taken out of the
#: span it landed in, and of the iteration.
PROBE = "bench.probe"
_PROBE_IDX = 0

#: Raw spans written to the Chrome trace (the rest are only aggregated).
RAW_SPAN_CAP = 100_000


def _resolve(site: str) -> Tuple[object, str, object]:
    """``module:Qual.attr`` -> (owner, attr, current value).

    A class attribute must be defined on the class itself, so that putting
    the original back restores the class exactly. Raises LookupError when
    the site no longer exists.
    """
    module_name, _, qual = site.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(site) from exc
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(site)
    if isinstance(owner, type):
        if attr not in vars(owner):
            raise LookupError(site)
        return owner, attr, vars(owner)[attr]
    if not hasattr(owner, attr):
        raise LookupError(site)
    return owner, attr, getattr(owner, attr)


#: Bits of a log entry that hold the span index.
_IDX_BITS = 7


@dataclass
class Analysis:
    """The nesting rebuilt from one iteration's log."""

    #: span -> ``[self_ns, calls, direct child calls]``.
    spans: Dict[str, List[int]]
    #: Time covered by top-level spans, and how many there were.
    top_ns: int
    top_calls: int
    #: DISTRIBUTION_SPANS -> per-call ``(duration_ns, wrapped descendants)``.
    durations: Dict[str, List[Tuple[int, int]]]
    #: ``(span, start_ns, end_ns, parent span or None)`` of the first
    #: RAW_SPAN_CAP spans by start, when asked for.
    raw: List[Tuple[str, int, int, object]]


class Tracer:
    """Installs span wrappers and turns their log into per-span numbers."""

    def __init__(self) -> None:
        self.names: List[str] = [PROBE]  # at _PROBE_IDX
        #: Two ints per call, in end order: ``start_ns << _IDX_BITS | span
        #: index``, then ``end_ns``.
        self.log: List[int] = []
        #: ``(start_ns, end_ns)`` of each probe, kept apart from :attr:`log`
        #: because a probe can fire between a wrapper's two appends.
        self.probes: List[Tuple[int, int]] = []
        self.missing: List[str] = []
        #: ``(owner, attr, original)`` of every installed wrapper.
        self._sites: List[Tuple[object, str, object]] = []

    def _index(self, name: str) -> int:
        if name not in self.names:
            if len(self.names) == 1 << _IDX_BITS:
                raise ValueError(f"more than {1 << _IDX_BITS} spans")
            self.names.append(name)
        return self.names.index(name)

    def calls(self) -> Iterator[Tuple[int, int, int]]:
        """``(span index, start_ns, end_ns)`` of each logged call and probe,
        in end order."""
        log, mask = self.log, (1 << _IDX_BITS) - 1
        logged = (
            (log[pos] & mask, log[pos] >> _IDX_BITS, log[pos + 1]) for pos in range(0, len(log), 2)
        )
        probes = ((_PROBE_IDX, start, end) for start, end in self.probes)
        return heapq.merge(logged, probes, key=lambda call: call[2])

    def wrap(self, name: str, fn: Callable) -> Callable:
        """A stand-in for ``fn`` that logs each call as span ``name``.

        Generator functions are drained inside the span, so their work is
        charged to it rather than to whoever iterates them.
        """
        idx, log, clock = self._index(name), self.log.append, time.perf_counter_ns
        call = fn
        if inspect.isgeneratorfunction(fn):
            def call(*args, **kwargs):
                return iter(list(fn(*args, **kwargs)))

        # The log takes two plain ints per call, never a tuple: ints are not
        # tracked by the garbage collector, so a log of a million calls does
        # not set off collections that the untraced run would not have had.
        def span(*args, **kwargs):
            t0 = clock()
            try:
                return call(*args, **kwargs)
            finally:
                log(t0 << _IDX_BITS | idx)
                log(clock())

        return functools.update_wrapper(span, fn)

    def install(self) -> None:
        """Wrap every site in :data:`SPANS`; sites that no longer exist are
        listed in :attr:`missing` and skipped."""
        if self._sites:
            raise RuntimeError("wrappers already installed")
        self.missing = []
        for name, sites in SPANS.items():
            self._index(name)
            for site in sites:
                try:
                    owner, attr, original = _resolve(site)
                except LookupError:
                    self.missing.append(site)
                    continue
                if isinstance(original, property):
                    wrapped: object = property(
                        self.wrap(name, original.fget), original.fset, original.fdel,
                        original.__doc__,
                    )
                elif inspect.isfunction(original):
                    wrapped = self.wrap(name, original)
                else:
                    self.missing.append(site)
                    continue
                self._sites.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every attribute :meth:`install` replaced."""
        while self._sites:
            owner, attr, original = self._sites.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def analyse(self, raw: bool = False) -> Analysis:
        """Rebuild the nesting from :attr:`log` and :attr:`probes`, and clear them.

        Calls are in end order, so a call's children are exactly the
        already-ended calls still waiting for a parent that started after it.
        A probe is a child like any other, except that it is no wrapped
        call: it adds no wrapper cost and is left out of the durations.
        """
        spans = {name: [0, 0, 0] for name in self.names}
        accs = [spans[name] for name in self.names]
        dist_idx = {self.names.index(n): n for n in DISTRIBUTION_SPANS if n in self.names}
        durations: Dict[str, List[Tuple[int, int]]] = {n: [] for n in DISTRIBUTION_SPANS}
        calls = list(self.calls())
        parent = [-1] * len(calls) if raw else []
        # (call position, start, duration, wrapped descendants, probe time inside)
        waiting: List[Tuple[int, int, int, int, int]] = []
        for pos, (idx, start, end) in enumerate(calls):
            dur = end - start
            covered = direct = desc = probed = 0
            while waiting and waiting[-1][1] >= start:
                child, _, child_dur, child_desc, child_probed = waiting.pop()
                covered += child_dur
                probed += child_probed
                if calls[child][0] != _PROBE_IDX:
                    direct += 1
                    desc += 1 + child_desc
                if raw:
                    parent[child] = pos
            if idx == _PROBE_IDX:
                waiting.append((pos, start, dur, 0, dur))
                continue
            acc = accs[idx]
            acc[0] += dur - covered
            acc[1] += 1
            acc[2] += direct
            if idx in dist_idx:
                durations[dist_idx[idx]].append((dur - probed, desc))
            waiting.append((pos, start, dur, desc, probed))
        raw_spans = []
        if raw:
            order = sorted(range(len(calls)), key=lambda i: calls[i][1])[:RAW_SPAN_CAP]
            for i in order:
                idx, start, end = calls[i]
                up = parent[i]
                raw_spans.append(
                    (self.names[idx], start, end, self.names[calls[up][0]] if up >= 0 else None)
                )
        self.log.clear()
        self.probes.clear()
        return Analysis(
            spans=spans,
            top_ns=sum(w[2] for w in waiting),
            top_calls=sum(1 for w in waiting if calls[w[0]][0] != _PROBE_IDX),
            durations=durations,
            raw=raw_spans,
        )


def summary(analysis: Analysis, iteration_ns: int, inner_ns: float, outer_ns: float,
            scale: float) -> Dict[str, Dict[str, float]]:
    """Corrected per-span self time (reference ms) and calls, one iteration.

    ``scale`` converts host time to reference time. The pseudo-span
    :data:`UNATTRIBUTED` takes the rest of ``iteration_ns``, so the self
    times sum to the iteration minus the wrappers' own cost and the probes.
    """
    out: Dict[str, Dict[str, float]] = {}
    for name, (self_ns, calls, children) in analysis.spans.items():
        if name == PROBE:
            continue
        corrected = self_ns - calls * inner_ns - children * outer_ns
        out[name] = {"self_ms": corrected * scale / 1e6, "calls": calls}
    rest = iteration_ns - analysis.top_ns - analysis.top_calls * outer_ns
    out[UNATTRIBUTED] = {"self_ms": rest * scale / 1e6, "calls": 1}
    return out


def call_us(analysis: Analysis, name: str, inner_ns: float, outer_ns: float,
            scale: float) -> List[float]:
    """Corrected per-call durations of ``name`` in reference µs."""
    per_call = inner_ns + outer_ns
    return [
        (dur - inner_ns - desc * per_call) * scale / 1e3
        for dur, desc in analysis.durations[name]
    ]


class _Probe:
    """Calibration target shaped like the simulator's hot calls."""

    def __init__(self, work: bool) -> None:
        self.work = work
        self.x = np.linspace(0.0, 1.0, 40)

    def step(self, scale: float, cap: float) -> float:
        if not self.work:
            return scale
        return float(np.clip(self.x * scale, 0.0, cap).sum())


def wrapper_cost(calls: int = 2_000, repeats: int = 21) -> Tuple[float, float]:
    """Host ns a wrapper adds per call: (inside the span, outside it).

    The total is wrapped minus bare calls of a method doing a few
    40-element NumPy ops, as the median over short alternating blocks.
    Around a bare no-op the wrapper's code and data stay hot in cache, and
    it costs about a third less than amid real work. The no-op still gives
    the split: its span records only the inside part.
    """
    tracer = Tracer()
    wrapped_cls = type("_WrappedProbe", (_Probe,), {"step": tracer.wrap("probe", _Probe.step)})

    def extra(work: bool) -> Tuple[float, float]:
        bare, wrapped = _Probe(work), wrapped_cls(work)
        totals, inners = [], []
        for _ in range(repeats):
            t0 = _clock()
            for _ in range(calls):
                bare.step(0.5, 1.0)
            t1 = _clock()
            for _ in range(calls):
                wrapped.step(0.5, 1.0)
            t2 = _clock()
            totals.append(((t2 - t1) - (t1 - t0)) / calls)
            inners.append(sum(end - start for _, start, end in tracer.calls()) / calls)
            tracer.log.clear()
        return statistics.median(totals), statistics.median(inners)

    noop_total, noop_inner = extra(False)
    total, _ = extra(True)
    inner = total * noop_inner / noop_total
    return inner, total - inner


def chrome_trace(raw: List[Tuple[str, int, int, object]]) -> Dict:
    """Raw spans as a Chrome trace (``chrome://tracing``, Perfetto)."""
    base = min((start for _, start, _, _ in raw), default=0)
    events = [
        {
            "name": name,
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "ts": (start - base) / 1e3,
            "dur": (end - start) / 1e3,
            "args": {"parent": parent},
        }
        for name, start, end, parent in raw
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
