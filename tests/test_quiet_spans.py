"""Quiet spans: a step of several ticks is those ticks stepped one by one.

Between governor decisions a node's inputs repeat, so the engine steps the
ticks up to the next runtime firing or segment roll, the horizon, the
core-block end or a fault-window edge as one span (DESIGN.md §6q). An
observer without the span hook (``quiet_ticks``) bounds every step of its
run to one tick, so adding a no-op observer gives each run its tick-by-tick
reference with no switch. These tests compare every channel, the decisions, the device
counters, the incident log and the guard's records of the two, bit for bit,
over the golden matrix's clean, faulted and guarded runs, the benchmark's
faulted run and every run of fleet tasks of 1, 2 and 17 jobs, and pin each
bound on its own.
"""

import copy
import math
import random
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.backends.latency import LatencyModel, LatencyParams
from repro.cluster import simulator
from repro.cluster.job import ClusterJob
from repro.errors import HardwareError, SimulationError, WorkloadError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec, standard_campaign
from repro.hw.memory import MemorySubsystem
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import get_preset
from repro.obs import ObsConfig
from repro.runtime.session import BuiltRun, RunResult, build_run, make_governor
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationEngine
from repro.sim.observers import BaseTickObserver, RuntimeObserver, standard_observers
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.rapl import RAPL_DRAM, RAPL_PKG
from repro.workloads.base import Segment, Workload
from repro.workloads.registry import SUITE_INTEL_A100, get_workload
from tests.test_node_batch import GOVERNORS as FLEET_GOVERNORS
from tests.test_node_batch import _assert_same_run, fleet_job

PRESETS = ("intel_a100", "intel_4a100", "intel_max1550", "amd_mi210")
#: The golden matrix's governors (tests/data/gen_golden_manifest.py).
GOVERNORS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("default", {}),
    ("magus", {}),
    ("ups", {}),
    ("powercap", {"cap_w": 150.0}),
)
#: The golden matrix's fault modes, built as tests/data/gen_golden_manifest.py
#: builds them.
FAULT_MODES = {
    "faulted": lambda: {"fault_plan": standard_campaign(1, horizon_s=4.0), "supervise": True},
    "guarded": lambda: {"guard": True, "actuation_latency": "msr_fast"},
}


class _TickByTick(BaseTickObserver):
    """A no-op observer without the span hook: its run steps tick by tick."""


def _b(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _counting_steps(monkeypatch) -> List[int]:
    """Record every ``HeterogeneousNode.step``'s span length."""
    spans: List[int] = []
    inner = HeterogeneousNode.step

    def counted(self, dt_s, segment, ticks=1):
        state = inner(self, dt_s, segment, ticks)
        spans.append(state.ticks)
        return state

    monkeypatch.setattr(HeterogeneousNode, "step", counted)
    return spans


def _device_counters(run: BuiltRun) -> Dict[str, bytes]:
    """The devices' counters, the incident log and the guard's records."""
    hub = run.hub
    # Read past any fault proxy, so that reading trips no fault.
    msr, pcm, rapl = (getattr(device, "_inner", device) for device in (hub.msr, hub.pcm, hub.rapl))
    instructions, cycles = msr.read_all_core_counters(None)
    counters = {
        "msr": instructions.tobytes() + cycles.tobytes(),
        "pcm_bytes": _b(pcm.bytes_total),
        "pcm_history": _b([value for entry in pcm._history for value in entry]),
        "rapl": _b([rapl.energy_j(RAPL_PKG), rapl.energy_j(RAPL_DRAM)]),
        "nvml": _b(hub.nvml.energy_j()),
        "backend": repr(
            (hub.backend.switch_count, hub.backend.settling_ticks, hub.backend.switch_delays_s)
        ).encode(),
        # Float reprs round-trip, so equal reprs are equal bits.
        "incidents": repr(list(run.log)).encode(),
    }
    if run.guard is not None:
        counters["guard"] = repr((run.guard.quarantine_events, run.guard.breaker_steps)).encode()
    return counters


def _matrix_run(
    preset: str, governor: str, options, *, tick_by_tick: bool, workload="srad", horizon_s=4.0,
    **kwargs,
):
    run = build_run(
        preset,
        get_workload(workload, seed=1),
        make_governor(governor, **options),
        seed=1,
        dt_s=0.01,
        max_time_s=horizon_s,
        **kwargs,
    )
    if tick_by_tick:
        run.engine.observers.append(_TickByTick())
    result = run.finish(run.engine.run(run.workload, max_time_s=run.max_time_s))
    return result, _device_counters(run)


def _benchmark_faulted_run(*, tick_by_tick: bool):
    """The benchmark's ``faulted_ups_max1550`` run (benchmarks/suite/workloads.py)."""
    return _matrix_run(
        "intel_max1550",
        "ups",
        {},
        tick_by_tick=tick_by_tick,
        horizon_s=600.0,
        actuation_latency="msr_fast",
        fault_plan=standard_campaign(1),
        supervise=True,
        guard=True,
        obs=ObsConfig(enabled=True, metrics=True, spans=True, tsdb=True),
    )


def _assert_same_channels(spanned: RunResult, reference: RunResult) -> None:
    assert sorted(spanned.traces) == sorted(reference.traces)
    for name, series in reference.traces.items():
        other = spanned.traces[name]
        assert other.times.tobytes() == series.times.tobytes(), name
        assert other.values.tobytes() == series.values.tobytes(), name
    assert [(d.time_s, d.target_ghz, d.reason) for d in spanned.decisions] == [
        (d.time_s, d.target_ghz, d.reason) for d in reference.decisions
    ]
    assert _b(spanned.runtime_s) == _b(reference.runtime_s)
    assert spanned.completed == reference.completed


class TestSpansMatchTheTickByTickRun:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("governor,options", GOVERNORS, ids=[g for g, _ in GOVERNORS])
    def test_golden_matrix_clean_runs(self, preset, governor, options, monkeypatch):
        spans = _counting_steps(monkeypatch)
        spanned, spanned_devices = _matrix_run(preset, governor, options, tick_by_tick=False)
        assert max(spans) > 1  # the run did step spans
        spans.clear()
        reference, reference_devices = _matrix_run(preset, governor, options, tick_by_tick=True)
        assert set(spans) == {1}
        _assert_same_channels(spanned, reference)
        assert spanned_devices == reference_devices

    @pytest.mark.parametrize("mode", FAULT_MODES)
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("governor,options", GOVERNORS, ids=[g for g, _ in GOVERNORS])
    def test_golden_matrix_faulted_and_guarded_runs(
        self, preset, governor, options, mode, monkeypatch
    ):
        spans = _counting_steps(monkeypatch)
        spanned, spanned_devices = _matrix_run(
            preset, governor, options, tick_by_tick=False, **FAULT_MODES[mode]()
        )
        assert max(spans) > 1
        reference, reference_devices = _matrix_run(
            preset, governor, options, tick_by_tick=True, **FAULT_MODES[mode]()
        )
        if mode == "faulted":
            assert reference.incidents
        _assert_same_channels(spanned, reference)
        assert spanned_devices == reference_devices

    def test_the_benchmarks_faulted_run(self):
        (spanned, spanned_devices), (reference, reference_devices) = (
            _benchmark_faulted_run(tick_by_tick=flag) for flag in (False, True)
        )
        assert reference.guard_quarantines > 0 and reference.failsafe_count > 0
        _assert_same_run(spanned, reference)
        assert spanned_devices == reference_devices

    @pytest.mark.parametrize("preset", ("intel_a100", "amd_mi210"))
    @pytest.mark.parametrize("median_s", (2e-3, 3e-2))
    def test_switch_latency_runs(self, preset, median_s):
        # A switch latency longer than a tick leaves a target pending across
        # ticks whose frequencies still repeat: no span may start then.
        runs = [
            _matrix_run(
                preset, "magus", {}, tick_by_tick=flag, workload="unet", horizon_s=8.0,
                actuation_latency=LatencyModel(
                    LatencyParams(median_s=median_s, sigma=0.5, floor_s=1e-4, ceil_s=0.08), seed=1
                ),
            )
            for flag in (False, True)
        ]
        (spanned, spanned_devices), (reference, reference_devices) = runs
        assert sum(1 for d in spanned.decisions if d.target_ghz is not None) > 5
        _assert_same_channels(spanned, reference)
        assert spanned_devices == reference_devices

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("width", (1, 2, 17))
    def test_batches(self, preset, width, monkeypatch):
        # Every run a fleet task of ``width`` jobs finishes, before it is
        # slimmed, against the same task's runs stepped tick by tick.
        spans = _counting_steps(monkeypatch)
        finished: List[RunResult] = []
        slim = simulator._slim

        def kept(job, governor_name, result):
            finished.append(result)
            return slim(job, governor_name, result)

        monkeypatch.setattr(simulator, "_slim", kept)
        jobs = [fleet_job(k) for k in range(width)]
        governor = FLEET_GOVERNORS[preset]
        simulator._run_job(preset, jobs, governor, 0.01, obs=True, tsdb=True)
        spanned = list(finished)
        assert max(spans) > 1
        finished.clear()
        run = SimulationEngine.run

        def tick_by_tick(self, *args, **kwargs):
            self.observers.append(_TickByTick())
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SimulationEngine, "run", tick_by_tick)
        spans.clear()
        simulator._run_job(preset, jobs, governor, 0.01, obs=True, tsdb=True)
        assert set(spans) == {1}
        assert len(spanned) == len(finished) == width
        for spanned_run, reference in zip(spanned, finished):
            _assert_same_run(spanned_run, reference)


#: The most ticks a run may step alone. Firing, rolling and re-derived
#: ticks close or open spans, so what steps alone is mostly a slewing socket
#: and a fault-window edge: 1.2% of a settled MAGUS run's ticks, 0.6% of the
#: benchmark's faulted run's and 1.1% of a 16-job fleet task's, against 5.8%,
#: 10.7% and 6.5% while each of those ticks stepped alone.
ALONE_SHARE = 0.03


class TestCoverage:
    def test_a_settled_magus_run_steps_few_ticks_alone(self, monkeypatch):
        spans = _counting_steps(monkeypatch)
        run = build_run("intel_a100", "unet", make_governor("magus"), seed=1)
        result = run.finish(run.engine.run(run.workload, max_time_s=run.max_time_s))
        ticks = len(result.traces["demand_gbps"])
        assert sum(spans) == ticks
        assert spans.count(1) <= ALONE_SHARE * ticks

    def test_the_benchmarks_faulted_run_steps_few_ticks_alone(self, monkeypatch):
        spans = _counting_steps(monkeypatch)
        result, _ = _benchmark_faulted_run(tick_by_tick=False)
        ticks = len(result.traces["demand_gbps"])
        assert sum(spans) == ticks
        assert spans.count(1) <= ALONE_SHARE * ticks

    def test_a_fleet_task_steps_few_ticks_alone(self, monkeypatch):
        # One task of the fleet benchmark's shape: 16 staggered 2.5 s MAGUS
        # jobs on intel_a100, each alone on its own node.
        spans = _counting_steps(monkeypatch)
        jobs = [
            ClusterJob(
                f"job{i:02d}",
                SUITE_INTEL_A100[i % len(SUITE_INTEL_A100)],
                1.875 * i,
                seed=1 + i,
                max_time_s=2.5,
            )
            for i in range(16)
        ]
        outcomes = simulator._run_job("intel_a100", jobs, "magus", 0.01, obs=True, tsdb=True)
        ticks = sum(spans)
        assert len(outcomes) == 16 and ticks == 16 * 250
        assert spans.count(1) <= ALONE_SHARE * ticks


class TestBounds:
    def test_ticks_before_counts_with_the_clocks_own_boundaries(self):
        rng = random.Random(5)
        for _ in range(3000):
            clock = SimClock(rng.choice([0.01, 0.003, 0.25]))
            clock.advance(rng.randint(1, 4000))
            limit = rng.randint(1, 70)
            when = (clock.tick + rng.choice([rng.uniform(-2, 80), rng.randint(-2, 80)])) * clock.dt
            expected = 0
            while expected < limit and (clock.tick + expected + 1) * clock.dt < when:
                expected += 1
            assert clock.ticks_before(when, limit) == expected
        assert SimClock().ticks_before(math.inf, 9) == 9
        assert SimClock().ticks_before(math.nan, 9) == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_the_workload_bound_stops_before_a_roll(self, seed):
        # The bound stops after the advance that rolls: that advance may
        # close a span, and none after it may join one.
        rng = random.Random(seed)
        segments = tuple(Segment(rng.uniform(0.01, 0.2), 10.0) for _ in range(8))
        ex = Workload("rolls", segments).execution()
        limit = 64
        while not ex.done:
            nominal = rng.uniform(0.001, 0.03)
            # The reference: advance a copy one tick at a time through the
            # first roll.
            twin = copy.copy(ex)
            through = 0
            while through < limit:
                twin.advance(nominal)
                through += 1
                if twin.segment_index != ex.segment_index:
                    break
            quiet = ex.quiet_ticks(nominal, limit)
            assert quiet == through
            ex.advance(nominal, quiet)

    def test_a_span_closing_on_a_roll_is_its_single_advances(self):
        segments = (Segment(0.37, 10.0), Segment(0.11, 5.0), Segment(0.53, 1.0))
        workload = Workload("k", segments)
        folded, single = workload.execution(), workload.execution()
        rolls = 0
        while not folded.done:
            index = folded.segment_index
            k = folded.quiet_ticks(0.0071, 64)
            folded.advance(0.0071, k)
            progress: List[float] = []
            for _ in range(k):
                # Every tick of the span starts in the segment it started in.
                assert single.segment_index == index
                single.advance(0.0071)
                progress.extend(single.tick_progress)
            rolls += folded.segment_index != index
            assert _b(folded.tick_progress) == _b(progress)
            assert (folded._index, _b(folded._consumed_in_segment), _b(folded._nominal_done)) == (
                single._index,
                _b(single._consumed_in_segment),
                _b(single._nominal_done),
            )
        assert rolls == 3

    def test_advancing_k_ticks_is_k_advances(self):
        segments = (Segment(0.37, 10.0), Segment(0.11, 5.0), Segment(0.53, 1.0))
        workload = Workload("k", segments)
        folded, single = workload.execution(), workload.execution()
        progress: List[float] = []
        for k in (1, 7, 3, 19, 1, 40, 2):
            folded.advance(0.0071, k)
            for _ in range(k):
                single.advance(0.0071)
                progress.extend(single.tick_progress)
            assert _b(folded.tick_progress) == _b(progress[-k:])
            assert (folded._index, _b(folded._consumed_in_segment), _b(folded._nominal_done)) == (
                single._index,
                _b(single._consumed_in_segment),
                _b(single._nominal_done),
            )
        with pytest.raises(WorkloadError, match="ticks"):
            folded.advance(0.01, 0)

    def test_each_fault_edge_tick_steps_alone(self, a100_node, a100_hub):
        # Quarter-second ticks are exact in binary: the wrap fires on the
        # tick ending at 1.0 s, the freeze opens on 2.0 s and closes on 3.0 s.
        injector = FaultInjector(
            FaultPlan((FaultSpec("msr", "wrap", 1.0, 0.0), FaultSpec("pcm", "freeze", 2.0, 1.0)))
        )
        a100_hub.install_fault_injector(injector)
        segment = Segment(10.0, 5.0, mem_intensity=0.5, cpu_util=0.5, gpu_util=0.5)
        bounds = []
        for _ in range(14):
            bounds.append(a100_hub.quiet_ticks(0.25, 64))
            a100_node.step(0.25, segment)
            a100_hub.on_tick(0.25)
        # Bounds from t = 0, 0.25, ..., 3.25 s. The 1 at 0.75, 1.75 and
        # 2.75 s steps an edge tick alone (at 0.5, 1.5 and 2.5 s one quiet
        # tick is left before it); a fired wrap no longer bounds, and past
        # the freeze's end nothing does.
        assert bounds == [3, 2, 1, 1, 3, 2, 1, 1, 3, 2, 1, 1, 64, 64]
        assert [(i.fault, i.time_s) for i in injector.injections] == [("wrap", 1.0), ("freeze", 2.0)]

    def test_a_fault_due_at_the_first_tick_steps_it_alone(self, a100_preset, a100_node):
        # Before the first step the clock reads 0.0: a wrap or a freeze
        # starting then fires on the first tick.
        for spec in (FaultSpec("msr", "wrap", 0.0), FaultSpec("pcm", "freeze", 0.0)):
            hub = TelemetryHub(a100_node, a100_preset.telemetry)
            assert hub.quiet_ticks(0.01, 64) == 64  # no injector, no bound
            hub.install_fault_injector(FaultInjector(FaultPlan((spec,))))
            assert hub.quiet_ticks(0.01, 64) == 1

    def test_a_span_that_reaches_a_firing_is_refused(self, a100_node, a100_hub):
        class _Due:
            def start(self, now_s):
                pass

            def next_fire_s(self):
                return 0.03

            def invoke(self, now_s):
                raise AssertionError("fired inside a span")

        observer = RuntimeObserver([_Due()])
        engine = SimulationEngine(a100_node, observers=[observer], clock=SimClock(0.01))
        observer.on_start(engine)
        # Two ticks end before 0.03 s; the third ends on it and may close
        # the span. A span past it holds the due time in an earlier tick.
        assert observer.quiet_ticks(64) == 3
        state = a100_node.step(0.01, None)
        for ticks in (4, 5):
            with pytest.raises(SimulationError, match=f"inside a {ticks}-tick span"):
                observer.on_tick(state._replace(ticks=ticks), None)

    def test_a_firing_on_a_spans_last_tick_fires_once_at_its_due(self, a100_node):
        class _Periodic:
            def __init__(self):
                self.due = 0.025
                self.fired: List[Tuple[float, int]] = []

            def start(self, now_s):
                pass

            def next_fire_s(self):
                return self.due

            def invoke(self, now_s):
                self.fired.append((now_s, a100_node.last_state.ticks))
                self.due = now_s + 0.2

        runtime = _Periodic()
        observer = RuntimeObserver([runtime])
        engine = SimulationEngine(a100_node, observers=[observer], clock=SimClock(0.01))
        engine.run(None, max_time_s=0.5)
        # Each firing closes a span: ticks ending at 0.01 and 0.02 s, then
        # the one 0.025 s falls due in; then 20 ticks up to each next one.
        assert runtime.fired == [(0.025, 3), (0.025 + 0.2, 20), (0.025 + 0.2 + 0.2, 20)]

    def test_a_re_derived_tick_with_settled_sockets_spans(self, monkeypatch):
        # A new segment misses the memo; with every socket settled the step
        # still spans, and equals the ticks stepped one by one.
        preset = get_preset("intel_a100")
        node, twin = (preset.build_node(RngStreams(2)) for _ in range(2))
        services: List[int] = []
        service = MemorySubsystem.service

        def counted(self, *args):
            services.append(1)
            return service(self, *args)

        monkeypatch.setattr(MemorySubsystem, "service", counted)
        for segment in (
            Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.5, gpu_util=0.3),
            Segment(1.0, 80.0, mem_intensity=0.9, cpu_util=0.2, gpu_util=0.7),
        ):
            services.clear()
            stretch, steady = node.settle(0.01, segment)
            assert steady and services == [1]
            state = node.step(0.01, segment, 9)
            assert state.ticks == 9 and services == [1]
            for j in range(9):
                expected = twin.step(0.01, segment)
                assert _b(expected.stretch) == _b(stretch)
                assert _b(state.tick_time_s[j]) == _b(expected.time_s)
                assert _b(state.tick_package_w[j]) == _b(expected.power.package_w)
                assert node.tick_core_freqs_ghz[j].tobytes() == twin.core_freqs_ghz.tobytes()
            assert state[:11] == expected[:11]

    def test_a_slewing_or_pending_socket_steps_alone(self):
        preset = get_preset("intel_a100")
        node = preset.build_node(RngStreams(2))
        segment = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.5, gpu_util=0.3)
        assert node.settle(0.01, segment)[1]
        node.step(0.01, segment, 4)

        def settled(n):
            steady = []
            for _ in range(n):
                steady.append(node.settle(0.01, segment)[1])
                node.step(0.01, segment)
            return steady

        # A 1.4 GHz swing at 50 GHz/s slews 0.5 GHz a tick: 2.2 -> 1.7 ->
        # 1.2 -> 0.8 GHz, settled on the third tick.
        node.set_uncore_target_all(node.uncore_min_ghz)
        assert settled(4) == [False, False, True, True]
        # A 30 ms switch latency holds socket 1's target pending for two
        # ticks; the third adopts it and slews (0.8 -> 1.3 -> 1.8 -> 2.2 GHz).
        node.uncore(1).request_target(node.uncore_max_ghz, delay_s=0.03)
        assert settled(7) == [False, False, False, False, True, True, True]
        node.set_uncore_target_all(node.uncore_max_ghz)
        assert not node.settle(0.01, segment)[1]
        with pytest.raises(HardwareError, match="2-tick span needs every socket settled"):
            node.step(0.01, segment, 2)

    def test_a_step_must_take_its_settles_inputs(self):
        preset = get_preset("intel_a100")
        node = preset.build_node(RngStreams(2))
        segment = Segment(1.0, 20.0)
        for dt_s, other in ((0.02, segment), (0.01, Segment(1.0, 20.0)), (0.01, None)):
            node.settle(0.01, segment)
            with pytest.raises(HardwareError, match="after a settle"):
                node.step(dt_s, other)
        node.settle(0.01, segment)
        with pytest.raises(HardwareError, match="already settled"):
            node.settle(0.01, segment)

    def test_fault_edge_ticks_step_alone_in_a_run(self, a100_node, a100_hub):
        # The plan of test_each_fault_edge_tick_steps_alone, run by an
        # engine: the ticks ending at 1.0, 2.0 and 3.0 s step alone, and
        # spans fill the rest.
        a100_hub.install_fault_injector(
            FaultInjector(
                FaultPlan((FaultSpec("msr", "wrap", 1.0, 0.0), FaultSpec("pcm", "freeze", 2.0, 1.0)))
            )
        )
        steps: List[Tuple[float, int]] = []

        class _Steps(BaseTickObserver):
            def quiet_ticks(self, limit):
                return limit

            def on_tick(self, state, execution):
                steps.append((state.time_s, state.ticks))

        observers = standard_observers(a100_node, a100_hub, extra=[_Steps()])
        engine = SimulationEngine(a100_node, observers=observers, clock=SimClock(0.25))
        engine.run(None, max_time_s=4.0)
        assert steps == [(0.75, 3), (1.0, 1), (1.75, 3), (2.0, 1), (2.75, 3), (3.0, 1), (4.0, 4)]


class TestSignedZeroAcrossASpan:
    def test_a_negative_zero_phase_after_an_equal_one_keeps_its_sign(self):
        # Two equal but distinct segments: dataclass equality cannot tell
        # them apart, the span's memo key (identity) can.
        plus = Segment(0.4, 0.0, mem_intensity=0.5, cpu_util=0.3, gpu_util=0.6)
        minus = Segment(0.4, -0.0, mem_intensity=0.5, cpu_util=0.3, gpu_util=0.6)
        assert plus == minus
        workload = Workload("signs", (plus, minus))
        runs = []
        for tick_by_tick in (False, True):
            preset = get_preset("intel_a100")
            node = preset.build_node(RngStreams(3))
            hub = TelemetryHub(node, preset.telemetry)
            observers = standard_observers(node, hub)
            if tick_by_tick:
                observers.append(_TickByTick())
            engine = SimulationEngine(node, observers=observers, clock=SimClock(0.01))
            runs.append(engine.run(workload, max_time_s=1.0).recorder.series("demand_gbps"))
        spanned, reference = runs
        assert spanned.values.tobytes() == reference.values.tobytes()
        signs = np.signbit(spanned.values)
        assert not signs[:30].any() and signs[-30:].all()


class TestRecorderBlocks:
    def test_a_block_lands_row_by_row(self):
        rec = TraceRecorder(["a", "b"], expected_rows=3)
        block = rec.row_block(4)
        block[:3] = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        rec.record_rows([0.1, 0.2, 0.3], block)
        block[:2] = [[7.0, 8.0], [9.0, 10.0]]
        rec.record_rows([0.4, 0.5], block)
        assert rec.series("a").values.tolist() == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert rec.series("b").times.tolist() == [0.1, 0.2, 0.3, 0.4, 0.5]
        assert rec.as_dict()["b"].values.tolist() == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_a_block_is_checked_like_a_row(self):
        rec = TraceRecorder(["a", "b"])
        with pytest.raises(SimulationError, match="channels"):
            rec.record_rows([0.1], np.zeros((1, 3)))
        with pytest.raises(SimulationError, match="rows"):
            rec.record_rows([0.1, 0.2], np.zeros((1, 2)))
        with pytest.raises(SimulationError, match="non-increasing"):
            rec.record_rows([0.1, 0.1], np.zeros((2, 2)))
        rec.record_rows([0.1, 0.2], np.zeros((2, 2)))
        with pytest.raises(SimulationError, match="non-increasing"):
            rec.record_rows([0.2], np.zeros((1, 2)))
        assert len(rec) == 2
