"""SimulationEngine: tick loop, horizons, daemon scheduling, trace schema."""

import dataclasses
import math

import pytest

from repro.errors import SimulationError
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationEngine
from repro.sim.observers import (
    BaseTickObserver,
    CoreFrequencyObserver,
    NodeStateObserver,
    RuntimeObserver,
    core_freq_channels,
    standard_observers,
)
from repro.sim.rng import RngStreams
from repro.telemetry.hub import TelemetryHub


class _CountingRuntime:
    """Fires every `period` seconds and counts invocations."""

    def __init__(self, period=0.25):
        self.period = period
        self.invocations = []
        self._next = float("inf")

    def start(self, now_s):
        self._next = now_s + self.period

    def next_fire_s(self):
        return self._next

    def invoke(self, now_s):
        self.invocations.append(now_s)
        self._next = now_s + self.period


def make_engine(node, hub, runtimes=(), dt_s=0.01):
    """An engine over the standard observer stack (what the session runner composes)."""
    return SimulationEngine(
        node, observers=standard_observers(node, hub, runtimes), clock=SimClock(dt_s)
    )


class _StuckRuntime(_CountingRuntime):
    def invoke(self, now_s):
        self.invocations.append(now_s)
        # never advances its schedule


class TestRun:
    def test_workload_runs_to_completion(self, a100_node, a100_hub, tiny_workload):
        engine = make_engine(a100_node, a100_hub)
        result = engine.run(tiny_workload, max_time_s=60.0)
        assert result.completed
        # Min-uncore idle state stretches the memory-heavy middle segment.
        assert result.runtime_s >= tiny_workload.nominal_duration_s - 0.02

    def test_idle_run_lasts_exactly_horizon(self, a100_node, a100_hub):
        engine = make_engine(a100_node, a100_hub)
        result = engine.run(None, max_time_s=1.0)
        assert result.completed
        assert result.runtime_s == pytest.approx(1.0)

    def test_trace_has_all_channels(self, a100_node, a100_hub, tiny_workload):
        engine = make_engine(a100_node, a100_hub)
        result = engine.run(tiny_workload)
        for channel in (*NodeStateObserver.CHANNELS, *core_freq_channels(a100_node)):
            assert len(result.recorder.series(channel)) > 0

    def test_one_sample_per_tick(self, a100_node, a100_hub):
        engine = make_engine(a100_node, a100_hub)
        result = engine.run(None, max_time_s=0.5)
        assert len(result.recorder) == 50

    def test_safety_horizon_stops_starved_runs(self, a100_preset, tiny_workload):
        # Pin the bandwidth ceiling impossibly low via a tiny peak bw.
        from repro.hw.memory import MemorySubsystem

        node = a100_preset.build_node()
        node.memory = MemorySubsystem(0.5, f_ref_ghz=1.8, f_max_ghz=2.2)
        node.force_uncore_all(0.8)
        hub = TelemetryHub(node, a100_preset.telemetry)
        engine = make_engine(node, hub)
        result = engine.run(tiny_workload, max_time_s=600.0, safety_factor=2.0)
        assert not result.completed
        assert result.horizon_s == pytest.approx(2.0 * tiny_workload.nominal_duration_s)

    def test_invalid_horizon_rejected(self, a100_node, a100_hub):
        engine = make_engine(a100_node, a100_hub)
        with pytest.raises(SimulationError):
            engine.run(None, max_time_s=0.0)

    @pytest.mark.parametrize("workload", [None, "tiny"])
    def test_nan_horizon_rejected(self, a100_node, a100_hub, tiny_workload, workload):
        engine = make_engine(a100_node, a100_hub)
        with pytest.raises(SimulationError, match="max_time_s must be finite"):
            engine.run(tiny_workload if workload else None, max_time_s=math.nan)

    def test_infinite_horizon_only_for_a_workload_run(self, a100_node, a100_hub, tiny_workload):
        engine = make_engine(a100_node, a100_hub)
        with pytest.raises(SimulationError, match="max_time_s must be finite"):
            engine.run(None, max_time_s=math.inf)
        # The safety factor caps a workload run's horizon.
        result = engine.run(tiny_workload, max_time_s=math.inf, safety_factor=2.0)
        assert result.horizon_s == 2.0 * tiny_workload.nominal_duration_s

    @pytest.mark.parametrize("factor", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_safety_factor_rejected(self, a100_node, a100_hub, tiny_workload, factor):
        # NaN dropped the cap, zero ended the run at once, and a negative
        # factor returned a negative runtime.
        engine = make_engine(a100_node, a100_hub)
        with pytest.raises(SimulationError, match="safety_factor must be finite and positive"):
            engine.run(tiny_workload, max_time_s=30.0, safety_factor=factor)

    def test_mismatched_hub_rejected(self, a100_preset, a100_node, a100_hub):
        other = a100_preset.build_node()
        with pytest.raises(SimulationError, match="different node"):
            standard_observers(other, a100_hub)


class TestRuntimeScheduling:
    def test_runtime_fires_on_schedule(self, a100_node, a100_hub):
        rt = _CountingRuntime(period=0.25)
        engine = make_engine(a100_node, a100_hub, [rt])
        engine.run(None, max_time_s=1.0)
        assert len(rt.invocations) == 4
        assert rt.invocations[0] == pytest.approx(0.25)

    def test_multiple_runtimes(self, a100_node, a100_hub):
        fast = _CountingRuntime(period=0.2)
        slow = _CountingRuntime(period=0.5)
        engine = make_engine(a100_node, a100_hub, [fast, slow])
        engine.run(None, max_time_s=1.0)
        assert len(fast.invocations) == 5
        assert len(slow.invocations) == 2

    def test_stuck_runtime_detected(self, a100_node, a100_hub):
        engine = make_engine(a100_node, a100_hub, [_StuckRuntime()])
        with pytest.raises(SimulationError):
            engine.run(None, max_time_s=1.0)

    def test_progress_channel_tracks_workload(self, a100_node, a100_hub, tiny_workload):
        engine = make_engine(a100_node, a100_hub)
        result = engine.run(tiny_workload)
        progress = result.recorder.series("progress").values
        assert progress[0] < 0.05
        assert progress[-1] >= 0.99
        assert (progress[1:] >= progress[:-1] - 1e-12).all()


class TestFiringSemantics:
    """ScheduledRuntime firing edge cases (the old loop's implicit contract)."""

    def test_two_runtimes_due_in_same_tick_both_fire_in_order(self, a100_node, a100_hub):
        order = []

        class _Tagged(_CountingRuntime):
            def __init__(self, tag):
                super().__init__(period=0.25)
                self.tag = tag

            def invoke(self, now_s):
                order.append((self.tag, now_s))
                super().invoke(now_s)

        first, second = _Tagged("first"), _Tagged("second")
        engine = make_engine(a100_node, a100_hub, [first, second])
        engine.run(None, max_time_s=0.5)
        # Both due at 0.25 and 0.5 within the same ticks, dispatched in
        # registration order each time.
        assert [tag for tag, _ in order] == ["first", "second", "first", "second"]
        assert order[0][1] == pytest.approx(0.25)
        assert order[1][1] == pytest.approx(0.25)

    def test_runtime_due_exactly_on_horizon_fires(self, a100_node, a100_hub):
        rt = _CountingRuntime(period=1.0)
        engine = make_engine(a100_node, a100_hub, [rt])
        engine.run(None, max_time_s=1.0)
        # next_fire_s == 1.0 lands exactly on the horizon boundary: the tick
        # ending at t=1.0 still runs, so the invocation happens.
        assert len(rt.invocations) == 1
        assert rt.invocations[0] == pytest.approx(1.0)

    def test_runtime_with_subtick_period_fires_every_elapsed_cycle(self, a100_node, a100_hub):
        # Period 1/256 s against a 1/64 s tick: all cycles elapsed during
        # the tick fire (4 per tick), none are dropped. Binary-exact values
        # keep the accumulated schedule free of float drift.
        rt = _CountingRuntime(period=0.00390625)
        engine = make_engine(a100_node, a100_hub, [rt], dt_s=0.015625)
        engine.run(None, max_time_s=0.25)
        assert len(rt.invocations) == 64

    def test_schedule_not_advanced_guard(self, a100_node, a100_hub):
        engine = make_engine(a100_node, a100_hub, [_StuckRuntime()])
        with pytest.raises(SimulationError, match="did not advance its schedule"):
            engine.run(None, max_time_s=1.0)

    def test_schedule_moved_backwards_guard(self, a100_node, a100_hub):
        class _Backwards(_CountingRuntime):
            def invoke(self, now_s):
                self.invocations.append(now_s)
                self._next = now_s - self.period

        engine = make_engine(a100_node, a100_hub, [_Backwards()])
        with pytest.raises(SimulationError, match="did not advance its schedule"):
            engine.run(None, max_time_s=1.0)

    def test_never_firing_runtime_is_never_invoked(self, a100_node, a100_hub):
        rt = _CountingRuntime(period=float("inf"))
        engine = make_engine(a100_node, a100_hub, [rt])
        engine.run(None, max_time_s=0.5)
        assert rt.invocations == []


class TestObserverAPI:
    def test_legacy_and_observer_args_are_exclusive(self, a100_node, a100_hub):
        # The legacy (node, telemetry, runtimes) form is gone: the hub
        # reaches the engine only inside an observer.
        with pytest.raises(TypeError):
            SimulationEngine(a100_node, a100_hub, observers=[NodeStateObserver()])

    def test_engine_needs_some_observer_source(self, a100_node):
        with pytest.raises(TypeError):
            SimulationEngine(a100_node)

    def test_explicit_observer_stack_runs(self, a100_node, a100_hub):
        observers = standard_observers(a100_node, a100_hub)
        engine = SimulationEngine(a100_node, observers=observers, clock=SimClock(0.01))
        result = engine.run(None, max_time_s=0.2)
        assert len(result.recorder) == 20

    def test_observer_lifecycle_hooks_fire(self, a100_node, a100_hub):
        events = []

        class _Probe(BaseTickObserver):
            def on_start(self, engine):
                events.append("start")

            def on_tick(self, state, execution):
                events.append("tick")

            def on_finish(self, result):
                events.append(("finish", result.completed))

        observers = standard_observers(a100_node, a100_hub, extra=[_Probe()])
        engine = SimulationEngine(a100_node, observers=observers, clock=SimClock(0.01))
        engine.run(None, max_time_s=0.05)
        assert events[0] == "start"
        assert events.count("tick") == 5
        assert events[-1] == ("finish", True)

    def test_run_without_recording_observers_has_no_recorder(self, a100_node, a100_hub):
        from repro.sim.observers import TelemetryObserver

        engine = SimulationEngine(
            a100_node, observers=[TelemetryObserver(a100_hub)], clock=SimClock(0.01)
        )
        result = engine.run(None, max_time_s=0.1)
        assert result.recorder is None
        assert result.completed

    def test_engine_core_has_no_channel_knowledge(self):
        # The acceptance criterion made greppable: the bodies of the tick
        # loop and its setup (docstrings aside) must not name any trace
        # channel, telemetry device or governor concept; they arrive as
        # observers.
        import ast
        import inspect
        import textwrap

        from repro.sim import engine as engine_module

        for func_obj in (
            engine_module.SimulationEngine.run,
            engine_module.SimulationEngine.start,
            engine_module.lockstep,
            engine_module._step_runs,
        ):
            tree = ast.parse(textwrap.dedent(inspect.getsource(func_obj)))
            func = tree.body[0]
            body = func.body[1:] if isinstance(func.body[0], ast.Expr) else func.body
            code = "\n".join(ast.unparse(stmt) for stmt in body)
            for forbidden in (
                "_ghz", "_w", "_gbps", "telemetry", "hub", "governor", "daemon", "core"
            ):
                assert forbidden not in code, (func_obj.__name__, forbidden)

    def test_per_core_channels_derived_from_topology(self, a100_preset):
        node = a100_preset.build_node()
        names = core_freq_channels(node)
        assert len(names) == a100_preset.n_sockets * a100_preset.cores_per_socket
        assert names[0] == "core0_freq_ghz"
        assert names[-1] == f"core{node.n_cores - 1}_freq_ghz"

    def test_dual_socket_records_both_sockets(self, a100_preset, a100_hub, a100_node):
        engine = make_engine(a100_node, a100_hub)
        result = engine.run(None, max_time_s=0.1)
        n_cores = a100_preset.n_sockets * a100_preset.cores_per_socket
        per_core = [c for c in result.recorder.channels if c.endswith("_freq_ghz") and c.startswith("core")]
        assert len(per_core) == n_cores

    def test_small_node_has_no_phantom_channels(self, a100_preset, tiny_workload):
        # A 2-core/socket node must declare exactly 4 channels, not
        # duplicate the last core into core2/core3 of each socket.
        small = dataclasses.replace(a100_preset, cores_per_socket=2)
        node = small.build_node(RngStreams(0))
        node.force_uncore_all(small.uncore_min_ghz)
        hub = TelemetryHub(node, small.telemetry)
        engine = make_engine(node, hub)
        # Run under load: per-core DVFS jitter makes each core's frequency
        # trace distinct, so a copied channel would be detectable.
        result = engine.run(tiny_workload, max_time_s=2.0)
        per_core = [c for c in result.recorder.channels if c.endswith("_freq_ghz") and c.startswith("core")]
        assert per_core == [
            "core0_freq_ghz",
            "core1_freq_ghz",
            "core2_freq_ghz",
            "core3_freq_ghz",
        ]
        s0 = result.recorder.series("core1_freq_ghz").values
        s1 = result.recorder.series("core2_freq_ghz").values
        # core2 now belongs to socket 1 — it is real data, not a copy of
        # socket 0's last core.
        assert not (s0 == s1).all()

    def test_per_core_capture_is_optional(self, a100_node, a100_hub):
        observers = standard_observers(a100_node, a100_hub, per_core_channels=False)
        engine = SimulationEngine(a100_node, observers=observers, clock=SimClock(0.01))
        result = engine.run(None, max_time_s=0.1)
        assert result.recorder.channels == NodeStateObserver.CHANNELS

    def test_mismatched_core_observer_rejected(self, a100_preset, a100_node, a100_hub):
        other = a100_preset.build_node()
        observers = [NodeStateObserver(), CoreFrequencyObserver(other)]
        engine = SimulationEngine(a100_node, observers=observers, clock=SimClock(0.01))
        with pytest.raises(SimulationError):
            engine.run(None, max_time_s=0.1)

    def test_runtime_observer_alone_schedules(self, a100_node, a100_hub):
        rt = _CountingRuntime(period=0.25)
        observers = standard_observers(a100_node, a100_hub, [rt])
        engine = SimulationEngine(a100_node, observers=observers, clock=SimClock(0.01))
        engine.run(None, max_time_s=1.0)
        assert len(rt.invocations) == 4
