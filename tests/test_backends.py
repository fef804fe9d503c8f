"""The actuation backend: switch latency, settling, identity.

Four guarantees are pinned:

* **Bit-identity.** A hub's zero-latency
  :class:`~repro.backends.sim.SimBackend`, driven by an engine built by
  hand, reproduces the golden MAGUS and UPS traces sample-for-sample.
* **Determinism.** Latency draws are keyed off the run's master seed and
  driven purely by the actuation sequence, so results are identical
  across ``map_parallel`` worker counts and across replays.
* **Fault transparency.** The backend looks devices up on the hub at
  call time, so an armed :class:`~repro.faults.injector.FaultInjector`
  intercepts backend-routed writes exactly as it intercepts direct ones.
* **Hardware-faithful settling.** A write updates the register shadow
  immediately; the clock domain adopts the target only after the modeled
  latency, then slews — the effective frequency during settling is the
  ramping value.
"""

import importlib.util
import os

import numpy as np
import pytest

from repro.backends import (
    LATENCY_PRESETS,
    LatencyModel,
    LatencyParams,
    resolve_latency,
)
from repro.errors import BackendError, MSRAccessError
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.hw.presets import intel_a100
from repro.parallel.pool import map_parallel
from repro.runtime.session import make_governor, run_application
from repro.sim.rng import RngStreams
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.msr import MSR_UNCORE_RATIO_LIMIT, decode_uncore_ratio_limit
from repro.telemetry.sampling import AccessMeter
from repro.units import ghz_to_uncore_ratio
from repro.workloads.base import Segment

_GEN_PATH = os.path.join(os.path.dirname(__file__), "data", "gen_golden_trace.py")
_spec = importlib.util.spec_from_file_location("gen_golden_trace", _GEN_PATH)
gen_golden_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_golden_trace)

SEG = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.5, gpu_util=0.3)

#: A degenerate distribution: every switch takes exactly 20 ms.
FIXED_20MS = LatencyParams(median_s=0.02, sigma=0.0, floor_s=0.02, ceil_s=0.02)


def _intel_stack(latency=None):
    preset = intel_a100()
    node = preset.build_node(RngStreams(1))
    node.force_uncore_all(preset.uncore_min_ghz)
    hub = TelemetryHub(node, preset.telemetry, vendor=preset.vendor, latency=latency)
    return preset, node, hub


def _tick(node, hub, n=1, dt_s=0.01):
    for _ in range(n):
        node.step(dt_s, SEG)
        hub.on_tick(dt_s)


# ----------------------------------------------------------------------
# LatencyModel
# ----------------------------------------------------------------------
class TestLatencyModel:
    def test_zero_model_never_samples(self):
        model = LatencyModel.zero()
        assert model.is_zero
        assert model.sample_switch_s() == 0.0
        assert model.samples == 0  # zero draws bypass the RNG and counter

    def test_preset_draws_are_seed_deterministic(self):
        a = LatencyModel.preset("gpu_dvfs", seed=7)
        b = LatencyModel.preset("gpu_dvfs", seed=7)
        assert [a.sample_switch_s() for _ in range(50)] == [
            b.sample_switch_s() for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        a = LatencyModel.preset("gpu_dvfs", seed=1)
        b = LatencyModel.preset("gpu_dvfs", seed=2)
        assert [a.sample_switch_s() for _ in range(8)] != [
            b.sample_switch_s() for _ in range(8)
        ]

    @pytest.mark.parametrize("name", sorted(LATENCY_PRESETS))
    def test_draws_respect_clamp_bounds(self, name):
        model = LatencyModel.preset(name, seed=3)
        p = LATENCY_PRESETS[name]
        draws = [model.sample_switch_s() for _ in range(500)]
        assert min(draws) >= p.floor_s
        assert max(draws) <= p.ceil_s
        assert model.samples == 500

    def test_unknown_preset_rejected(self):
        with pytest.raises(BackendError):
            LatencyModel.preset("warp_drive")

    def test_invalid_params_rejected(self):
        with pytest.raises(BackendError):
            LatencyParams(median_s=-1.0)
        with pytest.raises(BackendError):
            LatencyParams(median_s=0.5, sigma=0.1, floor_s=1.0, ceil_s=2.0)

    @pytest.mark.parametrize("field", ["median_s", "sigma", "floor_s", "ceil_s"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_params_rejected(self, field, bad):
        # A NaN or infinite parameter makes every draw NaN or infinite.
        params = {"median_s": 1e-3, "sigma": 0.5, "floor_s": 1e-4, "ceil_s": 1e-2, field: bad}
        with pytest.raises(BackendError, match="must be finite"):
            LatencyParams(**params)

    def test_negative_infinity_keeps_its_message(self):
        with pytest.raises(BackendError, match="must be non-negative"):
            LatencyParams(median_s=float("-inf"))

    def test_resolve_coercions(self):
        assert resolve_latency(None).is_zero
        model = resolve_latency("msr_fast", seed=9)
        assert model.params == LATENCY_PRESETS["msr_fast"]
        assert model.seed == 9
        assert resolve_latency(model) is model
        with pytest.raises(BackendError):
            resolve_latency(0.005)


# ----------------------------------------------------------------------
# Settling semantics
# ----------------------------------------------------------------------
class TestSettlingSemantics:
    def test_shadow_updates_immediately_target_adopts_after_delay(self):
        _, node, hub = _intel_stack(latency=LatencyModel(FIXED_20MS))
        unc = node.uncore(0)
        old_target = unc.target_ghz
        hub.set_uncore_max_ghz(2.0)

        # Register shadow answers with the new limit at once (hardware-
        # faithful: the MSR readback never lags the write)...
        shadow = decode_uncore_ratio_limit(hub.msr.read(0, MSR_UNCORE_RATIO_LIMIT))[0]
        assert shadow == ghz_to_uncore_ratio(2.0)
        # ...but the clock domain has not adopted the target yet.
        assert unc.target_ghz == old_target
        assert unc.pending_target_ghz == pytest.approx(2.0)

        # One 20 ms window = two 10 ms ticks; then the target is adopted.
        _tick(node, hub, 2)
        assert unc.pending_target_ghz is None
        assert unc.target_ghz == pytest.approx(2.0)

    def test_read_during_settling_returns_ramping_value(self):
        _, node, hub = _intel_stack(latency=LatencyModel(FIXED_20MS))
        hub.set_uncore_max_ghz(2.0)
        _tick(node, hub, 3)  # past the latency window, into the slew ramp
        unc = node.uncore(0)
        assert unc.effective_ghz < 2.0  # not the target: the domain is still slewing
        assert unc.in_transition
        # Settle out: the ramp converges on the target.
        _tick(node, hub, 200)
        assert unc.effective_ghz == pytest.approx(2.0)
        assert not unc.in_transition

    def test_settling_ticks_are_counted(self):
        _, node, hub = _intel_stack(latency=LatencyModel(FIXED_20MS))
        hub.set_uncore_max_ghz(2.0)
        _tick(node, hub, 50)
        assert hub.backend.settling_ticks > 0

    def test_zero_latency_write_is_immediate(self):
        _, node, hub = _intel_stack()
        hub.set_uncore_max_ghz(2.0)
        unc = node.uncore(0)
        assert unc.pending_target_ghz is None
        assert unc.target_ghz == pytest.approx(2.0)
        assert hub.backend.latency_charged_s == 0.0

    def test_latency_charges_land_on_the_meter(self):
        _, node, hub = _intel_stack(latency=LatencyModel(FIXED_20MS))
        meter = AccessMeter()
        hub.set_uncore_max_ghz(2.0, meter)
        assert meter.counts["actuation_latency"] == 1
        assert meter.time_s >= 0.02
        assert hub.backend.latency_charged_s == pytest.approx(0.02)

    def test_one_latency_sample_per_bulk_call(self):
        # Dual-socket actuation is one node-level transition, not two.
        model = LatencyModel.preset("msr_fast", seed=5)
        _, node, hub = _intel_stack(latency=model)
        hub.set_uncore_max_ghz(1.8)
        assert model.samples == 1
        assert hub.backend.switch_count == 1


# ----------------------------------------------------------------------
# Fault transparency
# ----------------------------------------------------------------------
class TestFaultTransparency:
    def test_injected_write_error_intercepts_backend_routed_actuation(self):
        _, node, hub = _intel_stack(latency=LatencyModel(FIXED_20MS))
        hub.install_fault_injector(
            FaultInjector(FaultPlan([FaultSpec("actuation", "write_error", 0.0, 10.0, count=1)]))
        )
        _tick(node, hub)
        before = node.uncore(0).target_ghz
        meter = AccessMeter()
        with pytest.raises(MSRAccessError):
            hub.set_uncore_max_ghz(1.5, meter)
        # The failed transaction still costs, but no settling window
        # begins and no switch is accounted — the write never landed.
        assert meter.counts.get("msr_write") == 1
        assert "actuation_latency" not in meter.counts
        assert node.uncore(0).target_ghz == before
        assert node.uncore(0).pending_target_ghz is None
        assert hub.backend.switch_count == 0
        assert hub.backend.latency_charged_s == 0.0
        # Budget spent: the next actuation goes through and settles.
        hub.set_uncore_max_ghz(1.5, meter)
        assert hub.backend.switch_count == 1
        assert node.uncore(0).pending_target_ghz is not None

    def test_faulted_run_intercepts_backend_writes_end_to_end(self):
        plan = FaultPlan([FaultSpec("actuation", "write_error", 1.0, 30.0, count=3)])
        result = run_application(
            "intel_a100", "srad", make_governor("magus"), seed=1,
            max_time_s=15.0, fault_plan=plan,
        )
        kinds = {(i.device, i.fault) for i in result.incidents}
        assert ("actuation", "write_error") in kinds


# ----------------------------------------------------------------------
# Golden-trace bit-identity through a hand-built hub and engine
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["magus", "ups"])
def explicit_backend_pair(request):
    """(pinned arrays, run through a hand-built hub's zero-latency backend)."""
    from repro.runtime.daemon import MonitorDaemon
    from repro.sim.clock import SimClock
    from repro.sim.engine import SimulationEngine
    from repro.sim.observers import standard_observers
    from repro.workloads.registry import get_workload

    golden = np.load(
        os.path.join(
            os.path.dirname(__file__), "data", f"golden_trace_{request.param}.npz"
        )
    )
    preset = intel_a100()
    node = preset.build_node(RngStreams(gen_golden_trace.SEED))
    node.force_uncore_all(preset.uncore_min_ghz)
    hub = TelemetryHub(node, preset.telemetry, vendor=preset.vendor)
    daemon = MonitorDaemon(make_governor(request.param), hub, node)
    observers = standard_observers(node, hub, [daemon], extra=tuple(daemon.observers))
    engine = SimulationEngine(
        node, observers=observers, clock=SimClock(gen_golden_trace.DT_S)
    )
    workload = get_workload(gen_golden_trace.WORKLOAD, seed=gen_golden_trace.SEED)
    result = engine.run(workload, max_time_s=gen_golden_trace.MAX_TIME_S)
    return golden, hub, result


class TestZeroLatencyBitIdentity:
    def test_every_channel_bit_identical(self, explicit_backend_pair):
        golden, _hub, result = explicit_backend_pair
        mismatched = [
            channel
            for channel in gen_golden_trace.GOLDEN_CHANNELS
            if not np.array_equal(golden[channel], result.recorder.series(channel).values)
        ]
        assert mismatched == []

    def test_backend_actuated_but_charged_no_latency(self, explicit_backend_pair):
        _golden, hub, _result = explicit_backend_pair
        assert hub.backend.switch_count > 0  # the backend WAS in the path
        assert hub.backend.latency_charged_s == 0.0
        # settling_ticks counts slew-ramp ticks too (they exist with or
        # without latency) — only the latency *charges* must be zero.


# ----------------------------------------------------------------------
# Determinism across processes / replays
# ----------------------------------------------------------------------
def _latency_leg(governor, preset_name):
    result = run_application(
        "intel_a100", "srad", make_governor(governor), seed=1,
        max_time_s=10.0, actuation_latency=preset_name,
    )
    return (
        result.total_energy_j,
        result.runtime_s,
        result.actuation_switches,
        result.actuation_latency_s,
        result.actuation_settling_ticks,
    )


class TestLatencyDeterminism:
    def test_identical_across_worker_counts(self):
        kwargs = [
            {"governor": "magus", "preset_name": "gpu_dvfs"},
            {"governor": "ups", "preset_name": "gpu_dvfs"},
        ]
        serial = map_parallel(_latency_leg, kwargs, n_workers=1)
        parallel = map_parallel(_latency_leg, kwargs, n_workers=2)
        assert serial == parallel

    def test_replay_is_bit_identical(self):
        assert _latency_leg("magus", "msr_fast") == _latency_leg("magus", "msr_fast")

    def test_nonzero_preset_moves_energy_deterministically(self):
        ideal = run_application(
            "intel_a100", "srad", make_governor("magus"), seed=1, max_time_s=10.0
        )
        modeled = run_application(
            "intel_a100", "srad", make_governor("magus"), seed=1, max_time_s=10.0,
            actuation_latency="gpu_dvfs",
        )
        assert modeled.actuation_switches > 0
        assert modeled.actuation_latency_s > 0
        assert modeled.actuation_settling_ticks > 0
        assert modeled.total_energy_j != ideal.total_energy_j
        assert ideal.actuation_latency_s == 0.0


class TestNoReferenceCycle:
    @pytest.mark.parametrize("options", ["plain", "faulted", "guarded"])
    def test_a_dropped_run_is_freed_without_the_cyclic_collector(self, options):
        # The backend, the fault injector and the guard hold their hub
        # weakly, so a finished run's hub, node and everything the node
        # holds go when the last reference does.
        import gc
        import weakref

        from repro.faults.plan import standard_campaign
        from repro.runtime.session import build_run

        kwargs = {
            "plain": {},
            "faulted": {"fault_plan": standard_campaign(1, horizon_s=2.0), "supervise": True},
            "guarded": {"guard": True, "actuation_latency": "msr_fast"},
        }[options]
        gc.collect()
        gc.disable()
        try:
            run = build_run(
                "intel_a100", "unet", make_governor("magus"), seed=1, max_time_s=2.0, **kwargs
            )
            result = run.finish(run.engine.run(run.workload, max_time_s=run.max_time_s))
            node, hub = weakref.ref(run.hub.node), weakref.ref(run.hub)
            del run, result
            assert node() is None and hub() is None
        finally:
            gc.enable()
