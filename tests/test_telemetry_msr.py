"""MSRDevice: 0x620 codec, actuation semantics, counters, access costs."""

import numpy as np
import pytest

from repro.errors import CounterOverflowError, FrequencyRangeError, MSRAccessError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.hw.presets import amd_mi210, intel_a100
from repro.runtime.session import build_run, make_governor
from repro.sim.rng import RngStreams
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.msr import (
    COUNTER_WIDTH_BITS,
    IA32_FIXED_CTR0,
    IA32_FIXED_CTR1,
    MSR_UNCORE_RATIO_LIMIT,
    MSRDevice,
    counter_delta,
    counter_delta_array,
    decode_uncore_ratio_limit,
    encode_uncore_ratio_limit,
)
from repro.telemetry.sampling import AccessMeter
from repro.workloads.base import Segment
from repro.workloads.registry import get_workload


class TestRatioLimitCodec:
    def test_paper_range_encoding(self):
        # max 2.2 GHz (ratio 22), min 0.8 GHz (ratio 8).
        value = encode_uncore_ratio_limit(22, 8)
        assert decode_uncore_ratio_limit(value) == (22, 8)

    def test_encode_is_min_shifted_or_max(self):
        assert encode_uncore_ratio_limit(22, 8) == (8 << 8) | 22

    def test_round_trip_exhaustive(self):
        for max_r in (8, 12, 15, 22, 25):
            for min_r in (8, 12):
                assert decode_uncore_ratio_limit(encode_uncore_ratio_limit(max_r, min_r)) == (max_r, min_r)

    def test_out_of_range_ratio_rejected(self):
        with pytest.raises(MSRAccessError):
            encode_uncore_ratio_limit(200, 8)

    def test_negative_value_rejected(self):
        with pytest.raises(MSRAccessError):
            decode_uncore_ratio_limit(-1)


_MOD = 1 << COUNTER_WIDTH_BITS


class TestCounterDelta:
    def test_simple_delta(self):
        assert counter_delta(100, 40) == 60

    def test_wraparound(self):
        assert counter_delta(5, _MOD - 10) == 15

    def test_zero(self):
        assert counter_delta(7, 7) == 0

    def test_boundary_values_accepted(self):
        # 2^48 - 1 is the last representable read; the full modulus is not.
        assert counter_delta(_MOD - 1, 0) == _MOD - 1
        assert counter_delta(0, _MOD - 1) == 1

    def test_exact_width_value_rejected(self):
        with pytest.raises(CounterOverflowError):
            counter_delta(_MOD, 0)
        with pytest.raises(CounterOverflowError):
            counter_delta(0, _MOD)

    def test_negative_read_rejected(self):
        with pytest.raises(CounterOverflowError):
            counter_delta(-1, 0)


class TestCounterDeltaArray:
    def test_matches_scalar_elementwise(self):
        later = np.array([100, 5, 0, _MOD - 1], dtype=np.uint64)
        earlier = np.array([40, _MOD - 10, _MOD - 1, 0], dtype=np.uint64)
        expected = [counter_delta(int(a), int(b)) for a, b in zip(later, earlier)]
        assert counter_delta_array(later, earlier).tolist() == expected

    def test_out_of_range_sweep_rejected(self):
        good = np.zeros(3, dtype=np.uint64)
        bad = np.array([0, _MOD, 0], dtype=np.uint64)
        with pytest.raises(CounterOverflowError):
            counter_delta_array(bad, good)
        with pytest.raises(CounterOverflowError):
            counter_delta_array(good, bad)

    def test_uniform_shift_preserves_deltas(self):
        # The wrap-injection invariant: shifting both sweeps by the same
        # offset modulo 2^48 leaves every delta untouched.
        rng = np.random.default_rng(0)
        earlier = rng.integers(0, _MOD, size=16, dtype=np.uint64)
        later = (earlier + rng.integers(0, 1 << 30, size=16, dtype=np.uint64)) % np.uint64(_MOD)
        shift = np.uint64(_MOD - 12345)
        shifted = counter_delta_array(
            (later + shift) % np.uint64(_MOD), (earlier + shift) % np.uint64(_MOD)
        )
        assert np.array_equal(shifted, counter_delta_array(later, earlier))


class TestActuationPath:
    def test_write_0x620_reprograms_uncore(self, a100_node, a100_hub):
        value = encode_uncore_ratio_limit(15, 8)
        a100_hub.msr.write(0, MSR_UNCORE_RATIO_LIMIT, value)
        assert a100_node.uncore(0).target_ghz == pytest.approx(1.5)

    def test_read_returns_shadow(self, a100_hub):
        value = encode_uncore_ratio_limit(12, 8)
        a100_hub.msr.write(1, MSR_UNCORE_RATIO_LIMIT, value)
        assert a100_hub.msr.read(1, MSR_UNCORE_RATIO_LIMIT) == value

    def test_set_uncore_max_preserves_min_bits(self, a100_hub):
        # §4: MAGUS modifies only the max-frequency bits.
        before = a100_hub.msr.read(0, MSR_UNCORE_RATIO_LIMIT)
        _max_r, min_before = decode_uncore_ratio_limit(before)
        a100_hub.msr.set_uncore_max_ghz(1.2)
        after = a100_hub.msr.read(0, MSR_UNCORE_RATIO_LIMIT)
        max_after, min_after = decode_uncore_ratio_limit(after)
        assert max_after == 12
        assert min_after == min_before

    def test_set_uncore_max_hits_all_sockets(self, a100_node, a100_hub):
        a100_hub.msr.set_uncore_max_ghz(1.0)
        for s in range(a100_node.n_sockets):
            assert a100_node.uncore(s).target_ghz == pytest.approx(1.0)

    def test_out_of_range_ratio_write_rejected(self, a100_hub):
        with pytest.raises(MSRAccessError):
            a100_hub.msr.write(0, MSR_UNCORE_RATIO_LIMIT, encode_uncore_ratio_limit(30, 8))

    def test_write_to_counter_rejected(self, a100_hub):
        with pytest.raises(MSRAccessError):
            a100_hub.msr.write(0, IA32_FIXED_CTR0, 0)

    def test_unknown_register_rejected(self, a100_hub):
        with pytest.raises(MSRAccessError):
            a100_hub.msr.read(0, 0xDEAD)

    def test_bad_socket_rejected(self, a100_hub):
        with pytest.raises(MSRAccessError):
            a100_hub.msr.write(5, MSR_UNCORE_RATIO_LIMIT, encode_uncore_ratio_limit(12, 8))


class TestFixedCounters:
    def _run_ticks(self, node, hub, n=10, util=0.5):
        seg = Segment(1.0, 5.0, mem_intensity=0.4, cpu_util=util, gpu_util=0.3)
        for _ in range(n):
            node.step(0.01, seg)
            hub.msr.on_tick(0.01)

    def test_counters_advance_under_load(self, a100_node, a100_hub):
        self._run_ticks(a100_node, a100_hub)
        instr, cycles = a100_hub.msr.read_all_core_counters()
        assert instr.sum() > 0
        assert cycles.sum() > 0

    def test_ipc_from_counters_is_plausible(self, a100_node, a100_hub):
        a100_node.force_uncore_all(2.2)
        self._run_ticks(a100_node, a100_hub, n=20)
        instr, cycles = a100_hub.msr.read_all_core_counters()
        ipc = instr.sum() / cycles.sum()
        assert 0.1 < ipc < 2.5  # peak per-core IPC is 2.0

    def test_per_core_read(self, a100_node, a100_hub):
        self._run_ticks(a100_node, a100_hub)
        v0 = a100_hub.msr.read(0, IA32_FIXED_CTR0, core=0)
        v1 = a100_hub.msr.read(0, IA32_FIXED_CTR1, core=0)
        assert v0 > 0 and v1 > 0

    def test_bad_core_rejected(self, a100_hub):
        with pytest.raises(MSRAccessError):
            a100_hub.msr.read(0, IA32_FIXED_CTR0, core=999)


class TestCounterWrapRuns:
    """A UPS run whose fixed counters wrap mid-run must be unaffected.

    The counters are shifted uniformly *before* the run starts, so every
    windowed delta is exact modulo 2^48 (the per-tick increments do not
    depend on the counter values) — the governor must make bit-identical
    decisions, proving its measurement path survives a 48-bit wrap.
    """

    def _ups_decisions(self, jump_offset=None):
        from repro.hw.presets import intel_a100
        from repro.runtime.daemon import MonitorDaemon
        from repro.runtime.session import make_governor
        from repro.sim.clock import SimClock
        from repro.sim.engine import SimulationEngine
        from repro.sim.observers import standard_observers
        from repro.sim.rng import RngStreams
        from repro.telemetry.hub import TelemetryHub
        from repro.workloads.registry import get_workload

        preset = intel_a100()
        node = preset.build_node(RngStreams(1))
        node.force_uncore_all(preset.uncore_min_ghz)
        hub = TelemetryHub(node, preset.telemetry, vendor=preset.vendor)
        if jump_offset is not None:
            hub.msr.jump_counters(jump_offset)
        daemon = MonitorDaemon(make_governor("ups"), hub, node)
        observers = standard_observers(node, hub, [daemon])
        engine = SimulationEngine(node, observers=observers, clock=SimClock(0.01))
        engine.run(get_workload("srad", seed=1), max_time_s=8.0)
        return hub, daemon.decisions

    def test_run_spans_wrap_without_corrupting_decisions(self):
        _hub, baseline = self._ups_decisions()
        # Park the counters so the busiest cores cross 2^48 ~2 s in.
        hub, wrapped = self._ups_decisions(jump_offset=(1 << 48) - 5_000_000_000)
        instr, _cycles = hub.msr.read_all_core_counters()
        assert int(instr.min()) < (1 << 47)  # the wrap actually happened
        assert len(baseline) > 3
        assert wrapped == baseline


class _EagerMSR(MSRDevice):
    """The device advancing its counters in every tick, as it did before
    ticks were queued: the oracle for the queued device."""

    def on_tick(self, dt_s):
        super().on_tick(dt_s)
        self.flush()


def _advance(cyc, ins, node, dt_s):
    """One tick of the fixed counters from the node's arrays, per core."""
    freq_hz = node.core_freqs_ghz * 1e9
    active = np.maximum(node.core_utils, 0.02)
    d_cyc = (freq_hz * active * dt_s).astype(np.uint64)
    d_ins = (node.core_ipc * freq_hz * active * dt_s).astype(np.uint64)
    return (cyc + d_cyc) % np.uint64(1 << 48), (ins + d_ins) % np.uint64(1 << 48)


class TestQueuedTicks:
    @pytest.mark.parametrize("read_every", [1, 7])
    def test_reads_see_every_tick_across_a_jump_and_a_width_change(self, read_every):
        preset = intel_a100()
        node = preset.build_node(RngStreams(3))
        msr = MSRDevice(node, preset.telemetry)
        cyc = np.zeros(node.n_cores, dtype=np.uint64)
        ins = np.zeros(node.n_cores, dtype=np.uint64)
        busy = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.7, gpu_util=0.5)
        light = Segment(1.0, 2.0, mem_intensity=0.2, cpu_util=0.002, gpu_util=0.5)
        for tick in range(90):
            dt = 0.01 if tick < 53 else 0.02
            node.step(dt, busy if (tick // 5) % 3 else light)
            msr.on_tick(dt)
            cyc, ins = _advance(cyc, ins, node, dt)
            if tick == 23:
                offset = (1 << 48) - 3 * 10**8
                msr.jump_counters(offset)
                cyc = (cyc + np.uint64(offset)) % np.uint64(1 << 48)
                ins = (ins + np.uint64(offset)) % np.uint64(1 << 48)
            if tick % read_every == 0:
                read_ins, read_cyc = msr.read_all_core_counters(None)
                assert read_cyc.tobytes() == cyc.tobytes()
                assert read_ins.tobytes() == ins.tobytes()
                core = tick % node.n_cores
                assert msr.read(0, IA32_FIXED_CTR0, core=core) == int(ins[core])
                assert msr.read(0, IA32_FIXED_CTR1, core=core) == int(cyc[core])
        assert bool((cyc < 3 * 10**8).any())  # the jump made some cores wrap
        msr.flush()
        assert msr._queue == []
        read_ins, read_cyc = msr.read_all_core_counters(None)
        assert read_cyc.tobytes() == cyc.tobytes()
        assert read_ins.tobytes() == ins.tobytes()

    def test_an_injected_wrap_logs_the_offset_of_a_per_tick_advance(self):
        preset = intel_a100()
        logs = []
        for device in (MSRDevice, _EagerMSR):
            node = preset.build_node(RngStreams(2))
            hub = TelemetryHub(node, preset.telemetry)
            hub.msr = device(node, preset.telemetry)
            # Tick 37 falls inside a fold's queue, not on a fold boundary.
            injector = FaultInjector(FaultPlan([FaultSpec("msr", "wrap", start_s=0.365)]))
            hub.install_fault_injector(injector)
            seg = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.6, gpu_util=0.5)
            for _ in range(60):
                node.step(0.01, seg)
                hub.on_tick(0.01)
            (wrap,) = injector.injections
            counters = [a.tobytes() for a in hub.msr.read_all_core_counters()]
            logs.append((wrap.time_s, wrap.detail, *counters))
        assert "shifted +" in logs[0][1]
        assert logs[0] == logs[1]

    def test_an_ended_run_holds_no_queued_ticks(self):
        workload = get_workload("srad", seed=1)
        run = build_run("intel_a100", workload, make_governor("magus"), seed=1, max_time_s=0.23)
        result = run.engine.run(run.workload, max_time_s=run.max_time_s)
        assert len(result.recorder) == 23  # all 23 ticks were queued at the end
        assert run.hub.msr._queue == []


class TestNaNTargets:
    def test_nan_ceiling_is_rejected_on_every_vendor_path(self):
        # min(hi, nan) is hi, so a clamp alone would pin the part maximum.
        for preset in (intel_a100(), amd_mi210()):
            node = preset.build_node(RngStreams(0))
            node.force_uncore_all(preset.uncore_min_ghz)
            hub = TelemetryHub(node, preset.telemetry, vendor=preset.vendor)
            with pytest.raises(FrequencyRangeError):
                hub.set_uncore_max_ghz(float("nan"))
            with pytest.raises(FrequencyRangeError):
                hub.msr.set_uncore_max_ghz(float("nan"))
            if hub.hsmp is not None:
                with pytest.raises(FrequencyRangeError):
                    hub.hsmp.set_fabric_clock_ghz(float("nan"))
            targets = [unc.target_ghz for _, unc in node.sockets]
            assert targets == [preset.uncore_min_ghz] * node.n_sockets
            assert hub.actuation_count == 0


class TestAccessCosts:
    def test_sweep_charges_two_reads_per_core(self, a100_node, a100_hub):
        meter = AccessMeter()
        a100_hub.msr.read_all_core_counters(meter)
        assert meter.counts["msr_read"] == 2 * a100_node.n_cores

    def test_sweep_time_matches_table2(self, a100_hub):
        # ~0.29 s on the 80-core Ice Lake node.
        meter = AccessMeter()
        a100_hub.msr.read_all_core_counters(meter)
        assert 0.25 <= meter.time_s <= 0.33

    def test_busy_cores_cost_more_energy(self, a100_node, a100_hub):
        seg_busy = Segment(1.0, 5.0, cpu_util=0.8)
        a100_node.step(0.01, seg_busy)
        busy = AccessMeter()
        a100_hub.msr.read_all_core_counters(busy)
        a100_node.step(0.01, None)  # idle
        idle = AccessMeter()
        a100_hub.msr.read_all_core_counters(idle)
        assert busy.energy_j > idle.energy_j

    def test_write_is_cheap(self, a100_hub):
        # §4: MSR writes incur negligible cost.
        meter = AccessMeter()
        a100_hub.msr.set_uncore_max_ghz(1.5, meter)
        assert meter.time_s < 1e-3
