"""PCM, RAPL and NVML devices plus the AccessMeter."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.rapl import RAPL_DRAM, RAPL_PKG, rapl_energy_delta_j
from repro.telemetry.sampling import AccessMeter
from repro.units import JOULES_PER_RAPL_UNIT
from repro.workloads.base import Segment


def drive(node, hub, seconds=1.0, demand=10.0, gpu=0.5):
    seg = Segment(max(seconds, 10.0), demand, mem_intensity=0.5, cpu_util=0.2, gpu_util=gpu)
    ticks = int(round(seconds / 0.01))
    for _ in range(ticks):
        node.step(0.01, seg)
        hub.on_tick(0.01)


class TestPCM:
    def test_throughput_read_matches_delivered(self, a100_node, a100_hub):
        a100_node.force_uncore_all(2.2)
        drive(a100_node, a100_hub, seconds=0.5, demand=10.0)
        mbps = a100_hub.pcm.read_throughput_mbps()
        assert mbps == pytest.approx(10_000.0, rel=0.02)

    def test_windowed_read_sees_recent_traffic_only(self, a100_node, a100_hub):
        a100_node.force_uncore_all(2.2)
        drive(a100_node, a100_hub, seconds=1.0, demand=2.0)
        drive(a100_node, a100_hub, seconds=0.2, demand=20.0)
        # Default window is the 0.1 s aggregation, so only the new phase shows.
        mbps = a100_hub.pcm.read_throughput_mbps()
        assert mbps == pytest.approx(20_000.0, rel=0.05)

    def test_wider_window_averages(self, a100_node, a100_hub):
        a100_node.force_uncore_all(2.2)
        drive(a100_node, a100_hub, seconds=0.5, demand=0.0)
        drive(a100_node, a100_hub, seconds=0.5, demand=20.0)
        wide = a100_hub.pcm.read_throughput_mbps(window_s=1.0)
        assert wide == pytest.approx(10_000.0, rel=0.1)

    def test_window_longer_than_retained_history_rejected(self, a100_node, a100_hub):
        # 3 s at 5 GB/s, then 2 s demanding 60 GB/s: only the last 2 s of
        # snapshots are kept, so a 4 s or 5 s window would silently average
        # just those 2 s (the cumulative counter says 17,000 MB/s over 5 s).
        a100_node.force_uncore_all(2.2)
        drive(a100_node, a100_hub, seconds=3.0, demand=5.0)
        drive(a100_node, a100_hub, seconds=2.0, demand=60.0)
        last_2s = a100_hub.pcm.read_throughput_mbps(window_s=2.0)
        whole = a100_hub.pcm.bytes_total / 5.0 / 1e6
        assert whole < 0.6 * last_2s
        for window in (2.0 + 1e-9, 4.0, 5.0):
            with pytest.raises(TelemetryError, match="retained history"):
                a100_hub.pcm.read_throughput_mbps(window_s=window)

    def test_read_charges_meter(self, a100_hub, a100_preset):
        meter = AccessMeter()
        a100_hub.pcm.read_throughput_mbps(meter)
        assert meter.counts["pcm_read"] == 1
        assert meter.time_s == pytest.approx(a100_preset.telemetry.pcm_read_time_s)

    def test_cost_independent_of_core_count(self, a100_hub, a100_preset):
        # The structural contrast with the UPS sweep.
        meter = AccessMeter()
        a100_hub.pcm.read_throughput_mbps(meter)
        sweep_time = 2 * 80 * a100_preset.telemetry.msr_read_time_s
        assert meter.time_s < sweep_time / 2

    def test_bytes_accumulate(self, a100_node, a100_hub):
        a100_node.force_uncore_all(2.2)
        drive(a100_node, a100_hub, seconds=1.0, demand=10.0)
        assert a100_hub.pcm.bytes_total == pytest.approx(10e9, rel=0.02)

    def test_invalid_window_rejected(self, a100_hub):
        with pytest.raises(TelemetryError):
            a100_hub.pcm.read_throughput_mbps(window_s=0.0)

    def test_invalid_dt_rejected(self, a100_hub):
        with pytest.raises(TelemetryError):
            a100_hub.pcm.on_tick(0.0)


class TestPCMDegenerateWindows:
    """Edge-case semantics of the windowed read, pinned for the fault code.

    The fault proxies and the supervisor lean on these behaviours (a frozen
    counter yields a stale-but-finite reading; a first-tick read does not
    divide by zero), so they are contracts, not accidents.
    """

    def test_read_before_any_tick_returns_zero(self, a100_hub):
        # Only the (0, 0) genesis snapshot exists: no elapsed time, no crash.
        assert a100_hub.pcm.read_throughput_mbps() == 0.0

    def test_first_tick_read_uses_single_sample(self, a100_node, a100_hub):
        a100_node.force_uncore_all(2.2)
        drive(a100_node, a100_hub, seconds=0.01, demand=10.0)
        # One 10 ms sample against a 100 ms requested window: the walk-back
        # clamps to the genesis snapshot and averages what actually exists.
        mbps = a100_hub.pcm.read_throughput_mbps()
        assert 0.0 < mbps <= 10_000.0 * 1.05

    def test_window_longer_than_history_clamps(self, a100_node, a100_hub):
        a100_node.force_uncore_all(2.2)
        drive(a100_node, a100_hub, seconds=0.5, demand=10.0)
        # 1.5 s window > 0.5 s of history (but within the 2 s retention
        # span): the read degrades to the oldest retained snapshot, i.e. the
        # whole-history average, rather than raising or extrapolating.
        clamped = a100_hub.pcm.read_throughput_mbps(window_s=1.5)
        full = a100_hub.pcm.read_throughput_mbps(window_s=0.5)
        assert clamped == pytest.approx(full, rel=1e-9)
        assert clamped == pytest.approx(10_000.0, rel=0.05)

    def test_zero_elapsed_window_returns_zero(self, a100_node, a100_hub):
        # Degenerate history where every retained snapshot shares one
        # timestamp (a stalled clock source): zero elapsed must read as
        # zero throughput, not divide by zero.
        pcm = a100_hub.pcm
        drive(a100_node, a100_hub, seconds=0.05, demand=10.0)
        snapshot = (pcm._time_s, pcm.bytes_total)
        pcm._history.clear()
        pcm._history.append(snapshot)
        pcm._history.append(snapshot)
        assert pcm.read_throughput_mbps(window_s=1.0) == 0.0


class TestRAPL:
    def test_energy_integrates_power(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=1.0)
        pkg_j = a100_hub.rapl.energy_j(RAPL_PKG)
        avg_pkg_w = a100_node.last_state.power.package_w
        assert pkg_j == pytest.approx(avg_pkg_w * 1.0, rel=0.2)

    def test_domains_are_separate(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=0.5)
        assert a100_hub.rapl.energy_j(RAPL_PKG) > a100_hub.rapl.energy_j(RAPL_DRAM)

    def test_register_view_units(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=0.2)
        joules = a100_hub.rapl.energy_j(RAPL_PKG)
        reg = a100_hub.rapl.read_register(RAPL_PKG)
        assert reg * JOULES_PER_RAPL_UNIT == pytest.approx(joules, rel=1e-6, abs=2 * JOULES_PER_RAPL_UNIT)

    def test_register_delta_handles_wrap(self):
        reg_max = 1 << 32
        later, earlier = 100, reg_max - 50
        assert rapl_energy_delta_j(later, earlier) == pytest.approx(150 * JOULES_PER_RAPL_UNIT)

    def test_power_view(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=0.1)
        assert a100_hub.rapl.power_w(RAPL_PKG) == pytest.approx(a100_node.last_state.power.package_w)

    def test_unknown_domain_rejected(self, a100_hub):
        with pytest.raises(TelemetryError):
            a100_hub.rapl.energy_j("psys")

    def test_read_charges_meter(self, a100_hub):
        meter = AccessMeter()
        a100_hub.rapl.energy_j(RAPL_PKG, meter)
        assert meter.counts["rapl_read"] == 1


class TestNVML:
    def test_device_count(self, a100_hub):
        assert a100_hub.nvml.device_count == 1

    def test_power_query(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=0.1, gpu=1.0)
        assert a100_hub.nvml.power_w(0) > 300.0

    def test_total_power_matches_sum(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=0.1, gpu=0.5)
        assert a100_hub.nvml.power_w() == pytest.approx(sum(a100_hub.nvml.per_gpu_power_w()))

    def test_energy_accumulates(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=1.0, gpu=0.5)
        assert a100_hub.nvml.energy_j() > 0.0

    def test_sm_clock_query(self, a100_node, a100_hub):
        drive(a100_node, a100_hub, seconds=0.1, gpu=1.0)
        assert a100_hub.nvml.sm_clock_ghz(0) == pytest.approx(1.41, rel=0.01)

    def test_bad_index_rejected(self, a100_hub):
        with pytest.raises(TelemetryError):
            a100_hub.nvml.power_w(7)


class TestAccessMeter:
    def test_charge_accumulates(self):
        meter = AccessMeter()
        meter.charge("x", 0.1, 1.0, n=3)
        assert meter.time_s == pytest.approx(0.3)
        assert meter.energy_j == pytest.approx(3.0)
        assert meter.counts == {"x": 3}

    def test_merge(self):
        a, b = AccessMeter(), AccessMeter()
        a.charge("x", 0.1, 1.0)
        b.charge("x", 0.2, 2.0)
        b.charge("y", 0.0, 0.5)
        a.merge(b)
        assert a.time_s == pytest.approx(0.3)
        assert a.counts == {"x": 2, "y": 1}

    def test_reset_returns_snapshot(self):
        meter = AccessMeter()
        meter.charge("x", 0.1, 1.0)
        snap = meter.reset()
        assert snap.time_s == pytest.approx(0.1)
        assert meter.time_s == 0.0
        assert meter.total_accesses == 0

    def test_negative_charge_rejected(self):
        with pytest.raises(TelemetryError):
            AccessMeter().charge("x", -0.1, 0.0)
