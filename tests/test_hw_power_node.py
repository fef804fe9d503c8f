"""PowerBreakdown domain arithmetic and HeterogeneousNode behaviour."""

import pytest

from repro.errors import HardwareError, PowerModelError
from repro.hw.power import PowerBreakdown
from repro.workloads.base import Segment


class TestPowerBreakdown:
    def test_package_is_core_plus_uncore_plus_monitor(self):
        p = PowerBreakdown(core_w=50.0, uncore_w=40.0, dram_w=10.0, gpu_w=100.0, monitor_w=2.0)
        assert p.package_w == pytest.approx(92.0)

    def test_cpu_domain_includes_dram(self):
        # §5: "power saving" is defined over package + DRAM.
        p = PowerBreakdown(core_w=50.0, uncore_w=40.0, dram_w=10.0, gpu_w=100.0)
        assert p.cpu_w == pytest.approx(100.0)

    def test_total_includes_gpu(self):
        # §5: "energy saving" adds the GPU board.
        p = PowerBreakdown(core_w=50.0, uncore_w=40.0, dram_w=10.0, gpu_w=100.0)
        assert p.total_w == pytest.approx(200.0)

    def test_addition(self):
        a = PowerBreakdown(1.0, 2.0, 3.0, 4.0, 0.5)
        b = PowerBreakdown(10.0, 20.0, 30.0, 40.0, 1.5)
        c = a + b
        assert c.core_w == 11.0
        assert c.monitor_w == 2.0

    def test_negative_domain_rejected(self):
        with pytest.raises(PowerModelError):
            PowerBreakdown(core_w=-1.0, uncore_w=0.0, dram_w=0.0, gpu_w=0.0)


class TestNodeStructure:
    def test_core_count(self, a100_node):
        assert a100_node.n_cores == 80
        assert a100_node.n_sockets == 2

    def test_uncore_bounds(self, a100_node):
        assert a100_node.uncore_min_ghz == pytest.approx(0.8)
        assert a100_node.uncore_max_ghz == pytest.approx(2.2)

    def test_bad_socket_index(self, a100_node):
        with pytest.raises(HardwareError):
            a100_node.uncore(9)
        with pytest.raises(HardwareError):
            a100_node.cpu(-1)

    def test_set_uncore_target_all(self, a100_node):
        snapped = a100_node.set_uncore_target_all(1.53)
        assert snapped == pytest.approx(1.5)
        for s in range(2):
            assert a100_node.uncore(s).target_ghz == pytest.approx(1.5)


class TestNodeStep:
    def test_idle_step(self, a100_node):
        state = a100_node.step(0.01, None)
        assert state.demand_gbps == 0.0
        assert state.delivered_gbps == 0.0
        assert state.stretch == 1.0
        assert state.power.total_w > 0.0

    def test_workload_step_serves_demand(self, a100_node):
        a100_node.force_uncore_all(2.2)
        seg = Segment(1.0, 10.0, mem_intensity=0.7, cpu_util=0.3, gpu_util=0.6)
        state = a100_node.step(0.01, seg)
        assert state.delivered_gbps == pytest.approx(10.0)
        assert state.served_fraction == pytest.approx(1.0)

    def test_min_uncore_clips_demand(self, a100_node):
        a100_node.force_uncore_all(0.8)
        seg = Segment(1.0, 30.0, mem_intensity=0.8, cpu_util=0.3, gpu_util=0.6)
        state = a100_node.step(0.01, seg)
        assert state.delivered_gbps < 30.0
        assert state.stretch > 1.0

    def test_monitor_power_charged_to_package(self, a100_node):
        seg = Segment(1.0, 5.0, cpu_util=0.2)
        baseline = a100_node.step(0.01, seg).power.package_w
        a100_node.monitor_power_w = 5.0
        with_monitor = a100_node.step(0.01, seg).power.package_w
        assert with_monitor == pytest.approx(baseline + 5.0, rel=0.05)

    def test_weak_ipc_coupling_for_gpu_phases(self, a100_node):
        # Unmet DMA demand depresses IPC far less than the performance
        # stretch it causes -- the asymmetry UPS trips over (§2).
        a100_node.force_uncore_all(0.8)
        seg = Segment(1.0, 30.0, mem_intensity=0.9, cpu_util=0.3, gpu_util=0.6)
        state = a100_node.step(0.01, seg)
        ipc_drop = 1.0 - state.mean_ipc / 2.0  # peak_ipc = 2.0
        perf_drop = 1.0 - 1.0 / state.stretch
        assert ipc_drop < perf_drop

    def test_time_accumulates(self, a100_node):
        a100_node.step(0.01, None)
        state = a100_node.step(0.01, None)
        assert state.time_s == pytest.approx(0.02)

    def test_invalid_dt_rejected(self, a100_node):
        with pytest.raises(HardwareError):
            a100_node.step(0.0, None)

    @pytest.mark.parametrize("bad_dt", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_dt_rejected(self, a100_node, bad_dt):
        with pytest.raises(HardwareError, match="finite"):
            a100_node.step(bad_dt, None)
        assert a100_node.last_state is None

    def test_last_state_tracks(self, a100_node):
        assert a100_node.last_state is None
        state = a100_node.step(0.01, None)
        assert a100_node.last_state is state

    def test_gpu_dominant_power_far_below_tdp(self, a100_node):
        # The paper's core observation: GPU workloads leave package power
        # far from TDP, so the default governor never downscales.
        a100_node.force_uncore_all(2.2)
        seg = Segment(1.0, 20.0, mem_intensity=0.7, cpu_util=0.25, gpu_util=0.95)
        state = a100_node.step(0.01, seg)
        tdp_total = a100_node.tdp_w_per_socket * a100_node.n_sockets
        assert state.power.package_w < 0.6 * tdp_total
