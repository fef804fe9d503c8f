"""MonitorDaemon scheduling/accounting and run_application sessions."""

import pytest

from repro.errors import ExperimentError
from repro.governors.static import StaticUncoreGovernor
from repro.runtime.daemon import MonitorDaemon
from repro.runtime.overhead import measure_overhead
from repro.runtime.session import make_governor, run_application
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationEngine
from repro.sim.observers import standard_observers


class TestDaemonScheduling:
    def test_software_governor_waits_launch_delay(self, a100_node, a100_hub):
        gov = make_governor("magus")
        daemon = MonitorDaemon(gov, a100_hub, a100_node)
        daemon.start(0.0)
        assert daemon.next_fire_s() == pytest.approx(gov.launch_delay_s)

    def test_hardware_governor_active_immediately(self, a100_node, a100_hub):
        gov = make_governor("default")
        daemon = MonitorDaemon(gov, a100_hub, a100_node)
        daemon.start(0.0)
        # Initial state is established at start, not at first invocation.
        assert a100_node.uncore(0).target_ghz == pytest.approx(2.2)
        assert a100_node.uncore(0).effective_ghz == pytest.approx(2.2)

    def test_static_governor_never_fires(self, a100_node, a100_hub):
        daemon = MonitorDaemon(StaticUncoreGovernor.at_max(), a100_hub, a100_node)
        daemon.start(0.0)
        assert daemon.next_fire_s() == float("inf")

    def test_magus_cycle_cadence(self, a100_node, a100_hub):
        # §6.5: 0.1s invocation + 0.2s sleep = 0.3s between decisions.
        gov = make_governor("magus")
        daemon = MonitorDaemon(gov, a100_hub, a100_node)
        daemon.start(0.0)
        a100_node.step(0.01, None)
        a100_hub.on_tick(0.01)
        daemon.invoke(daemon.next_fire_s())
        second = daemon.next_fire_s()
        daemon.invoke(second)
        assert daemon.next_fire_s() - second == pytest.approx(0.3, abs=0.02)

    def test_monitor_power_set_after_invocation(self, a100_node, a100_hub):
        gov = make_governor("magus")
        daemon = MonitorDaemon(gov, a100_hub, a100_node)
        daemon.start(0.0)
        a100_node.step(0.01, None)
        a100_hub.on_tick(0.01)
        daemon.invoke(daemon.next_fire_s())
        # 0.25 J per PCM read over a 0.3 s cycle ≈ 0.83 W.
        assert a100_node.monitor_power_w == pytest.approx(0.25 / 0.3, rel=0.05)

    def test_idle_daemon_skips_initial_programming(self, a100_node, a100_hub):
        gov = make_governor("magus")
        daemon = MonitorDaemon(gov, a100_hub, a100_node, app_present=False)
        daemon.start(0.0)
        a100_node.step(0.01, None)
        a100_hub.on_tick(0.01)
        daemon.invoke(daemon.next_fire_s())
        # Node stays in its idle min-uncore state.
        assert a100_node.uncore(0).target_ghz == pytest.approx(0.8)

    def test_decisions_are_recorded(self, a100_node, a100_hub):
        gov = make_governor("magus")
        daemon = MonitorDaemon(gov, a100_hub, a100_node)
        observers = standard_observers(a100_node, a100_hub, [daemon])
        engine = SimulationEngine(a100_node, observers=observers, clock=SimClock(0.01))
        engine.run(None, max_time_s=3.0)
        assert len(daemon.decisions) >= 5
        assert daemon.mean_invocation_s == pytest.approx(0.1, abs=0.01)


class TestRunApplication:
    def test_accepts_registry_names(self):
        result = run_application("intel_a100", "bfs", make_governor("static_max"), seed=0)
        assert result.completed
        assert result.workload_name == "bfs"
        assert result.system_name == "intel_a100"

    def test_energy_domains_consistent(self, bfs_runs):
        r = bfs_runs["default"]
        assert r.cpu_energy_j == pytest.approx(r.pkg_energy_j + r.dram_energy_j)
        assert r.total_energy_j == pytest.approx(r.cpu_energy_j + r.gpu_energy_j)
        assert r.avg_cpu_w == pytest.approx(r.cpu_energy_j / r.runtime_s, rel=0.01)

    def test_same_seed_is_deterministic(self):
        a = run_application("intel_a100", "bfs", make_governor("magus"), seed=5)
        b = run_application("intel_a100", "bfs", make_governor("magus"), seed=5)
        assert a.runtime_s == b.runtime_s
        assert a.total_energy_j == pytest.approx(b.total_energy_j)

    def test_no_governor_runs_at_idle_uncore(self):
        result = run_application("intel_a100", "bfs", None, seed=0)
        assert result.governor_name == "<none>"
        assert result.traces["uncore_target_ghz"].max() == pytest.approx(0.8)

    def test_traces_exposed(self, bfs_runs):
        for channel in ("delivered_gbps", "uncore_target_ghz", "pkg_w", "progress"):
            assert channel in bfs_runs["magus"].traces

    def test_governor_instances_are_single_use(self):
        gov = make_governor("magus")
        run_application("intel_a100", "bfs", gov, seed=0)
        from repro.errors import GovernorError

        with pytest.raises(GovernorError):
            run_application("intel_a100", "bfs", gov, seed=0)


class TestOverheadMeasurement:
    def test_magus_overhead_near_paper(self):
        r = measure_overhead("intel_a100", make_governor("magus"), duration_s=60.0)
        # Table 2: ~1.1 % power, 0.1 s invocation.
        assert 0.002 <= r.power_overhead_frac <= 0.03
        assert r.mean_invocation_s == pytest.approx(0.1, abs=0.01)

    def test_ups_overhead_near_paper(self):
        r = measure_overhead("intel_a100", make_governor("ups"), duration_s=60.0)
        # Table 2: ~4.9 % power, ~0.3 s invocation.
        assert 0.03 <= r.power_overhead_frac <= 0.08
        assert 0.25 <= r.mean_invocation_s <= 0.33

    def test_ups_worse_on_max1550(self):
        a100 = measure_overhead("intel_a100", make_governor("ups"), duration_s=60.0)
        spr = measure_overhead("intel_max1550", make_governor("ups"), duration_s=60.0)
        assert spr.power_overhead_frac > a100.power_overhead_frac
        assert spr.mean_invocation_s > a100.mean_invocation_s

    def test_hardware_policy_rejected(self):
        with pytest.raises(ExperimentError):
            measure_overhead("intel_a100", make_governor("default"), duration_s=10.0)

    def test_str_rendering(self):
        r = measure_overhead("intel_a100", make_governor("magus"), duration_s=30.0)
        text = str(r)
        assert "magus" in text and "%" in text
