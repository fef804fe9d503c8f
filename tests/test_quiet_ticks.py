"""Quiet ticks: a node tick reuses its physics while its inputs repeat.

``NodeBatch.step`` keeps each node's last recomputed scalar physics (memory
service, stall factor, uncore ratio, uncore, DRAM and GPU power) and reuses
it while the segment object and every socket's effective and target uncore
frequency repeat. ``step_cores`` derives IPC rows a block at a time per
utilisation vector and IPC levels. These tests pin what the key must hold
(the segment by identity, every socket's frequencies, the IPC levels) and
what must stay per tick (``monitor_w``), and that a settled run mostly hits.
"""

import numpy as np
import pytest

from repro.hw.cpu import CoreBlock, step_cores
from repro.hw.memory import MemorySubsystem
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import intel_a100
from repro.runtime.session import make_governor, run_application
from repro.sim.rng import RngStreams
from repro.units import clamp
from repro.workloads.base import Segment


def _b(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _counting(monkeypatch, cls, name):
    """Wrap ``cls.name`` so each call is counted; returns the counter."""
    calls = [0]
    inner = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)
    return calls


class TestTheKey:
    def test_segments_match_by_identity_so_negative_zero_keeps_its_sign(self):
        node = intel_a100().build_node(RngStreams(1))
        plus = Segment(1.0, 0.0, mem_intensity=0.5, cpu_util=0.3, gpu_util=0.6)
        minus = Segment(1.0, -0.0, mem_intensity=0.5, cpu_util=0.3, gpu_util=0.6)
        assert plus == minus  # dataclass equality cannot tell them apart
        demands = [node.step(0.01, plus).demand_gbps for _ in range(50)]
        demands += [node.step(0.01, minus).demand_gbps for _ in range(50)]
        signs = np.signbit(demands)
        assert not signs[:50].any()
        assert signs[50:].all()

    def test_every_socket_frequency_is_in_the_key(self):
        node = intel_a100().build_node(RngStreams(2))
        assert node.n_sockets == 2
        seg = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.3, gpu_util=0.5)
        first = node.step(0.01, seg)
        node.uncore(1).force(node.uncore_min_ghz)
        second = node.step(0.01, seg)
        traffic = min(1.0, second.delivered_gbps / node.memory.peak_bw_gbps)
        expected = 0.0
        for _, unc in node.sockets:
            p = unc.power_params
            r = unc.effective_ghz / unc.max_ghz
            activity = p.activity_floor + (1.0 - p.activity_floor) * traffic
            expected += p.static_w + p.span_w * (r**p.exponent) * activity
        assert _b(second.power.uncore_w) == _b(expected)
        assert second.power.uncore_w != first.power.uncore_w

    def test_monitor_power_stays_per_tick(self):
        node = intel_a100().build_node(RngStreams(3))
        seg = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.3, gpu_util=0.5)
        node.step(0.01, seg)
        node.monitor_power_w = 2.5
        assert node.step(0.01, seg).power.monitor_w == 2.5
        node.monitor_power_w = 0.0
        assert node.step(0.01, seg).power.monitor_w == 0.0


class TestHits:
    def test_a_settled_run_rarely_calls_the_memory_model(self, monkeypatch):
        services = _counting(monkeypatch, MemorySubsystem, "service")
        result = run_application("intel_a100", "unet", make_governor("magus"), seed=1)
        # A step can span many ticks: count the run's ticks, one trace row each.
        ticks = len(result.traces["demand_gbps"])
        assert ticks > 4000
        assert services[0] <= 0.05 * ticks

    def test_the_memo_outlives_the_batch(self, monkeypatch):
        a, b = (intel_a100().build_node(RngStreams(seed)) for seed in (4, 5))
        seg = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.3, gpu_util=0.5)
        a.step(0.01, seg)
        services = _counting(monkeypatch, MemorySubsystem, "service")
        HeterogeneousNode.batch([a, b]).step(0.01, [seg, seg])
        # Only b, stepped for the first time, derives its physics.
        assert services[0] == 1


class TestIPCRows:
    @pytest.mark.parametrize("util", [0.3, 0.002])
    @pytest.mark.parametrize("period", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 3])
    def test_levels_alternating_under_one_utilisation(self, util, period, width):
        # One utilisation vector for 150 ticks, so every core row comes from
        # the block; only the IPC levels alternate.
        nodes = [intel_a100().build_node(RngStreams(seed)) for seed in range(width)]
        cpus = [cpu for node in nodes for cpu, _ in node.sockets]
        per_node = len(cpus) // width
        block = CoreBlock(cpus)
        kept = []
        for tick in range(150):
            phase = (tick // period) % 2
            stalls = [(0.6, 0.9)[phase] + 0.01 * k for k in range(width)]
            ratios = [(0.5, 1.0)[phase]] * width
            out = step_cores(block, [util] * width, stalls, ratios)
            for s, cpu in enumerate(cpus):
                k = s // per_node
                level = cpu.peak_ipc * clamp(stalls[k], 0.05, 1.0) * (
                    0.88 + 0.12 * clamp(ratios[k], 0.0, 1.0)
                )
                active = out.utils[s] > 1e-3
                expected = np.where(active, level, 0.0)
                assert out.ipc[s].tobytes() == expected.tobytes()
                assert cpu.core_ipc.tobytes() == expected.tobytes()
                mean = float(expected[active].mean()) if active.any() else 0.0
                assert _b(out.mean_ipc[s]) == _b(mean)
            kept.append((out.ipc, out.ipc.copy()))
        # Block rows are shared between ticks and never written.
        for ipc, copy in kept:
            assert ipc.tobytes() == copy.tobytes()
