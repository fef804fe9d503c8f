"""The stacked core step against the per-socket formulas it replaced.

:func:`repro.hw.cpu.step_cores` steps every socket of a node as one row of
an ``(n_sockets, n_cores)`` array, and derives the utilisation-driven rows
a :class:`~repro.hw.cpu.CoreBlock` of ticks at a time. :class:`ReferenceSocket`
below keeps the earlier one-socket-at-a-time model verbatim (a fresh draw
per tick, ``np.clip``, the mean over ``self._ipc[active]``,
``per_core.sum()``) as the oracle. Every comparison is on bytes, so a
``-0.0``/``+0.0`` flip, a regrouped sum or a row from the wrong tick fails.
"""

import numpy as np
import pytest

from repro.errors import HardwareError
from repro.hw.cpu import CoreBlock, CPUCoreModel, CPUPowerParams, step_cores
from repro.hw.node import HeterogeneousNode, _socket_mean
from repro.hw.presets import get_preset, intel_a100
from repro.sim.rng import RngStreams
from repro.telemetry.msr import MSRDevice
from repro.units import clamp
from repro.workloads.base import Segment

PRESETS = ("intel_a100", "intel_4a100", "intel_max1550", "amd_mi210")


class ReferenceSocket:
    """One socket stepped alone, with the per-socket formulas verbatim."""

    def __init__(self, cpu: CPUCoreModel, rng: np.random.Generator):
        self.n_cores = cpu.n_cores
        self.min_ghz = cpu.min_ghz
        self.max_ghz = cpu.max_ghz
        self.power_params = cpu.power_params
        self.peak_ipc = cpu.peak_ipc
        self._rng = rng
        ranks = np.arange(self.n_cores, dtype=float)
        weights = 1.0 / (1.0 + 0.35 * ranks)
        self._weights = weights * (self.n_cores / weights.sum())
        self._utils = np.zeros(self.n_cores)
        self._freqs = np.full(self.n_cores, self.min_ghz)
        self._ipc = np.zeros(self.n_cores)

    def step(self, socket_util, mem_stall_factor, uncore_ratio):
        jitter = self._rng.normal(1.0, 0.06, self.n_cores)
        self._utils = np.clip(socket_util * self._weights * jitter, 0.0, 1.0)
        span = self.max_ghz - self.min_ghz
        self._freqs = np.clip(
            self.min_ghz + span * np.minimum(self._utils * 1.3, 1.0),
            self.min_ghz,
            self.max_ghz,
        )
        latency_term = 0.88 + 0.12 * clamp(uncore_ratio, 0.0, 1.0)
        stall_term = clamp(mem_stall_factor, 0.05, 1.0)
        self._ipc = np.where(self._utils > 1e-3, self.peak_ipc * stall_term * latency_term, 0.0)

    def mean_ipc(self):
        active = self._utils > 1e-3
        if not active.any():
            return 0.0
        return float(self._ipc[active].mean())

    def power_w(self):
        p = self.power_params
        f_ratio_sq = (self._freqs / self.max_ghz) ** 2
        per_core = p.idle_core_w + p.peak_core_w * self._utils * (0.3 + 0.7 * f_ratio_sq)
        return float(p.static_w + per_core.sum())

    def mean_freq_ghz(self):
        return float(self._freqs.mean())


def _b(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _stack(preset_name: str, seed: int):
    """The preset's sockets, plus references on identical fresh streams."""
    node = get_preset(preset_name).build_node(RngStreams(seed))
    cpus = [cpu for cpu, _ in node.sockets]
    streams = RngStreams(seed)
    refs = [ReferenceSocket(cpu, streams.get(f"cpu.socket{s}")) for s, cpu in enumerate(cpus)]
    return cpus, refs


def _assert_socket_matches(cpu: CPUCoreModel, ref: ReferenceSocket):
    assert cpu.core_utils.tobytes() == ref._utils.tobytes()
    assert cpu.core_freqs_ghz.tobytes() == ref._freqs.tobytes()
    assert cpu.core_ipc.tobytes() == ref._ipc.tobytes()
    assert _b(cpu.mean_ipc()) == _b(ref.mean_ipc())
    assert _b(cpu.power_w()) == _b(ref.power_w())


class TestStepCoresMatchesPerSocketFormulas:
    @pytest.mark.parametrize("preset_name", PRESETS)
    @pytest.mark.parametrize("socket_util", [0.0, 0.0002, 0.002, 0.3, 1.0])
    def test_rows_and_reductions_bit_identical(self, preset_name, socket_util):
        cpus, refs = _stack(preset_name, seed=7)
        block = CoreBlock(cpus)
        for tick in range(25):
            stall, ratio = 1.0 - 0.03 * tick, 0.4 + 0.02 * tick
            out = step_cores(block, [socket_util], [stall], [ratio])
            for s, (cpu, ref) in enumerate(zip(cpus, refs)):
                ref.step(socket_util, stall, ratio)
                _assert_socket_matches(cpu, ref)
                assert out.utils[s].tobytes() == ref._utils.tobytes()
                assert _b(out.mean_ipc[s]) == _b(ref.mean_ipc())
                assert _b(out.power_w[s]) == _b(ref.power_w())
                assert _b(out.mean_freq_ghz[s]) == _b(ref.mean_freq_ghz())

    @pytest.mark.parametrize("preset_name", ["intel_a100", "intel_max1550", "amd_mi210"])
    def test_partial_idle_and_saturated_rows_are_all_exercised(self, preset_name):
        # Demand that puts the hottest core right at the activity threshold
        # leaves it active on about half the rows, so some ticks hold an
        # idle row next to a partially active one; 0.002 leaves the cold
        # tail idle on every row; full demand saturates the hot cores.
        cpus, refs = _stack(preset_name, seed=3)
        n = cpus[0].n_cores
        block = CoreBlock(cpus)
        seen = set()
        mixed_ticks = 0
        for socket_util in (1e-3 / refs[0]._weights[0], 0.002, 1.0):
            for _ in range(60):
                out = step_cores(block, [socket_util], [1.0], [1.0])
                kinds = []
                for cpu, ref in zip(cpus, refs):
                    ref.step(socket_util, 1.0, 1.0)
                    _assert_socket_matches(cpu, ref)
                    k = int((cpu.core_utils > 1e-3).sum())
                    kinds.append("idle" if k == 0 else "full" if k == n else "partial")
                    if (cpu.core_utils == 1.0).any():
                        kinds.append("saturated")
                seen.update(kinds)
                mixed_ticks += len(set(kinds) & {"idle", "partial"}) == 2
                assert len(out.mean_ipc) == len(cpus)
        assert {"idle", "partial", "full", "saturated"} <= seen
        assert mixed_ticks > 0

    def test_partial_rows_reduce_over_the_active_cores(self):
        cpus, refs = _stack("intel_a100", seed=3)
        out = step_cores(CoreBlock(cpus), [0.002], [0.77], [0.93])
        for s, ref in enumerate(refs):
            ref.step(0.002, 0.77, 0.93)
            active = ref._utils > 1e-3
            assert 0 < active.sum() < active.size
            assert _b(out.mean_ipc[s]) == _b(ref._ipc[active].mean())

    @pytest.mark.parametrize("n_cores", [32, 40, 64])
    @pytest.mark.parametrize("n_rows", [1, 2, 3, 4])
    def test_row_reduction_equals_one_dimensional_reduction(self, n_cores, n_rows):
        x = np.random.default_rng(n_cores * n_rows).normal(size=(n_rows, n_cores)) * 1e3
        rows = np.add.reduce(x, axis=1)
        for s in range(n_rows):
            assert _b(rows[s]) == _b(np.add.reduce(x[s]))
            assert _b(rows[s] / n_cores) == _b(x[s].mean())


    def test_clip_keeps_negative_zero_where_min_max_does_not(self):
        # Why the step keeps np.clip rather than a cheaper ufunc pair.
        x = np.array([-0.0, 0.5, 2.0])
        assert np.signbit(np.clip(x, 0.0, 1.0)[0])
        assert not np.signbit(np.minimum(np.maximum(x, 0.0), 1.0)[0])


class TestStackOfOne:
    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_lone_socket_matches_the_same_socket_inside_its_node(self, preset_name):
        preset = get_preset(preset_name)
        seed = 11
        node = preset.build_node(RngStreams(seed))
        node.force_uncore_all(preset.uncore_max_ghz)
        lone = CPUCoreModel(
            preset.cores_per_socket,
            min_ghz=preset.core_min_ghz,
            max_ghz=preset.core_max_ghz,
            power=preset.cpu_power,
            rng=RngStreams(seed).get("cpu.socket1"),
        )
        seg = Segment(1.0, 0.6 * preset.peak_bw_gbps, mem_intensity=0.7, cpu_util=0.35, gpu_util=0.6)
        n = preset.cores_per_socket
        for _ in range(20):
            state = node.step(0.01, seg)
            stall = 1.0 - node.cpu_mem_coupling * seg.mem_intensity * (1.0 - state.served_fraction)
            lone.step(seg.cpu_util, stall, state.uncore_effective_ghz / node.uncore_max_ghz)
            inside = node.cpu(1)
            assert lone.core_utils.tobytes() == inside.core_utils.tobytes()
            assert lone.core_freqs_ghz.tobytes() == inside.core_freqs_ghz.tobytes()
            assert lone.core_ipc.tobytes() == inside.core_ipc.tobytes()
            assert _b(lone.mean_ipc()) == _b(inside.mean_ipc())
            assert _b(lone.power_w()) == _b(inside.power_w())
            assert node.core_utils[n : 2 * n].tobytes() == lone.core_utils.tobytes()

    def test_observables_before_any_step_match_the_formulas(self):
        cpu = CPUCoreModel(40, rng=np.random.default_rng(0))
        ref = ReferenceSocket(cpu, np.random.default_rng(0))
        _assert_socket_matches(cpu, ref)


class TestNodeWideState:
    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_arrays_are_in_global_core_order_and_replaced_each_step(self, preset_name):
        node = get_preset(preset_name).build_node(RngStreams(2))
        seg = Segment(1.0, 10.0, mem_intensity=0.5, cpu_util=0.4, gpu_util=0.5)
        node.step(0.01, seg)
        before = node.core_freqs_ghz
        kept = before.copy()
        node.step(0.01, seg)
        assert node.core_freqs_ghz is not before
        assert before.tobytes() == kept.tobytes()
        for attr in ("core_utils", "core_freqs_ghz", "core_ipc"):
            whole = getattr(node, attr)
            assert whole.shape == (node.n_cores,)
            parts = np.concatenate([getattr(cpu, attr) for cpu, _ in node.sockets])
            assert whole.tobytes() == parts.tobytes()

    def test_socket_means_at_different_uncore_frequencies(self):
        preset = intel_a100()
        node = preset.build_node(RngStreams(5))
        node.force_uncore_all(preset.uncore_max_ghz)
        node.uncore(1).request_target(0.9)
        seg = Segment(1.0, 30.0, mem_intensity=0.8, cpu_util=0.45, gpu_util=0.6)
        distinct = 0
        for _ in range(40):
            state = node.step(0.01, seg)
            effective = [unc.effective_ghz for _, unc in node.sockets]
            targets = [unc.target_ghz for _, unc in node.sockets]
            distinct += effective[0] != effective[1]
            assert _b(state.uncore_effective_ghz) == _b(np.mean(effective))
            assert _b(state.uncore_target_ghz) == _b(np.mean(targets))
            assert _b(state.mean_ipc) == _b(np.mean([cpu.mean_ipc() for cpu, _ in node.sockets]))
            assert _b(state.mean_core_freq_ghz) == _b(
                np.mean([float(cpu.core_freqs_ghz.mean()) for cpu, _ in node.sockets])
            )
        assert distinct > 0

    @pytest.mark.parametrize("n", range(1, 12))
    def test_socket_mean_is_np_mean(self, n):
        rng = np.random.default_rng(n)
        cases = [
            list(rng.uniform(0.0, 3.0, n) * 10.0 ** rng.integers(-3, 16, n)),
            [-0.0] * n,
            [1e16] + [1.0] * (n - 1),
        ]
        for values in cases:
            values = [float(v) for v in values]
            assert _b(_socket_mean(values)) == _b(np.mean(values))


class TestMSRTick:
    @pytest.mark.parametrize("preset_name", ["intel_a100", "intel_max1550"])
    def test_node_wide_tick_matches_per_socket_modulo(self, preset_name):
        preset = get_preset(preset_name)
        node = preset.build_node(RngStreams(4))
        msr = MSRDevice(node, preset.telemetry)
        # Park the counters just below the 48-bit boundary so they wrap.
        msr.jump_counters((1 << 48) - 10**9)
        ins, cyc = msr.read_all_core_counters(None)
        seg = Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.7, gpu_util=0.5)
        wrapped = False
        for _ in range(30):
            node.step(0.01, seg)
            msr.on_tick(0.01)
            offset = 0
            for cpu, _ in node.sockets:
                freq_hz = cpu.core_freqs_ghz * 1e9
                active = np.maximum(cpu.core_utils, 0.02)
                d_cyc = (freq_hz * active * 0.01).astype(np.uint64)
                d_ins = (cpu.core_ipc * freq_hz * active * 0.01).astype(np.uint64)
                sl = slice(offset, offset + cpu.n_cores)
                cyc[sl] = (cyc[sl] + d_cyc) % (1 << 48)
                ins[sl] = (ins[sl] + d_ins) % (1 << 48)
                offset += cpu.n_cores
            wrapped |= bool((cyc < 10**9).any())
            read_ins, read_cyc = msr.read_all_core_counters(None)
            assert read_cyc.tobytes() == cyc.tobytes()
            assert read_ins.tobytes() == ins.tobytes()
        assert wrapped


class TestIdenticalParts:
    def _node(self, second: CPUCoreModel) -> HeterogeneousNode:
        preset = intel_a100()
        node = preset.build_node(RngStreams(0))
        (cpu0, unc0), (_, unc1) = node.sockets
        return HeterogeneousNode([(cpu0, unc0), (second, unc1)], node.memory, node.gpus)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n_cores": 32}, "core count"),
            ({"max_ghz": 3.0}, "core DVFS range"),
            ({"min_ghz": 1.0}, "core DVFS range"),
            ({"peak_ipc": 1.5}, "peak_ipc"),
            ({"power": CPUPowerParams(static_w=25.0)}, "CPUPowerParams"),
        ],
    )
    def test_mismatched_socket_rejected_naming_the_field(self, kwargs, field):
        preset = intel_a100()
        params = {
            "n_cores": preset.cores_per_socket,
            "min_ghz": preset.core_min_ghz,
            "max_ghz": preset.core_max_ghz,
            "power": preset.cpu_power,
        }
        params.update(kwargs)
        n_cores = params.pop("n_cores")
        with pytest.raises(HardwareError, match=field):
            self._node(CPUCoreModel(n_cores, **params))


# ----------------------------------------------------------------------
# Core blocks: jitter drawn and state derived a block of ticks at a time
# ----------------------------------------------------------------------
def _segment(util):
    """A phase demanding ``util`` of each socket (``None`` idles the node)."""
    if util is None:
        return None
    return Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=util, gpu_util=0.5)


class _Oracle:
    """A node's sockets as reference sockets on fresh streams of the node's
    seed, fed each tick the operating point the node stepped at."""

    def __init__(self, node: HeterogeneousNode, seed: int):
        streams = RngStreams(seed)
        self.refs = [
            ReferenceSocket(cpu, streams.get(f"cpu.socket{s}"))
            for s, (cpu, _) in enumerate(node.sockets)
        ]

    def check(self, node: HeterogeneousNode, segment, state) -> None:
        util = 0.0 if segment is None else segment.cpu_util
        intensity = 0.0 if segment is None else segment.mem_intensity
        stall = 1.0 - node.cpu_mem_coupling * intensity * (1.0 - state.served_fraction)
        ratio = state.uncore_effective_ghz / node.uncore_max_ghz
        for (cpu, _), ref in zip(node.sockets, self.refs):
            ref.step(util, stall, ratio)
            _assert_socket_matches(cpu, ref)
        for attr, field in (
            ("core_utils", "_utils"),
            ("core_freqs_ghz", "_freqs"),
            ("core_ipc", "_ipc"),
        ):
            whole = np.concatenate([getattr(ref, field) for ref in self.refs])
            assert getattr(node, attr).tobytes() == whole.tobytes()
        assert _b(state.mean_ipc) == _b(np.mean([ref.mean_ipc() for ref in self.refs]))
        mean_freq = np.mean([ref.mean_freq_ghz() for ref in self.refs])
        assert _b(state.mean_core_freq_ghz) == _b(mean_freq)


def _step_checked(nodes, oracles, twins, utils) -> None:
    """One tick of ``nodes`` (alone or as a batch), checked against the
    oracles and against twins stepped alone."""
    segments = [_segment(u) for u in utils]
    if len(nodes) == 1:
        states = [nodes[0].step(0.01, segments[0])]
    else:
        states = HeterogeneousNode.batch(nodes).step(0.01, segments)
    for node, oracle, twin, segment, state in zip(nodes, oracles, twins, segments, states):
        oracle.check(node, segment, state)
        assert twin.step(0.01, segment) == state
        assert twin.core_utils.tobytes() == node.core_utils.tobytes()


def _fleet(preset_name: str, seeds):
    preset = get_preset(preset_name)
    nodes = [preset.build_node(RngStreams(seed)) for seed in seeds]
    twins = [preset.build_node(RngStreams(seed)) for seed in seeds]
    oracles = [_Oracle(node, seed) for node, seed in zip(nodes, seeds)]
    return nodes, twins, oracles


class TestBlockDraws:
    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_a_block_draw_equals_successive_row_draws(self, preset_name):
        # CoreBlock relies on this: a (k, n) draw is k successive n-draws,
        # byte for byte, whatever block sizes a socket's rows are drawn in.
        preset = get_preset(preset_name)
        n = preset.cores_per_socket
        for s in range(preset.n_sockets):
            name = f"cpu.socket{s}"
            blocks, rows = RngStreams(5).get(name), RngStreams(5).get(name)
            drawn = np.concatenate([blocks.normal(1.0, 0.06, (k, n)) for k in (64, 1, 4, 3, 21)])
            one_by_one = np.stack([rows.normal(1.0, 0.06, n) for _ in range(len(drawn))])
            assert drawn.tobytes() == one_by_one.tobytes()

    @pytest.mark.parametrize("n_cores", [32, 40, 64])
    @pytest.mark.parametrize("shape", [(1, 2), (3, 6), (4, 32), (64, 2)])
    def test_block_reductions_equal_row_reductions(self, n_cores, shape):
        x = np.random.default_rng(n_cores).normal(size=shape + (n_cores,)) * 1e3
        for rows in (x, x[1:]):
            sums = np.add.reduce(rows, axis=-1)
            for index in np.ndindex(sums.shape):
                assert _b(sums[index]) == _b(np.add.reduce(rows[index]))

    def test_block_length_follows_the_socket_count(self):
        cpus = [CPUCoreModel(4, rng=np.random.default_rng(s)) for s in range(200)]
        ticks = [CoreBlock(cpus[:k]).ticks for k in (1, 2, 6, 32, 34, 128, 200)]
        assert ticks == [128, 64, 21, 4, 3, 1, 1]


class TestCoreBlocksMatchTheReference:
    def test_alone_then_in_a_batch_then_alone(self):
        nodes, twins, oracles = _fleet("intel_a100", (1, 2, 3))
        a = nodes[:1]
        utils = [0.3, 0.3, 0.7, 0.3, 0.002, None, 0.3]
        for tick in range(10):
            _step_checked(a, oracles[:1], twins[:1], [utils[tick % 7]])
        # A 3-node batch spans 21 ticks a block: three blocks and a bit.
        for tick in range(70):
            _step_checked(nodes, oracles, twins, [utils[(tick + k) % 7] for k in range(3)])
        # Alone again for more than one 64-tick block.
        for tick in range(140):
            _step_checked(a, oracles[:1], twins[:1], [utils[(tick // 9) % 7]])

    def test_batches_that_share_a_node_keep_its_stream_in_order(self):
        # Node a steps in a two-node batch, alone and in another batch in
        # turn; each block must notice a's stream moved on without it.
        nodes, twins, oracles = _fleet("intel_max1550", (4, 5, 6))
        pair, other = nodes[:2], [nodes[0], nodes[2]]
        for tick in range(120):
            phase = tick % 11
            if phase < 5:
                _step_checked(pair, oracles[:2], twins[:2], [0.4, 0.25])
            elif phase < 8:
                _step_checked(nodes[:1], oracles[:1], twins[:1], [0.4])
            else:
                _step_checked(other, [oracles[0], oracles[2]], [twins[0], twins[2]], [0.4, 0.9])

    @pytest.mark.parametrize("period", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 3])
    def test_utilisation_alternating_every_few_ticks(self, period, width):
        nodes, twins, oracles = _fleet("intel_a100", range(width))
        for tick in range(150):
            util = (0.35, 0.8)[(tick // period) % 2]
            _step_checked(nodes, oracles, twins, [util] * width)

    @pytest.mark.parametrize("width", [1, 3])
    def test_a_new_utilisation_every_tick(self, width):
        nodes, twins, oracles = _fleet("amd_mi210", range(7, 7 + width))
        for tick in range(150):
            utils = [0.05 + 0.005 * tick + 0.05 * k for k in range(width)]
            _step_checked(nodes, oracles, twins, utils)

    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_partially_idle_rows_and_idle_segments(self, preset_name):
        nodes, twins, oracles = _fleet(preset_name, (8, 9, 10))
        phases = [0.002] * 5 + [None] * 7 + [0.5] * 3 + [0.0] * 4 + [-0.0] * 4 + [0.002] * 9
        for tick in range(160):
            utils = [phases[(tick + 11 * k) % len(phases)] for k in range(3)]
            if tick < 80:
                _step_checked(nodes, oracles, twins, utils)
            else:
                _step_checked(nodes[1:2], oracles[1:2], twins[1:2], utils[1:2])

    def test_derived_rows_are_never_written(self):
        node = intel_a100().build_node(RngStreams(12))
        seg = _segment(0.4)
        kept = []
        for _ in range(130):
            node.step(0.01, seg)
            utils, freqs = node.core_utils, node.core_freqs_ghz
            kept.append((utils, utils.copy(), freqs, freqs.copy()))
        for utils, utils_copy, freqs, freqs_copy in kept:
            assert utils.tobytes() == utils_copy.tobytes()
            assert freqs.tobytes() == freqs_copy.tobytes()
