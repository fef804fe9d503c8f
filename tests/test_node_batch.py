"""NodeBatch and lockstep: every run in a batch is its single run, byte for byte.

A batch steps its nodes' cores as one ``(Σ sockets, n_cores)`` stack and
runs each node's scalar physics in turn; :func:`repro.sim.engine.lockstep`
advances several runs one tick at a time around it. These tests run
batches of 1, 2 and 17 runs on every preset, with idle runs, runs that
complete their workload early and runs that stop at different horizons,
and compare each run with the same run made alone by ``run_application``:
every trace channel, the decisions, the metrics export, the TSDB state and
the spans.
"""

import gc
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.errors import HardwareError, SimulationError
from repro.hw.cpu import CPUCoreModel
from repro.hw.node import HeterogeneousNode, NodeBatch
from repro.hw.presets import get_preset
from repro.obs.config import ObsConfig
from repro.obs.exporters import render_prometheus
from repro.obs.tsdb import canonical_state_bytes
from repro.runtime.session import RunResult, build_run, make_governor, run_application
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationEngine, lockstep
from repro.sim.observers import standard_observers
from repro.sim.rng import RngStreams
from repro.workloads.base import Segment, Workload
from repro.workloads.registry import get_workload

PRESETS = ("intel_a100", "intel_4a100", "intel_max1550", "amd_mi210")
WIDTHS = (1, 2, 17)
OBS = ObsConfig(enabled=True, metrics=True, spans=True, tsdb=True)
#: (governor name, make_governor options), cycled over a batch's runs.
GOVERNORS: Tuple[Tuple[str, Dict[str, float]], ...] = (
    ("magus", {}),
    ("ups", {}),
    ("default", {}),
    ("powercap", {"cap_w": 150.0}),
)


def _spec(k: int) -> Dict[str, object]:
    """Run ``k`` of a batch: its own seed, governor, workload and horizon.

    Every fifth run is idle; every third completes a shortened workload
    before its horizon; the rest stop at horizons 70 ms apart.
    """
    governor, options = GOVERNORS[k % len(GOVERNORS)]
    workload: Optional[Workload]
    if k % 5 == 4:
        workload = None
    elif k % 3 == 0:
        workload = get_workload("srad", seed=k).scaled(0.02)
    else:
        workload = get_workload(("unet", "srad", "bfs")[k % 3], seed=k)
    return {
        "workload": workload,
        "governor": (governor, options),
        "seed": 1 + k,
        "max_time_s": 0.35 + 0.07 * k,
    }


def _kwargs(spec: Dict[str, object]) -> Dict[str, object]:
    return {"seed": spec["seed"], "max_time_s": spec["max_time_s"], "obs": OBS}


def _governor(spec: Dict[str, object]):
    name, options = spec["governor"]
    return make_governor(name, **options)


def _alone(preset: str, k: int) -> RunResult:
    spec = _spec(k)
    return run_application(preset, spec["workload"], _governor(spec), **_kwargs(spec))


def _batched(preset: str, width: int) -> List[RunResult]:
    runs = []
    for k in range(width):
        spec = _spec(k)
        run = build_run(preset, spec["workload"], _governor(spec), **_kwargs(spec))
        run.engine.start(run.workload, max_time_s=run.max_time_s)
        runs.append(run)
    results: Dict[int, RunResult] = {}
    for index, result in lockstep([run.engine for run in runs]):
        assert index not in results
        results[index] = runs[index].finish(result)
    return [results[k] for k in range(width)]


def _assert_same_run(batched: RunResult, alone: RunResult) -> None:
    assert sorted(batched.traces) == sorted(alone.traces)
    for name, series in alone.traces.items():
        other = batched.traces[name]
        assert other.times.tobytes() == series.times.tobytes(), name
        assert other.values.tobytes() == series.values.tobytes(), name
    assert [(d.time_s, d.target_ghz, d.reason) for d in batched.decisions] == [
        (d.time_s, d.target_ghz, d.reason) for d in alone.decisions
    ]
    assert np.float64(batched.runtime_s).tobytes() == np.float64(alone.runtime_s).tobytes()
    assert batched.completed == alone.completed
    assert render_prometheus(batched.metrics) == render_prometheus(alone.metrics)
    assert canonical_state_bytes(batched.tsdb) == canonical_state_bytes(alone.tsdb)
    assert [(s.name, s.start_s, s.end_s, s.ok) for s in batched.spans] == [
        (s.name, s.start_s, s.end_s, s.ok) for s in alone.spans
    ]


@pytest.fixture(scope="module")
def alone_runs() -> Dict[Tuple[str, int], RunResult]:
    return {(p, k): _alone(p, k) for p in PRESETS for k in range(max(WIDTHS))}


class TestBatchedRunsMatchSingleRuns:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_run_is_its_single_run(self, preset, width, alone_runs):
        batched = _batched(preset, width)
        for k, run in enumerate(batched):
            _assert_same_run(run, alone_runs[(preset, k)])

    def test_the_batch_mixes_idle_early_and_horizon_ends(self, alone_runs):
        runs = [alone_runs[("intel_a100", k)] for k in range(max(WIDTHS))]
        assert any(r.workload_name == "<idle>" for r in runs)
        assert any(r.completed and r.workload_name != "<idle>" for r in runs)
        assert any(not r.completed for r in runs)
        assert len({len(r.traces["pkg_w"]) for r in runs}) > 10


class TestNodeBatch:
    def _nodes(self, preset_name: str, n: int) -> List[HeterogeneousNode]:
        preset = get_preset(preset_name)
        return [preset.build_node(RngStreams(seed)) for seed in range(n)]

    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_batch_step_matches_each_node_stepped_alone(self, preset_name):
        batch_nodes = self._nodes(preset_name, 5)
        alone = self._nodes(preset_name, 5)
        batch = NodeBatch(batch_nodes)
        segments = [
            None,
            Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.7, gpu_util=0.5),
            Segment(1.0, 2.0, mem_intensity=0.1, cpu_util=0.0005, gpu_util=0.9),
            Segment(1.0, 60.0, mem_intensity=0.9, cpu_util=1.0, gpu_util=0.0),
            Segment(1.0, 5.0, mem_intensity=0.3, cpu_util=0.002, gpu_util=0.2),
        ]
        alone[3].force_uncore_all(alone[3].uncore_min_ghz)
        batch_nodes[3].force_uncore_all(batch_nodes[3].uncore_min_ghz)
        for _ in range(30):
            states = batch.step(0.01, segments)
            for node, state, twin, segment in zip(batch_nodes, states, alone, segments):
                expected = twin.step(0.01, segment)
                assert state == expected
                assert node.last_state is state
                for attr in ("core_utils", "core_freqs_ghz", "core_ipc"):
                    assert getattr(node, attr).tobytes() == getattr(twin, attr).tobytes()
                    assert getattr(node, attr).shape == (node.n_cores,)

    def test_rejects_an_empty_batch(self):
        with pytest.raises(HardwareError, match="at least one node"):
            NodeBatch([])

    def test_rejects_the_same_node_twice(self):
        (node,) = self._nodes("intel_a100", 1)
        with pytest.raises(HardwareError, match="twice"):
            NodeBatch([node, node])

    def test_rejects_different_socket_counts(self):
        two_socket = self._nodes("intel_a100", 1)[0]
        one_socket = HeterogeneousNode(
            two_socket.sockets[:1], two_socket.memory, two_socket.gpus, name="half"
        )
        with pytest.raises(HardwareError, match="sockets"):
            NodeBatch([two_socket, one_socket])

    def test_rejects_different_parts(self):
        with pytest.raises(HardwareError, match="core count"):
            NodeBatch(self._nodes("intel_a100", 1) + self._nodes("intel_max1550", 1))

    def test_rejects_a_segment_count_mismatch_and_bad_dt(self):
        batch = NodeBatch(self._nodes("intel_a100", 2))
        with pytest.raises(HardwareError, match="segments"):
            batch.step(0.01, [None])
        with pytest.raises(HardwareError, match="dt"):
            batch.step(0.0, [None, None])

    def test_a_lone_socket_model_still_steps_alone(self):
        cpu = CPUCoreModel(8, rng=np.random.default_rng(3))
        cpu.step(0.5, 1.0, 1.0)
        assert cpu.core_utils.shape == (8,)


class TestLockstep:
    def _engine(self, dt_s: float = 0.01) -> SimulationEngine:
        preset = get_preset("intel_a100")
        node = preset.build_node(RngStreams(0))
        return SimulationEngine(node, observers=standard_observers(node), clock=SimClock(dt_s))

    def test_needs_started_engines(self):
        with pytest.raises(SimulationError, match="start"):
            list(lockstep([self._engine()]))

    def test_runs_must_share_a_tick_width(self):
        a, b = self._engine(0.01), self._engine(0.02)
        a.start(None, max_time_s=0.1)
        b.start(None, max_time_s=0.1)
        with pytest.raises(SimulationError, match="tick width"):
            list(lockstep([a, b]))

    def test_results_arrive_as_runs_end(self):
        engines = [self._engine() for _ in range(3)]
        for engine, horizon in zip(engines, (0.3, 0.1, 0.2)):
            engine.start(None, max_time_s=horizon)
        ended = [(index, len(result.recorder)) for index, result in lockstep(engines)]
        assert ended == [(1, 10), (2, 20), (0, 30)]

    def test_no_engines_is_no_results(self):
        assert list(lockstep([])) == []

    def test_an_ended_run_is_not_kept(self):
        engines = [self._engine() for _ in range(2)]
        engines[0].start(None, max_time_s=0.1)
        engines[1].start(None, max_time_s=0.3)
        first = weakref.ref(engines[0])
        steps = lockstep(engines)
        del engines
        index, result = next(steps)
        assert index == 0
        del result
        index, result = next(steps)
        assert index == 1
        gc.collect()
        assert first() is None

    def test_recorder_is_sized_to_the_horizon(self):
        short, long = self._engine(), self._engine()
        short.start(None, max_time_s=0.25)
        long.start(None, max_time_s=60.0)
        assert short.recorder._capacity == 26
        assert long.recorder._capacity == 1024
