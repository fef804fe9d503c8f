"""Fleet tasks and the node step: every job a task runs is its single run.

A fleet task (``repro.cluster.simulator._run_job``) runs its batch of jobs
one after another, each alone on its own node and its own quiet spans, and
drops each run once it is slimmed. These tests run fleets of 1, 2 and 17
jobs (17 is two tasks on one worker) on every preset, with jobs that
complete early, jobs cut at their horizon and jobs that end within their
first tick, and compare each job's outcome with the same job run alone by
``run_application`` and slimmed: the power trace, runtime, energy, metrics
export and TSDB state. They also check the node's span step against the
same node stepped a tick at a time, what a node and its step refuse, and
that a task holds one live run at a time.
"""

import gc
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.cluster import simulator
from repro.cluster.job import ClusterJob
from repro.cluster.simulator import GRID_S, ClusterSimulator, JobOutcome
from repro.errors import HardwareError
from repro.hw.cpu import CPUCoreModel
from repro.hw.node import HeterogeneousNode
from repro.hw.presets import get_preset
from repro.obs.config import ObsConfig
from repro.obs.exporters import render_prometheus
from repro.obs.tsdb import canonical_state_bytes
from repro.runtime.session import BuiltRun, RunResult, make_governor, run_application
from repro.sim.clock import SimClock
from repro.sim.engine import SimulationEngine
from repro.sim.observers import BaseTickObserver, standard_observers
from repro.sim.rng import RngStreams
from repro.workloads.base import Segment

PRESETS = ("intel_a100", "intel_4a100", "intel_max1550", "amd_mi210")
WIDTHS = (1, 2, 17)
#: Each preset's fleet governor; ``run_fleet`` takes one name per fleet.
GOVERNORS = {
    "intel_a100": "magus",
    "intel_4a100": "ups",
    "intel_max1550": "default",
    "amd_mi210": "magus",
}
#: A fleet job's observability, as ``run_fleet(obs=True, tsdb=True)`` sets it.
FLEET_OBS = ObsConfig(enabled=True, metrics=True, spans=False, tsdb=True)


def fleet_job(k: int) -> ClusterJob:
    """Job ``k`` of a fleet: its own seed, workload, start and horizon.

    Jobs 1, 5, 9 and 13 run their whole workload and complete; jobs 3 and
    15 end within their first tick; the rest stop at horizons 70 ms apart.
    """
    workload = ("unet", "srad", "bfs", "particlefilter_float", "gemm")[k % 5]
    if k % 4 == 1:
        horizon: Optional[float] = None
    elif k % 12 == 3:
        horizon = 0.004
    else:
        horizon = 0.35 + 0.07 * k
    return ClusterJob(f"job{k:02d}", workload, 0.5 * k, seed=1 + k, max_time_s=horizon)


def alone_outcome(preset: str, job: ClusterJob) -> JobOutcome:
    """``job`` run alone by ``run_application``, slimmed as a fleet keeps it."""
    governor = GOVERNORS[preset]
    result = run_application(
        preset,
        job.workload,
        make_governor(governor),
        seed=job.seed,
        dt_s=0.01,
        max_time_s=job.max_time_s if job.max_time_s is not None else 600.0,
        per_core_channels=False,
        obs=FLEET_OBS,
    )
    trace = result.traces["total_w"].resample(GRID_S)
    return JobOutcome(
        job=job,
        governor=governor,
        runtime_s=result.runtime_s,
        completed=result.completed,
        total_energy_j=result.total_energy_j,
        power_times_s=trace.times,
        power_values_w=trace.values,
        metrics=result.metrics,
        tsdb=result.tsdb,
    )


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _assert_same_outcome(fleet: JobOutcome, alone: JobOutcome) -> None:
    assert fleet.job == alone.job
    assert fleet.governor == alone.governor
    assert fleet.power_times_s.tobytes() == alone.power_times_s.tobytes()
    assert fleet.power_values_w.tobytes() == alone.power_values_w.tobytes()
    assert _bits(fleet.runtime_s) == _bits(alone.runtime_s)
    assert fleet.completed == alone.completed
    assert _bits(fleet.total_energy_j) == _bits(alone.total_energy_j)
    assert render_prometheus(fleet.metrics) == render_prometheus(alone.metrics)
    assert canonical_state_bytes(fleet.tsdb) == canonical_state_bytes(alone.tsdb)


def _assert_same_run(batched: RunResult, alone: RunResult) -> None:
    """Two full runs agree on every channel, decision, metric, series and span."""
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
def alone_outcomes() -> Dict[Tuple[str, int], JobOutcome]:
    return {(p, k): alone_outcome(p, fleet_job(k)) for p in PRESETS for k in range(max(WIDTHS))}


class TestBatchedRunsMatchSingleRuns:
    """A fleet's jobs, run by its tasks, each equal the same job run alone."""

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("width", WIDTHS)
    def test_every_run_is_its_single_run(self, preset, width, alone_outcomes):
        jobs = [fleet_job(k) for k in range(width)]
        fleet = ClusterSimulator(preset, jobs).run_fleet(
            GOVERNORS[preset], n_workers=1, obs=True, tsdb=True
        )
        assert [o.job for o in fleet.outcomes] == jobs
        for k, outcome in enumerate(fleet.outcomes):
            _assert_same_outcome(outcome, alone_outcomes[(preset, k)])

    def test_the_batch_mixes_idle_early_and_horizon_ends(self, alone_outcomes):
        outcomes = [alone_outcomes[("intel_a100", k)] for k in range(max(WIDTHS))]
        assert any(o.completed for o in outcomes)
        assert any(not o.completed and o.runtime_s > GRID_S for o in outcomes)
        assert any(o.runtime_s < 0.01 for o in outcomes)
        assert len({o.runtime_s for o in outcomes}) > 10
        # A fleet's idle node power is an idle run's.
        idle = run_application(
            "intel_a100", None, None, seed=0, dt_s=0.01, max_time_s=5.0, per_core_channels=False
        )
        fleet = ClusterSimulator("intel_a100", [fleet_job(0)])
        assert _bits(fleet.idle_node_power_w(0.01)) == _bits(idle.avg_total_w)


class TestNodeBatch:
    """The node's span step, and what a node and its step refuse."""

    def _nodes(self, preset_name: str, n: int) -> List[HeterogeneousNode]:
        preset = get_preset(preset_name)
        return [preset.build_node(RngStreams(seed)) for seed in range(n)]

    @pytest.mark.parametrize("preset_name", PRESETS)
    def test_batch_step_matches_each_node_stepped_alone(self, preset_name):
        # Nodes stepped in turn by spans of up to 7 ticks, each against a
        # twin stepped a tick at a time: every tick's values and core state,
        # and the span's last tick as the state.
        nodes = self._nodes(preset_name, 5)
        twins = self._nodes(preset_name, 5)
        segments = [
            None,
            Segment(1.0, 20.0, mem_intensity=0.6, cpu_util=0.7, gpu_util=0.5),
            Segment(1.0, 2.0, mem_intensity=0.1, cpu_util=0.0005, gpu_util=0.9),
            Segment(1.0, 60.0, mem_intensity=0.9, cpu_util=1.0, gpu_util=0.0),
            Segment(1.0, 5.0, mem_intensity=0.3, cpu_util=0.002, gpu_util=0.2),
        ]
        for group in (nodes, twins):
            group[3].force_uncore_all(group[3].uncore_min_ghz)
        spans = []
        for _ in range(30):
            for node, twin, segment in zip(nodes, twins, segments):
                state = node.step(0.01, segment, 7)
                spans.append(state.ticks)
                assert node.last_state is state
                for j in range(state.ticks):
                    expected = twin.step(0.01, segment)
                    assert expected.ticks == 1
                    assert _bits(state.tick_time_s[j]) == _bits(expected.time_s)
                    assert _bits(state.tick_core_w[j]) == _bits(expected.power.core_w)
                    assert _bits(state.tick_package_w[j]) == _bits(expected.power.package_w)
                    assert _bits(state.tick_mean_ipc[j]) == _bits(expected.mean_ipc)
                    assert _bits(state.tick_mean_core_freq_ghz[j]) == _bits(
                        expected.mean_core_freq_ghz
                    )
                    for attr in ("core_utils", "core_freqs_ghz", "core_ipc"):
                        rows = getattr(node, "tick_" + attr)
                        assert rows[j].tobytes() == getattr(twin, attr).tobytes()
                assert state[:11] == expected[:11]
                for attr in ("core_utils", "core_freqs_ghz", "core_ipc"):
                    assert getattr(node, attr).tobytes() == getattr(twin, attr).tobytes()
                    assert getattr(node, attr).shape == (node.n_cores,)
        assert max(spans) > 1

    def test_rejects_different_parts(self):
        (a100,) = self._nodes("intel_a100", 1)
        (max1550,) = self._nodes("intel_max1550", 1)
        with pytest.raises(HardwareError, match="core count"):
            HeterogeneousNode([a100.sockets[0], max1550.sockets[0]], a100.memory, a100.gpus)

    def test_rejects_a_node_without_sockets(self):
        (node,) = self._nodes("intel_a100", 1)
        with pytest.raises(HardwareError, match="at least one socket"):
            HeterogeneousNode([], node.memory, node.gpus)

    def test_rejects_a_bad_dt(self):
        (node,) = self._nodes("intel_a100", 1)
        for dt_s, message in (
            (0.0, "positive"),
            (-0.01, "positive"),
            (float("nan"), "finite"),
            (float("inf"), "finite"),
            (float("-inf"), "finite"),
        ):
            with pytest.raises(HardwareError, match=message):
                node.step(dt_s, None, 4)
        assert node.last_state is None and node.time_s == 0.0

    def test_a_lone_socket_model_still_steps_alone(self):
        cpu = CPUCoreModel(8, rng=np.random.default_rng(3))
        cpu.step(0.5, 1.0, 1.0)
        assert cpu.core_utils.shape == (8,)


class TestLockstep:
    """A fleet task's runs, one after another; the engine's recorder."""

    def _jobs(self, horizons) -> List[ClusterJob]:
        return [
            ClusterJob(f"j{k}", "srad", seed=k, max_time_s=horizon)
            for k, horizon in enumerate(horizons)
        ]

    def test_results_arrive_as_runs_end(self, monkeypatch):
        ended = []
        slim = simulator._slim

        def tracked(job, governor_name, result):
            ended.append((job.name, len(result.traces["total_w"])))
            return slim(job, governor_name, result)

        monkeypatch.setattr(simulator, "_slim", tracked)
        jobs = self._jobs((0.3, 0.1, 0.2))
        outcomes = simulator._run_job("intel_a100", jobs, "default", 0.01)
        # Each run ends, in job order, before the next one starts.
        assert ended == [("j0", 30), ("j1", 10), ("j2", 20)]
        assert [o.job for o in outcomes] == jobs

    def test_no_engines_is_no_results(self):
        assert simulator._run_job("intel_a100", (), "default", 0.01) == []

    def test_an_ended_run_is_not_kept(self, monkeypatch):
        # A task holds one live run: job k's engine and its full result are
        # gone when job k + 1's engine is built.
        runs: List[weakref.ref] = []
        alive: List[int] = []
        init = SimulationEngine.__init__
        finish = BuiltRun.finish

        def tracked_init(self, *args, **kwargs):
            gc.collect()
            alive.append(sum(run() is not None for run in runs))
            runs.append(weakref.ref(self))
            init(self, *args, **kwargs)

        def tracked_finish(self, result):
            run = finish(self, result)
            runs.append(weakref.ref(run))
            return run

        monkeypatch.setattr(SimulationEngine, "__init__", tracked_init)
        monkeypatch.setattr(BuiltRun, "finish", tracked_finish)
        outcomes = simulator._run_job("intel_a100", self._jobs((0.1, 0.3, 0.2, 0.1)), "magus", 0.01)
        assert len(outcomes) == 4 and len(runs) == 8
        assert alive == [0, 0, 0, 0]

    def test_recorder_is_sized_to_the_horizon(self):
        capacities: List[int] = []

        class _Capacity(BaseTickObserver):
            def on_start(self, engine):
                capacities.append(engine.recorder._capacity)

            def quiet_ticks(self, limit: int) -> int:
                return limit

        preset = get_preset("intel_a100")
        for horizon in (0.25, 60.0):
            node = preset.build_node(RngStreams(0))
            observers = standard_observers(node, extra=[_Capacity()])
            SimulationEngine(node, observers=observers, clock=SimClock(0.01)).run(
                None, max_time_s=horizon
            )
        assert capacities == [26, 1024]
