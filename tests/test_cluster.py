"""Cluster fleet simulation: aggregation, budgets, paired comparisons."""

import gc
import weakref

import numpy as np
import pytest

from repro.cluster import ClusterJob, ClusterSimulator, compare_fleets
from repro.cluster import simulator
from repro.cluster.simulator import JOBS_PER_TASK
from repro.errors import ExperimentError
from repro.obs.exporters import render_prometheus
from repro.obs.tsdb import canonical_state_bytes
from repro.sim.engine import SimulationEngine


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


@pytest.fixture(scope="module")
def small_fleet():
    return ClusterSimulator(
        "intel_a100",
        [
            ClusterJob("j0", "sort", 0.0, seed=1),
            ClusterJob("j1", "bfs", 4.0, seed=2),
        ],
    )


@pytest.fixture(scope="module")
def fleet_runs(small_fleet):
    return {
        "default": small_fleet.run_fleet("default", n_workers=1),
        "magus": small_fleet.run_fleet("magus", n_workers=1),
    }


class TestJobValidation:
    def test_valid_job(self):
        ClusterJob("a", "bfs", 1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ExperimentError):
            ClusterJob("", "bfs")

    def test_negative_start_rejected(self):
        with pytest.raises(ExperimentError):
            ClusterJob("a", "bfs", -1.0)

    def test_invalid_gpu_count_rejected(self):
        with pytest.raises(ExperimentError):
            ClusterJob("a", "bfs", gpu_count=0)

    @pytest.mark.parametrize("start", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_start_rejected(self, start):
        # A NaN start once passed the range check and a fleet then died in
        # its aggregation, after every job had been simulated.
        with pytest.raises(ExperimentError, match="start time must be finite"):
            ClusterJob("a", "bfs", start)

    def test_nan_max_time_rejected(self):
        with pytest.raises(ExperimentError, match="max_time_s must not be NaN"):
            ClusterJob("a", "bfs", max_time_s=float("nan"))

    def test_infinite_max_time_accepted(self):
        assert ClusterJob("a", "bfs", max_time_s=float("inf")).max_time_s == float("inf")


class TestSimulatorValidation:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ExperimentError):
            ClusterSimulator("intel_a100", [])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ExperimentError):
            ClusterSimulator("intel_a100", [ClusterJob("a", "bfs"), ClusterJob("a", "sort")])

    def test_too_many_gpus_rejected(self):
        with pytest.raises(ExperimentError):
            ClusterSimulator("intel_a100", [ClusterJob("a", "unet", gpu_count=4)])

    def test_one_node_per_job(self, small_fleet):
        assert small_fleet.n_nodes == 2

    def test_idle_power_is_cached_per_tick_width(self):
        sim = ClusterSimulator("intel_a100", [ClusterJob("a", "bfs")])
        fine = sim.idle_node_power_w(0.01)
        coarse = sim.idle_node_power_w(0.05)
        fresh = ClusterSimulator("intel_a100", [ClusterJob("a", "bfs")])
        assert _bits(coarse) == _bits(fresh.idle_node_power_w(0.05))
        assert coarse != fine
        assert _bits(sim.idle_node_power_w(0.01)) == _bits(fine)


class TestFleetRun:
    def test_all_jobs_complete(self, fleet_runs):
        for fleet in fleet_runs.values():
            assert all(o.completed for o in fleet.outcomes)

    def test_makespan_covers_latest_job(self, fleet_runs):
        fleet = fleet_runs["default"]
        last = max(o.job.start_time_s + o.runtime_s for o in fleet.outcomes)
        assert fleet.makespan_s == pytest.approx(last)

    def test_aggregate_floor_is_fleet_idle(self, fleet_runs):
        # Before any job starts / after all end, every node idles.
        fleet = fleet_runs["default"]
        floor = fleet.n_nodes * fleet.idle_node_power_w if hasattr(fleet, "n_nodes") else None
        expected_floor = 2 * fleet.idle_node_power_w
        assert fleet.aggregate_power_w.min() >= expected_floor * 0.9

    def test_aggregate_exceeds_single_node(self, fleet_runs):
        fleet = fleet_runs["default"]
        single_peak = max(float(o.power_values_w.max()) for o in fleet.outcomes)
        assert fleet.peak_power_w > single_peak

    def test_fleet_energy_positive_and_consistent(self, fleet_runs):
        fleet = fleet_runs["default"]
        # Fleet energy ≥ the sum of job energies (idle periods add more).
        assert fleet.fleet_energy_j >= 0.9 * sum(o.total_energy_j for o in fleet.outcomes)

    def test_time_over_budget_monotone_in_budget(self, fleet_runs):
        fleet = fleet_runs["default"]
        lo = fleet.time_over_budget_s(fleet.peak_power_w * 0.8)
        hi = fleet.time_over_budget_s(fleet.peak_power_w * 0.99)
        assert lo >= hi
        assert fleet.time_over_budget_s(fleet.peak_power_w + 1.0) == 0.0

    def test_invalid_budget_rejected(self, fleet_runs):
        with pytest.raises(ExperimentError):
            fleet_runs["default"].time_over_budget_s(0.0)

    def test_parallel_matches_serial(self):
        # One worker runs the 17 jobs as tasks of 16 and 1 jobs, two workers
        # as tasks of 9 and 8, three as tasks of 6, 6 and 5: the task widths
        # differ as well.
        jobs = [
            ClusterJob(f"j{i:02d}", ("sort", "bfs", "srad")[i % 3], 0.2 * i, seed=i, max_time_s=0.6)
            for i in range(JOBS_PER_TASK + 1)
        ]
        sim = ClusterSimulator("intel_a100", jobs)
        serial = sim.run_fleet("magus", n_workers=1, obs=True, tsdb=True)
        assert [o.job for o in serial.outcomes] == jobs
        for n_workers in (2, 3):
            parallel = sim.run_fleet("magus", n_workers=n_workers, obs=True, tsdb=True)
            assert [o.job for o in parallel.outcomes] == jobs
            for a, b in zip(serial.outcomes, parallel.outcomes):
                assert a.power_times_s.tobytes() == b.power_times_s.tobytes()
                assert a.power_values_w.tobytes() == b.power_values_w.tobytes()
                assert _bits(a.runtime_s) == _bits(b.runtime_s)
                assert _bits(a.total_energy_j) == _bits(b.total_energy_j)
                assert render_prometheus(a.metrics) == render_prometheus(b.metrics)
                assert canonical_state_bytes(a.tsdb) == canonical_state_bytes(b.tsdb)
            assert serial.aggregate_power_w.tobytes() == parallel.aggregate_power_w.tobytes()
            assert render_prometheus(serial.metrics_rollup()) == render_prometheus(
                parallel.metrics_rollup()
            )
            assert canonical_state_bytes(serial.tsdb_rollup()) == canonical_state_bytes(
                parallel.tsdb_rollup()
            )


class _Submitted(Exception):
    """Stops run_fleet at the pool, carrying the task widths it submitted."""


class TestTaskSplit:
    @pytest.fixture
    def widths(self, monkeypatch):
        def submit(func, kwargs_list, **options):
            raise _Submitted([len(kwargs["jobs"]) for kwargs in kwargs_list])

        monkeypatch.setattr(simulator, "map_parallel", submit)

        def widths(n_jobs, n_workers):
            sim = ClusterSimulator("intel_a100", [ClusterJob(f"j{i}", "srad") for i in range(n_jobs)])
            with pytest.raises(_Submitted) as submitted:
                sim.run_fleet("default", n_workers=n_workers)
            return submitted.value.args[0]

        return widths

    @pytest.mark.parametrize(
        "n_jobs, n_workers, expected",
        [
            (17, 1, [16, 1]),
            (17, 2, [9, 8]),
            (8, 7, [2, 2, 2, 2]),
            (3, 8, [1, 1, 1]),
            (64, 4, [16, 16, 16, 16]),
            (70, 4, [16, 16, 16, 16, 6]),
        ],
    )
    def test_tasks_spread_over_the_workers(self, widths, n_jobs, n_workers, expected):
        assert max(expected) <= JOBS_PER_TASK
        assert widths(n_jobs, n_workers) == expected

    def test_default_worker_count_sets_the_split(self, widths, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert widths(8, None) == [3, 3, 2]

    def test_worker_count_below_one_rejected(self):
        sim = ClusterSimulator("intel_a100", [ClusterJob("a", "srad")])
        with pytest.raises(ExperimentError, match="n_workers"):
            sim.run_fleet("default", n_workers=0)

    def test_a_task_drops_each_run_when_it_ends(self, monkeypatch):
        engines = []
        init = SimulationEngine.__init__

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            engines.append(weakref.ref(self))

        alive_at_slim = []
        slim = simulator._slim

        def tracked_slim(*args):
            gc.collect()
            alive_at_slim.append(sum(engine() is not None for engine in engines))
            return slim(*args)

        monkeypatch.setattr(SimulationEngine, "__init__", tracked_init)
        monkeypatch.setattr(simulator, "_slim", tracked_slim)
        jobs = [ClusterJob(f"j{i}", "srad", max_time_s=0.05 * (i + 1)) for i in range(4)]
        outcomes = simulator._run_job("intel_a100", jobs, "default", 0.01)
        assert [o.job for o in outcomes] == jobs
        # The k-th run to end is slimmed while at most the runs not yet
        # slimmed are alive: every earlier run has been freed.
        assert len(alive_at_slim) == len(jobs)
        for k, alive in enumerate(alive_at_slim):
            assert alive <= len(jobs) - k, alive_at_slim


class TestFleetObservability:
    def test_rollups_come_back_across_the_pool(self, small_fleet):
        run = small_fleet.run_fleet("magus", n_workers=2, obs=True)
        rollup = run.metrics_rollup()
        per_node = run.node_metrics()
        cycles = rollup.counter("repro.daemon.cycles").value
        assert cycles > 0
        # Per-node registries partition the fleet total exactly.
        assert sorted(per_node) == [0, 1]
        node_sum = sum(
            reg.counter("repro.daemon.cycles").value for reg in per_node.values()
        )
        assert node_sum == cycles

    def test_obs_off_yields_empty_rollup(self, fleet_runs):
        run = fleet_runs["magus"]
        assert all(o.metrics is None for o in run.outcomes)
        assert len(run.metrics_rollup()) == 0
        assert run.node_metrics() == {}


class TestFleetComparison:
    def test_magus_reduces_peak_and_energy(self, fleet_runs):
        # §6.1: lower instantaneous power keeps the aggregate under budget.
        c = compare_fleets(fleet_runs["default"], fleet_runs["magus"])
        assert c.peak_power_reduction_w > 0.0
        assert c.fleet_energy_saving_frac > 0.0
        assert c.makespan_increase_frac < 0.05

    def test_budget_violation_time_shrinks(self, fleet_runs):
        budget = fleet_runs["default"].peak_power_w * 0.95
        c = compare_fleets(fleet_runs["default"], fleet_runs["magus"], budget_w=budget)
        assert c.baseline_time_over_budget_s > 0.0
        assert c.method_time_over_budget_s <= c.baseline_time_over_budget_s

    def test_mismatched_schedules_rejected(self, fleet_runs):
        other = ClusterSimulator("intel_a100", [ClusterJob("x", "sort", 0.0, seed=1)])
        other_run = other.run_fleet("default", n_workers=1)
        with pytest.raises(ExperimentError):
            compare_fleets(fleet_runs["default"], other_run)

    def test_str_rendering(self, fleet_runs):
        c = compare_fleets(fleet_runs["default"], fleet_runs["magus"], budget_w=1000.0)
        text = str(c)
        assert "peak fleet power" in text and "budget" in text


class TestQueueing:
    @pytest.fixture(scope="class")
    def queued_fleet(self):
        sim = ClusterSimulator(
            "intel_a100",
            [
                ClusterJob("q0", "sort", 0.0, seed=1),
                ClusterJob("q1", "bfs", 0.0, seed=2),
                ClusterJob("q2", "lavamd", 0.0, seed=3),
            ],
            n_nodes=1,
        )
        return sim.run_fleet("magus", n_workers=1)

    def test_single_node_serialises_jobs(self, queued_fleet):
        placements = sorted(queued_fleet.placements.values(), key=lambda p: p.actual_start_s)
        outcomes = {o.job.name: o for o in queued_fleet.outcomes}
        by_start = sorted(queued_fleet.placements.items(), key=lambda kv: kv[1].actual_start_s)
        for (name_a, pa), (name_b, pb) in zip(by_start, by_start[1:]):
            assert pb.actual_start_s >= pa.actual_start_s + outcomes[name_a].runtime_s - 1e-6

    def test_all_on_node_zero(self, queued_fleet):
        assert {p.node_id for p in queued_fleet.placements.values()} == {0}

    def test_queue_wait_accumulates(self, queued_fleet):
        assert queued_fleet.total_queue_wait_s > 0.0

    def test_peak_bounded_by_one_active_node(self, queued_fleet):
        # With one node there is no aggregation: the peak equals the
        # busiest single-job peak.
        single_peak = max(float(o.power_values_w.max()) for o in queued_fleet.outcomes)
        assert queued_fleet.peak_power_w <= single_peak + 1.0

    def test_ample_nodes_mean_no_waiting(self, fleet_runs):
        assert fleet_runs["default"].total_queue_wait_s == 0.0

    def test_placement_lookup(self, queued_fleet):
        assert queued_fleet.placement("q1").node_id == 0
        with pytest.raises(ExperimentError):
            queued_fleet.placement("nope")

    def test_invalid_node_count_rejected(self):
        with pytest.raises(ExperimentError):
            ClusterSimulator("intel_a100", [ClusterJob("a", "bfs")], n_nodes=0)

    def test_makespan_reflects_serialisation(self, queued_fleet):
        outcomes = {o.job.name: o for o in queued_fleet.outcomes}
        total_runtime = sum(o.runtime_s for o in outcomes.values())
        assert queued_fleet.makespan_s == pytest.approx(total_runtime, rel=0.02)
