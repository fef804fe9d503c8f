"""Fleet node-failure modeling: seeded deaths, requeueing, churn accounting."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterJob,
    ClusterSimulator,
    NodeFailureEvent,
    NodeFailureModel,
    Segment,
    compare_fleets,
)
from repro.cluster.simulator import JobOutcome
from repro.errors import ExperimentError

# Surveyed so the seeded deaths (node0 ~42.9s, node1 ~12.3s, node2 ~215s)
# interrupt the schedule twice while leaving a survivor to drain it.
JOBS = [
    ClusterJob("j0", "sort", 0.0, seed=1),
    ClusterJob("j1", "bfs", 2.0, seed=2),
    ClusterJob("j2", "lavamd", 0.0, seed=3),
]
MODEL = NodeFailureModel(mtbf_s=40.0, seed=1)


@pytest.fixture(scope="module")
def fleet():
    return ClusterSimulator("intel_a100", JOBS)


@pytest.fixture(scope="module")
def clean_run(fleet):
    return fleet.run_fleet("default", n_workers=1)


@pytest.fixture(scope="module")
def churn_run(fleet):
    return fleet.run_fleet("default", n_workers=1, failure_model=MODEL)


class TestModelValidation:
    def test_valid_model(self):
        NodeFailureModel(mtbf_s=100.0, seed=3, restart_delay_s=0.0, lost_work_fraction=0.5)

    def test_nonpositive_mtbf_rejected(self):
        with pytest.raises(ExperimentError):
            NodeFailureModel(mtbf_s=0.0)

    def test_negative_restart_delay_rejected(self):
        with pytest.raises(ExperimentError):
            NodeFailureModel(mtbf_s=10.0, restart_delay_s=-1.0)

    @pytest.mark.parametrize("field", ["mtbf_s", "restart_delay_s"])
    def test_nan_rejected(self, field):
        # Both used to pass the range checks: a NaN MTBF killed no node and
        # a NaN restart delay summed to a NaN total.
        kwargs = {"mtbf_s": 10.0, field: float("nan")}
        with pytest.raises(ExperimentError, match=f"{field} must not be NaN"):
            NodeFailureModel(**kwargs)

    def test_infinite_mtbf_never_fails(self):
        model = NodeFailureModel(mtbf_s=float("inf"), seed=1)
        assert np.isinf(model.death_times(3)).all()

    def test_lost_work_fraction_bounds(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ExperimentError):
                NodeFailureModel(mtbf_s=10.0, lost_work_fraction=bad)

    def test_death_times_need_a_node(self):
        with pytest.raises(ExperimentError):
            NodeFailureModel(mtbf_s=10.0).death_times(0)

    def test_job_max_time_validated(self):
        with pytest.raises(ExperimentError):
            ClusterJob("a", "bfs", max_time_s=0.0)


class TestDeathTimes:
    def test_seeded_and_deterministic(self):
        model = NodeFailureModel(mtbf_s=40.0, seed=1)
        assert np.array_equal(model.death_times(5), model.death_times(5))

    def test_growing_fleet_keeps_prefix(self):
        model = NodeFailureModel(mtbf_s=40.0, seed=1)
        assert np.array_equal(model.death_times(5)[:3], model.death_times(3))

    def test_seed_changes_draw(self):
        a = NodeFailureModel(mtbf_s=40.0, seed=1).death_times(4)
        b = NodeFailureModel(mtbf_s=40.0, seed=2).death_times(4)
        assert not np.array_equal(a, b)


class TestChurnRun:
    def test_failures_recorded_in_time_order(self, churn_run):
        assert churn_run.n_failures == 2
        times = [e.time_s for e in churn_run.failures]
        assert times == sorted(times)
        assert all(isinstance(e, NodeFailureEvent) for e in churn_run.failures)

    def test_interrupted_job_requeues(self, churn_run):
        assert churn_run.requeue_counts == {"j2": 2}
        segs = churn_run.executions["j2"]
        assert len(segs) == 3
        assert all(isinstance(s, Segment) for s in segs)
        # Segments are disjoint and ordered: each resumption starts after
        # the failure plus the restart delay.
        for prev, nxt in zip(segs, segs[1:]):
            assert nxt.start_s >= prev.end_s + MODEL.restart_delay_s

    def test_uninterrupted_jobs_have_one_segment(self, churn_run):
        assert len(churn_run.executions["j0"]) == 1
        assert len(churn_run.executions["j1"]) == 1

    def test_lost_work_and_wasted_energy_accounted(self, churn_run):
        # lost_work_fraction=1.0: everything executed in a killed segment
        # is lost, and the replayed energy is booked as waste.
        assert churn_run.lost_work_s > 0
        assert churn_run.wasted_energy_j > 0
        for event in churn_run.failures:
            assert event.lost_work_s > 0
            assert event.wasted_energy_j > 0

    def test_restart_delay_accumulates(self, churn_run):
        assert churn_run.total_restart_delay_s >= MODEL.restart_delay_s * churn_run.n_failures

    def test_churn_stretches_makespan(self, churn_run, clean_run):
        assert churn_run.makespan_s > clean_run.makespan_s

    def test_dead_nodes_stop_contributing_idle(self, churn_run):
        # By the end of the horizon two of the three nodes are dead, so the
        # aggregate floor drops below two nodes' worth of idle power.
        assert churn_run.aggregate_power_w[-1] < 2 * churn_run.idle_node_power_w

    def test_node_failure_log_groups_by_node(self, churn_run):
        log = churn_run.node_failure_log()
        assert sum(len(v) for v in log.values()) == churn_run.n_failures
        for node_id, events in log.items():
            assert all(e.node_id == node_id for e in events)

    def test_clean_run_has_zero_churn_accounting(self, clean_run):
        assert clean_run.n_failures == 0
        assert clean_run.wasted_energy_j == 0.0
        assert clean_run.lost_work_s == 0.0
        assert clean_run.requeue_counts == {}


class TestDeterminism:
    def test_bit_identical_across_worker_counts(self, fleet, churn_run):
        """Same seed -> bit-identical FleetResult, failure log included,
        regardless of pool width (acceptance criterion)."""
        wide = fleet.run_fleet("default", n_workers=2, failure_model=MODEL)
        assert np.array_equal(wide.grid_times_s, churn_run.grid_times_s)
        assert np.array_equal(wide.aggregate_power_w, churn_run.aggregate_power_w)
        assert wide.failures == churn_run.failures
        assert wide.executions == churn_run.executions
        assert wide.placements == churn_run.placements


class TestCheckpointing:
    def test_perfect_checkpointing_loses_nothing(self, fleet, clean_run):
        model = NodeFailureModel(mtbf_s=40.0, seed=1, lost_work_fraction=0.0)
        _, executions, events, _ = fleet._place_with_failures(clean_run.outcomes, model)
        assert events  # failures still happen...
        assert all(e.lost_work_s == 0.0 for e in events)
        assert all(e.wasted_energy_j == 0.0 for e in events)
        # ...but no work is replayed: total executed time equals the sum of
        # job runtimes plus nothing extra.
        executed = sum(s.duration_s for segs in executions.values() for s in segs)
        runtimes = sum(o.runtime_s for o in clean_run.outcomes)
        assert executed == pytest.approx(runtimes, rel=1e-9)

    def test_no_checkpointing_replays_everything(self, fleet, clean_run):
        model = NodeFailureModel(mtbf_s=40.0, seed=1, lost_work_fraction=1.0)
        _, executions, events, _ = fleet._place_with_failures(clean_run.outcomes, model)
        executed = sum(s.duration_s for segs in executions.values() for s in segs)
        runtimes = sum(o.runtime_s for o in clean_run.outcomes)
        lost = sum(e.lost_work_s for e in events)
        assert executed == pytest.approx(runtimes + lost, rel=1e-9)
        assert lost > 0

    def test_all_nodes_dead_raises(self, fleet, clean_run):
        model = NodeFailureModel(mtbf_s=0.5, seed=0, restart_delay_s=0.1)
        with pytest.raises(ExperimentError, match="all 3 nodes failed"):
            fleet._place_with_failures(clean_run.outcomes, model)


class TestChurnComparison:
    def test_compare_fleets_carries_churn_fields(self, clean_run, churn_run):
        cmp = compare_fleets(clean_run, churn_run)
        assert cmp.baseline_failures == 0
        assert cmp.method_failures == 2
        assert cmp.method_wasted_energy_j == pytest.approx(churn_run.wasted_energy_j)
        assert "churn" in str(cmp)

    def test_clean_comparison_omits_churn_line(self, clean_run):
        cmp = compare_fleets(clean_run, clean_run)
        assert "churn" not in str(cmp)


class TestDegenerateTraces:
    def test_sub_grid_job_aggregates(self):
        """A job shorter than the aggregation grid step must not crash the
        horizon/aggregation maths (regression: empty resampled trace)."""
        fleet = ClusterSimulator(
            "intel_a100", [ClusterJob("tiny", "sort", 0.0, seed=1, max_time_s=0.005)]
        )
        result = fleet.run_fleet("default", n_workers=1)
        assert result.grid_times_s.size >= 1
        assert np.isfinite(result.fleet_energy_j)
        assert result.makespan_s > 0

    def test_synthetic_empty_trace_skipped(self, fleet):
        """An outcome with an empty power trace contributes idle only."""
        outcome = JobOutcome(
            job=ClusterJob("empty", "sort", 0.0, seed=1),
            governor="default",
            runtime_s=0.0,
            completed=True,
            total_energy_j=0.0,
            power_times_s=np.array([]),
            power_values_w=np.array([]),
        )
        sim = ClusterSimulator("intel_a100", [ClusterJob("empty", "sort", 0.0, seed=1)])
        placements = sim._place_fifo([outcome])
        grid, aggregate = sim._aggregate([outcome], placements, idle_w=100.0)
        assert grid.size >= 1
        assert np.allclose(aggregate, sim.n_nodes * 100.0)
