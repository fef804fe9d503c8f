"""Edge-case coverage for ``FleetResult.time_over_budget_s``.

The coordinator's never-exceed invariant and the fleet comparison both
lean on this one accounting primitive, so its boundary semantics are
pinned here: the budget itself is *not* over (strict ``>``), degenerate
single-sample traces still count whole grid steps, and fleets whose
nodes finish at different times only accrue over-budget time while the
aggregate actually exceeds the cap. A coordinated run also rejects, up
front, a control fault aimed at a node the fleet does not have and a
grant journal that already holds another run's grants, and the CLI
refuses a bad explicit ``--budget`` before any fleet runs.
"""

import numpy as np
import pytest

from repro.cluster import ClusterJob, ClusterSimulator
from repro.cli import main
from repro.cluster.simulator import GRID_S, FleetResult, JobOutcome, Placement
from repro.coordinator import GrantJournal, Lease, run_coordinated_fleet
from repro.errors import CoordinatorError, ExperimentError
from repro.faults.plan import FaultPlan, FaultSpec


def make_result(aggregate_w, with_job=False):
    """A synthetic FleetResult around a given aggregate-power trace."""
    aggregate = np.asarray(aggregate_w, dtype=float)
    grid = GRID_S * np.arange(1, aggregate.size + 1)
    outcomes = []
    placements = {}
    if with_job:
        job = ClusterJob("j0", "sort", 0.0, seed=1)
        outcomes = [
            JobOutcome(
                job=job,
                governor="default",
                runtime_s=float(grid[-1]),
                completed=True,
                total_energy_j=float(np.trapezoid(aggregate, grid)),
                power_times_s=np.array([]),
                power_values_w=np.array([]),
            )
        ]
        placements = {"j0": Placement(node_id=0, actual_start_s=0.0, queue_wait_s=0.0)}
    return FleetResult(
        preset_name="intel_a100",
        governor="default",
        outcomes=outcomes,
        grid_times_s=grid,
        aggregate_power_w=aggregate,
        idle_node_power_w=50.0,
        placements=placements,
    )


class TestBudgetBoundary:
    def test_budget_exactly_at_peak_is_not_over(self):
        # Strict ">": running *at* the budget is compliant, not over.
        r = make_result([100.0, 250.0, 250.0, 100.0])
        assert r.time_over_budget_s(250.0) == 0.0

    def test_one_ulp_below_peak_counts_the_peak_samples(self):
        r = make_result([100.0, 250.0, 250.0, 100.0])
        just_under = float(np.nextafter(250.0, 0.0))
        assert r.time_over_budget_s(just_under) == pytest.approx(2 * GRID_S)

    def test_flat_trace_at_budget_is_zero(self):
        r = make_result([180.0] * 8)
        assert r.time_over_budget_s(180.0) == 0.0
        assert r.time_over_budget_s(float(np.nextafter(180.0, 0.0))) == pytest.approx(8 * GRID_S)

    def test_nonpositive_budget_rejected(self):
        r = make_result([100.0])
        for bad in (0.0, -5.0):
            with pytest.raises(ExperimentError):
                r.time_over_budget_s(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, bad):
        # NaN used to count no tick as over, and so did an infinite budget.
        r = make_result([100.0, 250.0])
        with pytest.raises(ExperimentError, match=f"budget must be finite, got {bad!r}"):
            r.time_over_budget_s(bad)

    def test_negative_infinity_keeps_its_message(self):
        with pytest.raises(ExperimentError, match="budget must be positive, got -inf"):
            make_result([100.0]).time_over_budget_s(float("-inf"))


class TestSingleSampleTrace:
    def test_single_sample_over_counts_one_grid_step(self):
        r = make_result([300.0])
        assert r.time_over_budget_s(299.0) == pytest.approx(GRID_S)

    def test_single_sample_at_budget_is_zero(self):
        r = make_result([300.0])
        assert r.time_over_budget_s(300.0) == 0.0

    def test_single_sample_peak_and_energy_consistent(self):
        r = make_result([300.0])
        assert r.peak_power_w == 300.0
        # One sample has no interval to integrate over.
        assert r.fleet_energy_j == 0.0


class TestNonUniformNodeEndTimes:
    def test_only_the_overlap_window_accrues(self):
        # Node A works (150 W) for 4 samples then idles (50 W); node B
        # works the whole 8.  The 300 W aggregate only exists while both
        # are busy — after A finishes, 150 + 50 stays under a 250 W cap.
        node_a = np.array([150.0] * 4 + [50.0] * 4)
        node_b = np.array([150.0] * 8)
        r = make_result(node_a + node_b)
        assert r.time_over_budget_s(250.0) == pytest.approx(4 * GRID_S)
        assert r.time_over_budget_s(150.0) == pytest.approx(8 * GRID_S)

    def test_real_fleet_with_staggered_jobs(self):
        # j1 starts 4 s after j0, so the nodes genuinely end at
        # different times; the budget boundary semantics must hold on
        # the real aggregation grid too.
        fleet = ClusterSimulator(
            "intel_a100",
            [
                ClusterJob("j0", "sort", 0.0, seed=1, max_time_s=10.0),
                ClusterJob("j1", "bfs", 4.0, seed=2, max_time_s=10.0),
            ],
        ).run_fleet("default", n_workers=1)
        assert fleet.time_over_budget_s(fleet.peak_power_w) == 0.0
        just_under = float(np.nextafter(fleet.peak_power_w, 0.0))
        assert fleet.time_over_budget_s(just_under) >= GRID_S
        # Above-peak budgets are trivially never exceeded.
        assert fleet.time_over_budget_s(fleet.peak_power_w + 1.0) == 0.0


class TestSummaryDict:
    def test_no_budget_reports_none(self):
        r = make_result([100.0, 200.0], with_job=True)
        d = r.summary_dict()
        assert d["budget_w"] is None
        assert d["time_over_budget_s"] is None

    def test_budget_flows_through(self):
        r = make_result([100.0, 200.0], with_job=True)
        d = r.summary_dict(budget_w=150.0)
        assert d["budget_w"] == 150.0
        assert d["time_over_budget_s"] == pytest.approx(GRID_S)
        assert d["peak_power_w"] == 200.0


class _DemandPassStarted(Exception):
    pass


@pytest.fixture
def two_nodes(monkeypatch):
    """A 2-node fleet whose demand pass raises, to prove no work ran."""
    sim = ClusterSimulator(
        "intel_a100",
        [
            ClusterJob("j0", "sort", 0.0, seed=1, max_time_s=2.0),
            ClusterJob("j1", "bfs", 0.0, seed=2, max_time_s=2.0),
        ],
    )

    def demand_pass(*args, **kwargs):
        raise _DemandPassStarted

    monkeypatch.setattr(sim, "run_fleet", demand_pass)
    return sim


class TestControlFaultTargets:
    @staticmethod
    def downlink(target):
        return FaultPlan(
            [FaultSpec("control", "partition_downlink", 1.0, 2.0, count=None, target=target)]
        )

    def test_target_outside_the_fleet_raises_before_any_work(self, two_nodes):
        with pytest.raises(CoordinatorError, match=r"control/partition_downlink node5 .* 2 nodes"):
            run_coordinated_fleet(two_nodes, "default", plan=self.downlink(5))

    def test_first_node_past_the_end_is_rejected(self, two_nodes):
        with pytest.raises(CoordinatorError, match="targets node 2"):
            run_coordinated_fleet(two_nodes, "default", plan=self.downlink(2))

    def test_last_node_is_a_valid_target(self, two_nodes):
        with pytest.raises(_DemandPassStarted):
            run_coordinated_fleet(two_nodes, "default", plan=self.downlink(1))


class TestUsedJournal:
    def test_journal_with_grants_raises_before_any_work(self, two_nodes, tmp_path):
        for journal in (GrantJournal(), GrantJournal(tmp_path / "grants.jsonl")):
            journal.record_grant(
                Lease(node_id=0, cap_w=200.0, granted_s=0.0, expires_s=3.0, seq=0, epoch=0)
            )
            with pytest.raises(CoordinatorError, match="already holds 1 grant"):
                run_coordinated_fleet(two_nodes, "default", journal=journal)

    def test_empty_journal_is_accepted(self, two_nodes):
        with pytest.raises(_DemandPassStarted):
            run_coordinated_fleet(two_nodes, "default", journal=GrantJournal())


class TestExplicitBudgetBeforeAnyRun:
    """A bad ``--budget`` exits 2 before the first fleet run, with the error
    the check after the runs used to raise."""

    @pytest.fixture(autouse=True)
    def no_fleet_runs(self, monkeypatch):
        def run_fleet(self, *args, **kwargs):
            raise _DemandPassStarted

        monkeypatch.setattr(ClusterSimulator, "run_fleet", run_fleet)

    @pytest.mark.parametrize(
        ("budget", "message"),
        [
            ("nan", "budget must be finite, got nan"),
            ("inf", "budget must be finite, got inf"),
            ("0", "budget must be positive, got 0.0"),
            ("-5", "budget must be positive, got -5.0"),
        ],
    )
    def test_fleet(self, capsys, budget, message):
        rc = main(["fleet", "--job", "sort@0", "--job", "bfs@3", "--budget", budget])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("budget", "message"),
        [
            ("nan", "budget_w must not be NaN"),
            ("inf", "budget_w must be finite, got inf"),
            ("0", "budget_w must be positive, got 0.0"),
            ("-5", "budget_w must be positive, got -5.0"),
        ],
    )
    def test_coordinate(self, capsys, budget, message):
        rc = main(["coordinate", "--job", "sort@0", "--budget", budget, "--max-time", "5"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("verb", [["fleet"], ["coordinate", "--max-time", "5"]])
    def test_a_good_budget_reaches_the_fleet_run(self, verb):
        with pytest.raises(_DemandPassStarted):
            main([*verb, "--job", "sort@0", "--budget", "700"])
