"""Control-plane chaos: fault transport, fail-safe scoring, the CI gate.

The ControlPlane is exercised spec-by-spec (drops, delays, reorders,
one-way partitions, stale-grant replays, coordinator crashes), then the
full coordinated campaign runs end-to-end and is scored: the never-exceed
invariant must hold on both the trace and the independent journal replay,
downlink-partitioned nodes must be at the safe floor within one lease
duration, and a tampered journal must fail the gate — proving the scorer
actually looks at the evidence.
"""

import numpy as np
import pytest

from repro.cluster import ClusterJob
from repro.coordinator import (
    ControlPlane,
    GrantJournal,
    Heartbeat,
    Lease,
)
from repro.errors import ExperimentError, FaultInjectionError
from repro.experiments import (
    assert_coordination_safe,
    format_coordination,
    run_coordination,
)
from repro.experiments.coordination import (
    coordination_row_dict,
    journal_granted_sums,
    score_coordination,
)
from repro.faults import FaultPlan, FaultSpec, coordinated_campaign

JOBS = [
    ClusterJob("j0", "sort", 0.0, seed=1, max_time_s=12.0),
    ClusterJob("j1", "bfs", 2.0, seed=2, max_time_s=12.0),
]


def plane(specs, seed=1, heartbeat_s=0.5, tick_s=0.25):
    return ControlPlane(
        FaultPlan(specs, seed=seed, name="t"), heartbeat_s=heartbeat_s, tick_s=tick_s
    )


def hb(node, sent):
    return Heartbeat(node_id=node, sent_s=sent, demand_w=100.0, desired_w=200.0)


def lease(seq, node=0, granted=0.0, expires=3.0, cap=200.0):
    return Lease(
        node_id=node, cap_w=cap, granted_s=granted, expires_s=expires, seq=seq, epoch=0
    )


class TestCampaignPlan:
    def test_same_seed_same_plan(self):
        a = coordinated_campaign(3, horizon_s=40.0, n_nodes=2)
        b = coordinated_campaign(3, horizon_s=40.0, n_nodes=2)
        assert a.specs == b.specs
        assert a.specs != coordinated_campaign(4, horizon_s=40.0, n_nodes=2).specs

    def test_covers_every_control_fault_family(self):
        kinds = {spec.kind for spec in coordinated_campaign(1).specs}
        assert kinds == {
            "heartbeat_drop",
            "heartbeat_delay",
            "heartbeat_reorder",
            "partition_downlink",
            "partition_uplink",
            "coordinator_crash",
            "grant_replay",
        }

    def test_partitions_outlive_a_default_lease(self):
        for spec in coordinated_campaign(1, horizon_s=60.0).specs:
            if spec.kind.startswith("partition"):
                assert spec.duration_s > 3.0  # default lease_s

    def test_rejects_empty_fleet(self):
        with pytest.raises(FaultInjectionError):
            coordinated_campaign(1, n_nodes=0)


class TestControlPlaneFaults:
    def test_clean_plane_is_a_perfect_network(self):
        clean = ControlPlane(None, heartbeat_s=0.5, tick_s=0.25)
        clean.send_heartbeat(hb(0, 0.0), 0.0)
        assert [h.node_id for h in clean.deliver_heartbeats(0.0)] == [0]
        clean.send_grant(lease(0), 0.0)
        assert [g.seq for g in clean.deliver_grants(0.0)] == [0]

    def test_heartbeat_drop_window(self):
        p = plane([FaultSpec("control", "heartbeat_drop", 0.0, 1.0, count=None)])
        p.send_heartbeat(hb(0, 0.5), 0.5)
        p.send_heartbeat(hb(0, 1.5), 1.5)  # outside the window
        assert [h.sent_s for h in p.deliver_heartbeats(2.0)] == [1.5]
        assert p.counters["heartbeats_dropped"] == 1

    def test_targeted_drop_spares_other_nodes(self):
        p = plane([FaultSpec("control", "heartbeat_drop", 0.0, 1.0, count=None, target=1)])
        p.send_heartbeat(hb(0, 0.5), 0.5)
        p.send_heartbeat(hb(1, 0.5), 0.5)
        assert [h.node_id for h in p.deliver_heartbeats(0.5)] == [0]

    def test_heartbeat_delay_arrives_whole_periods_late(self):
        p = plane([FaultSpec("control", "heartbeat_delay", 0.0, 1.0, count=None)])
        p.send_heartbeat(hb(0, 0.0), 0.0)
        assert p.deliver_heartbeats(0.0) == []
        # Delays are 1-3 heartbeat periods; by 3 periods it must be out.
        late = p.deliver_heartbeats(1.5)
        assert [h.sent_s for h in late] == [0.0]
        assert p.counters["heartbeats_delayed"] == 1

    def test_reorder_inverts_node_order_one_tick_later(self):
        p = plane([FaultSpec("control", "heartbeat_reorder", 0.0, 1.0, count=None)])
        p.send_heartbeat(hb(0, 0.0), 0.0)
        p.send_heartbeat(hb(1, 0.0), 0.0)
        assert p.deliver_heartbeats(0.0) == []
        assert [h.node_id for h in p.deliver_heartbeats(0.25)] == [1, 0]
        assert p.counters["heartbeats_reordered"] == 2

    def test_downlink_partition_eats_grants(self):
        p = plane([FaultSpec("control", "partition_downlink", 0.0, 2.0, count=None, target=0)])
        p.send_grant(lease(0, node=0), 1.0)
        p.send_grant(lease(0, node=1), 1.0)
        assert [g.node_id for g in p.deliver_grants(1.0)] == [1]
        assert p.counters["grants_dropped"] == 1

    def test_grant_replay_resends_oldest_delivered(self):
        p = plane([FaultSpec("control", "grant_replay", 5.0, 1.0, count=2, target=0)])
        p.send_grant(lease(0, node=0, cap=300.0), 0.0)
        p.send_grant(lease(1, node=0, cap=150.0), 1.0)
        p.deliver_grants(1.0)
        replayed = p.deliver_grants(5.0)
        assert [g.seq for g in replayed] == [0]  # oldest, maximally stale
        assert p.counters["grants_replayed"] == 1

    def test_crash_spec_fires_once(self):
        p = plane([FaultSpec("control", "coordinator_crash", 2.0, 1.0, count=1)])
        assert p.crash_due(1.0) is None
        spec = p.crash_due(2.0)
        assert spec is not None and spec.kind == "coordinator_crash"
        assert p.crash_due(2.25) is None


class LinearScanPlane(ControlPlane):
    """The control plane with its spec lookups before the kind index: a
    scan of every spec in plan order, skipping other kinds."""

    def _consume(self, kind, now_s, node_id):
        for idx, spec in enumerate(self._specs):
            if spec.kind != kind:
                continue
            if not (spec.start_s <= now_s < spec.end_s):
                continue
            if node_id is not None and spec.target is not None and spec.target != node_id:
                continue
            remaining = self._remaining[idx]
            if remaining is None:
                return True
            if remaining > 0:
                self._remaining[idx] = remaining - 1
                return True
        return False

    def _match_spec(self, kind, now_s):
        for idx, spec in enumerate(self._specs):
            if spec.kind != kind:
                continue
            if not (spec.start_s <= now_s < spec.end_s):
                continue
            remaining = self._remaining[idx]
            if remaining is None or remaining > 0:
                return idx, spec
        return None

    def crash_due(self, now_s):
        for idx, spec in enumerate(self._specs):
            if spec.kind != "coordinator_crash":
                continue
            if not (spec.start_s <= now_s < spec.end_s):
                continue
            remaining = self._remaining[idx]
            if remaining is None or remaining > 0:
                if remaining is not None:
                    self._remaining[idx] = remaining - 1
                return spec
        return None


def overlapping_plan(rng):
    """Several overlapping, budgeted specs of every control kind, interleaved
    with a hub fault the plane must ignore."""
    kinds = [
        "heartbeat_drop",
        "heartbeat_delay",
        "heartbeat_reorder",
        "partition_uplink",
        "partition_downlink",
        "grant_replay",
        "coordinator_crash",
    ]
    specs = [FaultSpec("msr", "read_error", 0.0, 10.0, count=None)]
    for _ in range(14):
        kind = kinds[int(rng.integers(len(kinds)))]
        count = None if rng.uniform() < 0.2 else int(rng.integers(1, 4))
        target = None if rng.uniform() < 0.4 or kind == "coordinator_crash" else int(rng.integers(3))
        start = float(rng.choice([0.0, 0.5, 1.0, 2.0]))
        specs.append(
            FaultSpec("control", kind, start, float(rng.choice([1.0, 3.0, 8.0])), count=count, target=target)
        )
    return FaultPlan(specs, seed=int(rng.integers(100)), name="overlap")


class TestKindIndex:
    @pytest.mark.parametrize("seed", range(10))
    def test_charges_the_same_spec_as_a_linear_scan(self, seed):
        rng = np.random.default_rng(seed)
        plan = overlapping_plan(rng)
        fast = ControlPlane(plan, heartbeat_s=0.5, tick_s=0.25)
        slow = LinearScanPlane(plan, heartbeat_s=0.5, tick_s=0.25)
        seq = 0
        for tick in range(48):
            now = 0.25 * tick
            crashes = [p.crash_due(now) for p in (fast, slow)]
            assert crashes[0] is crashes[1]
            for node in range(3):
                if tick % 2 == 0:
                    for p in (fast, slow):
                        p.send_heartbeat(hb(node, now), now)
                if rng.uniform() < 0.3:
                    grant = lease(seq, node=node, granted=now, expires=now + 3.0)
                    seq += 1
                    for p in (fast, slow):
                        p.send_grant(grant, now)
            assert fast.deliver_heartbeats(now) == slow.deliver_heartbeats(now)
            assert fast.deliver_grants(now) == slow.deliver_grants(now)
            assert fast.counters == slow.counters
            assert fast._remaining == slow._remaining
        assert fast.partition_windows() == slow.partition_windows()
        # The plan charged budgets of several kinds, not just one.
        assert sum(fast.counters[k] for k in ("heartbeats_dropped", "heartbeats_delayed")) > 0


@pytest.fixture(scope="module")
def chaos_run():
    return run_coordination("intel_a100", JOBS, seed=2, budget_frac=0.8, n_workers=1)


class TestChaosCampaignEndToEnd:
    def test_invariant_survives_the_storm(self, chaos_run):
        result, score = chaos_run
        assert score.never_exceeded
        assert score.overshoot_ticks == 0
        assert score.journal_overshoot_ticks == 0
        assert score.max_granted_sum_w <= score.budget_w + 1e-6
        assert_coordination_safe(score)  # must not raise

    def test_every_fault_family_actually_fired(self, chaos_run):
        _, score = chaos_run
        c = score.counters
        assert c["heartbeats_dropped"] > 0
        assert c["heartbeats_delayed"] > 0
        assert c["heartbeats_reordered"] > 0
        assert c["grants_dropped"] > 0
        assert c["crashes"] == 1 and c["restarts"] == 1
        assert c["quarantine_epochs"] > 0
        # Every replayed stale grant was rejected by sequence number.
        assert c["grants_replayed"] > 0
        assert c["replays_rejected"] == c["grants_replayed"]

    def test_partitioned_node_reverted_to_floor_in_time(self, chaos_run):
        _, score = chaos_run
        assert score.partition_floor_ok, score.partition_floor_failures
        assert score.floor_reversions > 0
        assert score.reconvergence_s  # heals were observed and timed

    def test_journal_accounting_agrees_with_trace(self, chaos_run):
        result, score = chaos_run
        assert score.max_journal_sum_w == pytest.approx(score.max_granted_sum_w)

    def test_obs_metrics_recorded(self, chaos_run):
        result, _ = chaos_run
        assert result.metrics is not None
        snap = set(result.metrics.names())
        for name in (
            "repro.coordinator.grants",
            "repro.coordinator.heartbeats_dropped",
            "repro.coordinator.floor_reversions",
            "repro.coordinator.replays_rejected",
            "repro.coordinator.headroom_w",
            "repro.coordinator.reconverge_seconds",
        ):
            assert name in snap

    def test_report_and_row_shapes(self, chaos_run):
        _, score = chaos_run
        text = format_coordination(score)
        assert "never-exceed: OK" in text
        assert "partition fail-safe: OK" in text
        row = coordination_row_dict(score)
        assert row["never_exceeded"] is True
        assert row["overshoot_ticks"] == 0
        assert isinstance(row["counters"], dict)

    def test_result_to_dict_shares_fleet_schema_fields(self, chaos_run):
        result, _ = chaos_run
        body = result.to_dict()
        for key in ("peak_power_w", "fleet_energy_j", "time_over_budget_s", "budget_w"):
            assert key in body


class TestScorerIndependence:
    def test_tampered_journal_fails_the_gate(self, chaos_run):
        result, _ = chaos_run
        forged = GrantJournal()
        # A grant the coordinator never made: budget-busting cap mid-run.
        forged.record_grant(
            lease(0, node=0, granted=1.0, expires=50.0, cap=result.config.budget_w)
        )
        forged.record_grant(
            lease(0, node=1, granted=1.0, expires=50.0, cap=result.config.budget_w)
        )
        score = score_coordination(result, forged)
        assert score.journal_overshoot_ticks > 0
        assert not score.never_exceeded
        with pytest.raises(ExperimentError, match="journal replay shows"):
            assert_coordination_safe(score)

    def test_journal_sums_floor_when_empty(self, chaos_run):
        result, _ = chaos_run
        sums = journal_granted_sums(
            GrantJournal(), result.config, result.n_nodes, result.tick_times_s
        )
        expected = result.n_nodes * result.config.safe_floor_w
        assert np.all(sums == expected)

    def test_journal_naming_unknown_node_rejected(self, chaos_run):
        result, _ = chaos_run
        forged = GrantJournal()
        forged.record_grant(lease(0, node=99, granted=1.0, expires=2.0))
        with pytest.raises(ExperimentError, match="names node 99"):
            journal_granted_sums(
                forged, result.config, result.n_nodes, result.tick_times_s
            )


class TestNoChaosBudgetSweep:
    def test_full_budget_no_chaos_reproduces_uncoordinated(self):
        result, score = run_coordination(
            "intel_a100", JOBS, seed=1, budget_frac=1.0, chaos=False, n_workers=1
        )
        assert score.never_exceeded
        assert score.throttled_energy_j == 0.0
        assert np.array_equal(result.node_delivered_w, result.node_demand_w)

    def test_bad_budget_frac_rejected(self):
        with pytest.raises(ExperimentError):
            run_coordination("intel_a100", JOBS, budget_frac=0.0)
        with pytest.raises(ExperimentError):
            run_coordination("intel_a100", JOBS, budget_frac=1.5)
