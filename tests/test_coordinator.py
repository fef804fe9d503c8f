"""Cluster power-budget coordinator: protocol units and golden guarantees.

Covers the lease/seq/schedule protocol machinery, the fsynced grant
journal's crash-recovery semantics, the coordinator's arbitration
invariant (granted caps never sum over the budget), crash/restart with
quarantine, and the two golden determinism checks the tentpole pins:
zero-fault ample-budget coordination is bit-identical to the
uncoordinated fleet, and the grant log is invariant to pool worker count.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterJob, ClusterSimulator
from repro.coordinator import (
    BudgetCoordinator,
    CapSchedule,
    CoordinatorConfig,
    GrantJournal,
    Heartbeat,
    Lease,
    NodeLeaseState,
    ample_budget_w,
    node_demand_matrix,
    run_coordinated_fleet,
    safe_floor_w,
)
from repro.errors import CoordinatorError
from repro.governors import LeasedPowerCapGovernor
from repro.journal import JsonlLog
from repro.runtime.session import make_governor, run_application
from repro.units import ordered_sum


def config(**overrides):
    defaults = dict(budget_w=1000.0, safe_floor_w=100.0)
    defaults.update(overrides)
    return CoordinatorConfig(**defaults)


@pytest.fixture(scope="module")
def small_sim():
    return ClusterSimulator(
        "intel_a100",
        [
            ClusterJob("j0", "sort", 0.0, seed=1, max_time_s=12.0),
            ClusterJob("j1", "bfs", 3.0, seed=2, max_time_s=12.0),
        ],
    )


@pytest.fixture(scope="module")
def demand_fleet(small_sim):
    return small_sim.run_fleet("default", n_workers=1)


class TestConfig:
    def test_defaults_are_commensurate(self):
        cfg = config()
        assert cfg.heartbeat_s % cfg.tick_s == 0
        assert cfg.silence_limit_s == cfg.lease_s

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(CoordinatorError):
            config(budget_w=0.0)

    def test_heartbeat_must_land_on_ticks(self):
        with pytest.raises(CoordinatorError, match="integer multiple"):
            config(heartbeat_s=0.3, tick_s=0.25)

    def test_lease_must_outlive_epoch(self):
        with pytest.raises(CoordinatorError, match="exceed epoch_s"):
            config(lease_s=1.0, epoch_s=1.0)

    @pytest.mark.parametrize(
        "field",
        [
            "budget_w",
            "safe_floor_w",
            "tick_s",
            "heartbeat_s",
            "epoch_s",
            "lease_s",
            "stale_tau_s",
            "dead_after_s",
            "restart_delay_s",
        ],
    )
    def test_nan_field_rejected(self, field):
        with pytest.raises(CoordinatorError, match=f"{field} must not be NaN"):
            config(**{field: math.nan})

    @pytest.mark.parametrize(
        "field", ["budget_w", "safe_floor_w", "tick_s", "heartbeat_s", "epoch_s", "lease_s"]
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_infinite_budget_floor_or_period_rejected(self, field, value):
        with pytest.raises(CoordinatorError, match=f"{field} must be finite"):
            config(**{field: value})

    def test_with_budget_rejects_nan(self):
        with pytest.raises(CoordinatorError, match="budget_w must not be NaN"):
            config().with_budget(math.nan)

    def test_unbounded_tau_silence_and_downtime_allowed(self):
        cfg = config(stale_tau_s=math.inf, dead_after_s=math.inf, restart_delay_s=math.inf)
        assert cfg.silence_limit_s == math.inf

    def test_dead_after_overrides_silence_limit(self):
        assert config(dead_after_s=7.0).silence_limit_s == 7.0

    def test_with_budget_copies(self):
        cfg = config()
        assert cfg.with_budget(500.0).budget_w == 500.0
        assert cfg.budget_w == 1000.0

    def test_safe_floor_is_idle_plus_margin(self):
        assert safe_floor_w(100.0) == pytest.approx(102.0)
        with pytest.raises(CoordinatorError):
            safe_floor_w(0.0)


class TestLease:
    def test_expiry_must_follow_grant(self):
        with pytest.raises(CoordinatorError):
            Lease(node_id=0, cap_w=100.0, granted_s=2.0, expires_s=2.0, seq=0, epoch=0)

    def test_active_window_is_half_open(self):
        lease = Lease(node_id=0, cap_w=100.0, granted_s=1.0, expires_s=4.0, seq=0, epoch=0)
        assert lease.active_at(1.0)
        assert lease.active_at(3.999)
        assert not lease.active_at(4.0)

    def test_dict_roundtrip(self):
        lease = Lease(node_id=2, cap_w=150.0, granted_s=1.0, expires_s=4.0, seq=7, epoch=3)
        assert Lease.from_dict(lease.to_dict()) == lease

    def test_malformed_payload_raises(self):
        with pytest.raises(CoordinatorError, match="malformed lease"):
            Lease.from_dict({"node_id": 0, "cap_w": "not-a-number"})

    @pytest.mark.parametrize("field", ["cap_w", "granted_s", "expires_s"])
    def test_nan_field_rejected(self, field):
        fields = dict(node_id=0, cap_w=100.0, granted_s=1.0, expires_s=4.0, seq=0, epoch=0)
        fields[field] = math.nan
        with pytest.raises(CoordinatorError, match="must not carry NaN"):
            Lease(**fields)
        # A journal record replays through from_dict, which must refuse it too.
        with pytest.raises(CoordinatorError, match="must not carry NaN"):
            Lease.from_dict(fields)

    def test_nan_cap_in_a_journal_file_fails_replay(self, tmp_path):
        path = tmp_path / "grants.jsonl"
        GrantJournal(path).record_grant(
            Lease(node_id=0, cap_w=100.0, granted_s=1.0, expires_s=4.0, seq=0, epoch=0)
        )
        path.write_text(path.read_text().replace('"cap_w":100.0', '"cap_w":NaN'))
        with pytest.raises(CoordinatorError, match="must not carry NaN"):
            GrantJournal(path).replay()


class TestCapSchedule:
    def test_floor_before_first_breakpoint(self):
        sched = CapSchedule(100.0, [(2.0, 300.0), (5.0, 150.0)])
        assert sched.cap_at(0.0) == 100.0
        assert sched.cap_at(2.0) == 300.0
        assert sched.cap_at(4.9) == 300.0
        assert sched.cap_at(5.0) == 150.0
        assert sched.cap_at(99.0) == 150.0

    def test_same_instant_later_write_wins(self):
        sched = CapSchedule(100.0, [(2.0, 300.0), (2.0, 200.0)])
        assert sched.cap_at(2.0) == 200.0
        assert sched.breakpoints() == ((2.0, 200.0),)

    def test_decreasing_time_rejected(self):
        with pytest.raises(CoordinatorError, match="non-decreasing"):
            CapSchedule(100.0, [(5.0, 300.0), (2.0, 200.0)])

    def test_constant_schedule(self):
        sched = CapSchedule.constant(250.0)
        assert sched.cap_at(0.0) == sched.cap_at(1e9) == 250.0


class TestNodeLeaseState:
    def lease(self, seq, cap=200.0, granted=0.0, expires=3.0):
        return Lease(node_id=0, cap_w=cap, granted_s=granted, expires_s=expires, seq=seq, epoch=0)

    def test_wrong_node_is_a_routing_bug(self):
        state = NodeLeaseState(1, 100.0)
        with pytest.raises(CoordinatorError, match="delivered to node 1"):
            state.apply_grant(self.lease(0), 0.0)

    def test_stale_seq_rejected_and_counted(self):
        state = NodeLeaseState(0, 100.0)
        assert state.apply_grant(self.lease(5, cap=150.0), 0.0)
        assert not state.apply_grant(self.lease(3, cap=400.0), 0.5)
        assert state.rejected_replays == 1
        assert state.effective_cap_w(0.5) == 150.0

    def test_expired_on_arrival_still_advances_seq(self):
        state = NodeLeaseState(0, 100.0)
        assert not state.apply_grant(self.lease(4, expires=1.0), 2.0)
        assert state.effective_cap_w(2.0) == 100.0
        # The dead lease still burned its sequence number.
        assert not state.apply_grant(self.lease(4, expires=10.0), 2.0)
        assert state.rejected_replays == 1

    def test_expiry_reverts_to_floor_on_own_clock(self):
        state = NodeLeaseState(0, 100.0)
        state.apply_grant(self.lease(0, cap=300.0, expires=3.0), 0.0)
        assert state.effective_cap_w(2.9) == 300.0
        assert state.effective_cap_w(3.0) == 100.0
        assert state.at_floor(3.0)

    def test_schedule_renders_delivery_supersession_and_expiry(self):
        state = NodeLeaseState(0, 100.0)
        # Delivered at 1.0 (0.5 s late): the cap rises at *delivery*.
        state.apply_grant(self.lease(0, cap=300.0, granted=0.5, expires=3.5), 1.0)
        # Renewal delivered before the first expires supersedes in place.
        state.apply_grant(self.lease(1, cap=200.0, granted=2.0, expires=5.0), 2.0)
        sched = state.schedule(end_s=10.0)
        assert sched.cap_at(0.9) == 100.0
        assert sched.cap_at(1.0) == 300.0
        assert sched.cap_at(2.0) == 200.0
        # The second lease expires with no renewal: back to the floor.
        assert sched.cap_at(5.0) == 100.0


class TestGrantJournal:
    def lease(self, seq, node=0, cap=200.0, granted=0.0, expires=3.0):
        return Lease(
            node_id=node, cap_w=cap, granted_s=granted, expires_s=expires, seq=seq, epoch=0
        )

    def test_in_memory_roundtrip(self):
        journal = GrantJournal()
        journal.record_grant(self.lease(0))
        journal.record_grant(self.lease(1, cap=250.0))
        assert [lease.seq for lease in journal.replay()] == [0, 1]
        assert journal.grant_count() == 2

    def test_file_backed_survives_reopen(self, tmp_path):
        path = tmp_path / "grants.jsonl"
        journal = GrantJournal(path)
        journal.record_grant(self.lease(0))
        journal.record_restart(5.0, 7.0)
        journal.record_grant(self.lease(1, node=1))
        reopened = GrantJournal(path)
        assert [lease.node_id for lease in reopened.replay()] == [0, 1]
        assert reopened.next_seq() == {0: 1, 1: 2}

    def test_truncated_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "grants.jsonl"
        journal = GrantJournal(path)
        journal.record_grant(self.lease(0))
        journal.record_grant(self.lease(1))
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # crash mid-append
        assert [lease.seq for lease in GrantJournal(path).replay()] == [0]

    def test_corrupt_middle_line_refuses_recovery(self, tmp_path):
        path = tmp_path / "grants.jsonl"
        journal = GrantJournal(path)
        journal.record_grant(self.lease(0))
        journal.record_grant(self.lease(1))
        lines = path.read_text().splitlines()
        lines[0] = lines[0][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CoordinatorError, match="corrupt grant journal"):
            GrantJournal(path).replay()

    def test_unknown_record_kind_refuses_recovery(self, tmp_path):
        path = tmp_path / "grants.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n" + "{}\n")
        with pytest.raises(CoordinatorError, match="unknown record kind"):
            GrantJournal(path).replay()

    def test_outstanding_filters_expired(self):
        journal = GrantJournal()
        journal.record_grant(self.lease(0, expires=3.0))
        journal.record_grant(self.lease(1, granted=2.0, expires=6.0))
        outstanding = journal.outstanding_at(4.0)
        assert [lease.seq for lease in outstanding[0]] == [1]

    def test_in_memory_and_file_backed_replay_alike(self, tmp_path):
        memory, on_disk = GrantJournal(), GrantJournal(tmp_path / "grants.jsonl")
        for journal in (memory, on_disk):
            journal.record_grant(self.lease(0, expires=3.0))
            journal.record_grant(self.lease(0, node=1, granted=1.0, expires=4.0))
            journal.record_restart(5.0, 7.0)
            journal.record_grant(self.lease(1, node=1, granted=7.0, expires=10.0))
        assert memory.replay() == on_disk.replay()
        assert len(memory.replay()) == 3
        assert memory.outstanding_at(3.5) == on_disk.outstanding_at(3.5)
        assert memory.next_seq() == on_disk.next_seq() == {0: 1, 1: 2}

    def test_clear_empties_both_modes(self, tmp_path):
        for journal in (GrantJournal(), GrantJournal(tmp_path / "grants.jsonl")):
            journal.record_grant(self.lease(0))
            journal.clear()
            assert journal.replay() == []
        assert not (tmp_path / "grants.jsonl").exists()

    #: Three records as the journal wrote them before it moved onto
    #: :class:`~repro.journal.JsonlLog`; the format must not change.
    EARLIER_FORMAT = (
        '{"cap_w":200.0,"epoch":0,"expires_s":3.0,"granted_s":0.0,'
        '"kind":"grant","node_id":0,"seq":0}\n'
        '{"kind":"restart","quarantine_until_s":7.5,"time_s":5.0}\n'
        '{"cap_w":312.25,"epoch":2,"expires_s":8.5,"granted_s":5.5,'
        '"kind":"grant","node_id":1,"seq":4}\n'
    )
    EARLIER_LEASES = [
        Lease(node_id=0, cap_w=200.0, granted_s=0.0, expires_s=3.0, seq=0, epoch=0),
        Lease(node_id=1, cap_w=312.25, granted_s=5.5, expires_s=8.5, seq=4, epoch=2),
    ]

    def test_earlier_journal_replays(self, tmp_path):
        path = tmp_path / "grants.jsonl"
        path.write_text(self.EARLIER_FORMAT)
        journal = GrantJournal(path)
        assert journal.replay() == self.EARLIER_LEASES
        assert journal.next_seq() == {0: 1, 1: 5}

    def test_recover_is_outstanding_and_next_seq_from_one_replay(self):
        journal = GrantJournal()
        journal.record_grant(self.lease(0, expires=3.0))
        journal.record_grant(self.lease(0, node=1, granted=1.0, expires=4.0))
        journal.record_restart(5.0, 7.0)
        journal.record_grant(self.lease(1, node=1, granted=7.0, expires=10.0))
        replays = []
        replay = journal.replay
        journal.replay = lambda: replays.append(1) or replay()
        outstanding, next_seq = journal.recover(3.5)
        assert len(replays) == 1
        assert {node: [lease.seq for lease in leases] for node, leases in outstanding.items()} == {
            1: [0, 1]
        }
        assert next_seq == {0: 1, 1: 2}
        assert journal.outstanding_at(3.5) == outstanding
        assert journal.next_seq() == next_seq

    def test_format_is_unchanged_byte_for_byte(self, tmp_path):
        path = tmp_path / "grants.jsonl"
        journal = GrantJournal(path)
        journal.record_grant(self.EARLIER_LEASES[0])
        journal.record_restart(5.0, 7.5)
        journal.record_grant(self.EARLIER_LEASES[1])
        assert path.read_bytes() == self.EARLIER_FORMAT.encode("ascii")


def heartbeat(node, sent, desired, demand=None):
    return Heartbeat(
        node_id=node,
        sent_s=sent,
        demand_w=desired if demand is None else demand,
        desired_w=desired,
    )


class TestHeartbeat:
    @pytest.mark.parametrize("field", ["sent_s", "demand_w", "desired_w"])
    def test_nan_field_rejected(self, field):
        fields = dict(node_id=0, sent_s=0.0, demand_w=50.0, desired_w=50.0)
        fields[field] = math.nan
        with pytest.raises(CoordinatorError, match="must not carry NaN"):
            Heartbeat(**fields)

    def test_nan_desire_never_reaches_a_grant(self):
        coord = BudgetCoordinator(config(budget_w=1000.0, safe_floor_w=100.0), 2)
        with pytest.raises(CoordinatorError):
            coord.receive([Heartbeat(0, 0.0, 50.0, math.nan)], 0.0)
        assert all(not math.isnan(lease.cap_w) for lease in coord.arbitrate(0.0))


class TestArbitration:
    def test_budget_must_cover_all_floors(self):
        with pytest.raises(CoordinatorError, match="cannot cover"):
            BudgetCoordinator(config(budget_w=250.0, safe_floor_w=100.0), 3)

    def test_freshest_heartbeat_wins_and_unknown_nodes_ignored(self):
        coord = BudgetCoordinator(config(), 2)
        coord.receive([heartbeat(0, 1.0, 300.0), heartbeat(0, 0.5, 999.0)], 1.0)
        coord.receive([heartbeat(7, 1.0, 500.0)], 1.0)
        grants = coord.arbitrate(1.0)
        assert [lease.node_id for lease in grants] == [0]
        assert grants[0].cap_w == pytest.approx(300.0)

    def test_undersubscribed_grants_exact_demand(self):
        coord = BudgetCoordinator(config(budget_w=1000.0), 2)
        coord.receive([heartbeat(0, 0.0, 300.0), heartbeat(1, 0.0, 400.0)], 0.0)
        grants = coord.arbitrate(0.0)
        assert [lease.cap_w for lease in grants] == [300.0, 400.0]
        assert coord.granted_sum_w() <= coord.config.budget_w

    def test_oversubscribed_splits_surplus_by_demand(self):
        coord = BudgetCoordinator(config(budget_w=500.0, safe_floor_w=100.0), 2)
        coord.receive([heartbeat(0, 0.0, 400.0), heartbeat(1, 0.0, 700.0)], 0.0)
        grants = coord.arbitrate(0.0)
        caps = {lease.node_id: lease.cap_w for lease in grants}
        # Surplus 300 W over floors split 300:600 -> 100 and 200 above floor.
        assert caps[0] == pytest.approx(200.0)
        assert caps[1] == pytest.approx(300.0)
        assert sum(caps.values()) <= 500.0 + 1e-6

    def test_silent_node_keeps_floor_reserved_but_gets_nothing(self):
        coord = BudgetCoordinator(config(budget_w=500.0, safe_floor_w=100.0), 2)
        coord.receive([heartbeat(0, 0.0, 900.0)], 0.0)
        grants = coord.arbitrate(0.0)
        assert [lease.node_id for lease in grants] == [0]
        # Node 1 never spoke: its floor stays reserved out of the budget.
        assert grants[0].cap_w == pytest.approx(400.0)

    def test_stale_heartbeat_demand_decays_toward_floor(self):
        cfg = config(budget_w=2000.0, safe_floor_w=100.0, stale_tau_s=1.0)
        coord = BudgetCoordinator(cfg, 1)
        coord.receive([heartbeat(0, 0.0, 500.0)], 0.0)
        fresh = coord.arbitrate(cfg.heartbeat_s)[0].cap_w
        assert fresh == pytest.approx(500.0)
        stale = coord.arbitrate(cfg.heartbeat_s + 1.0)[0].cap_w
        expected = 100.0 + 400.0 * np.exp(-1.0)
        assert stale == pytest.approx(expected)
        assert stale < fresh

    def test_node_presumed_dead_past_silence_limit(self):
        cfg = config()
        coord = BudgetCoordinator(cfg, 1)
        coord.receive([heartbeat(0, 0.0, 500.0)], 0.0)
        assert coord.arbitrate(cfg.silence_limit_s + 1.0) == []

    def test_shrink_waits_for_old_lease_expiry(self):
        cfg = config(budget_w=700.0, safe_floor_w=100.0, lease_s=3.0)
        coord = BudgetCoordinator(cfg, 2)
        coord.receive([heartbeat(0, 0.0, 500.0)], 0.0)
        first = coord.arbitrate(0.0)[0]
        assert first.cap_w == pytest.approx(500.0)
        # Node 0 shrinks to 150 W, node 1 wants the difference — but the
        # 500 W lease may still be believed until it expires, so node 1 is
        # clamped by the old pessimistic cap, not the new request.
        coord.receive([heartbeat(0, 1.0, 150.0), heartbeat(1, 1.0, 600.0)], 1.0)
        caps = {lease.node_id: lease.cap_w for lease in coord.arbitrate(1.0)}
        assert coord.granted_sum_w() <= cfg.budget_w + 1e-6
        assert caps[1] <= cfg.budget_w - 500.0 + 1e-6
        # After the original lease provably expires the headroom frees up.
        coord.receive([heartbeat(0, 3.5, 150.0), heartbeat(1, 3.5, 600.0)], 3.5)
        caps = {lease.node_id: lease.cap_w for lease in coord.arbitrate(3.5)}
        assert caps[1] > 500.0
        assert coord.granted_sum_w() <= cfg.budget_w + 1e-6

    def test_invariant_holds_through_scripted_storm(self):
        cfg = config(budget_w=600.0, safe_floor_w=100.0)
        coord = BudgetCoordinator(cfg, 3)
        rng = np.random.default_rng(7)
        now = 0.0
        for _ in range(40):
            beats = [
                heartbeat(node, now, float(rng.uniform(50.0, 900.0)))
                for node in range(3)
                if rng.uniform() > 0.3  # some nodes stay silent
            ]
            coord.receive(beats, now)
            coord.arbitrate(now)
            assert coord.granted_sum_w() <= cfg.budget_w + 1e-6
            now += cfg.epoch_s


def scratch_caps(coord):
    """Every node's pessimistic cap, recomputed from its outstanding leases."""
    floor = coord.config.safe_floor_w
    caps = []
    for node in range(coord.n_nodes):
        leases = coord._outstanding[node]
        caps.append(max(floor, max(lease.cap_w for lease in leases)) if leases else floor)
    return caps


class TestCachedCaps:
    @pytest.mark.parametrize("seed", range(6))
    def test_cached_caps_equal_a_rescan_after_every_step(self, seed):
        cfg = config(budget_w=900.0, safe_floor_w=100.0, restart_delay_s=0.5)
        n_nodes = 5
        coord = BudgetCoordinator(cfg, n_nodes)
        rng = np.random.default_rng(seed)
        steps = ["receive", "arbitrate", "expire", "crash", "restart"]
        now = 0.0
        for _ in range(300):
            now += float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            step = rng.choice(steps, p=[0.35, 0.3, 0.2, 0.05, 0.1])
            if step == "receive":
                beats = [
                    heartbeat(node, now - rng.uniform(0.0, 2.0), rng.uniform(50.0, 600.0))
                    for node in range(n_nodes)
                    if rng.uniform() < 0.7
                ]
                coord.receive(beats, now)
            elif step == "arbitrate":
                coord.arbitrate(now)
            elif step == "expire":
                coord.expire(now)
            elif step == "crash" and not coord.is_down(now):
                coord.crash(now, down_for_s=rng.uniform(0.0, 2.0))
            elif step == "restart":
                coord.maybe_restart(now)
            caps = scratch_caps(coord)
            assert [coord.pessimistic_cap_w(node) for node in range(n_nodes)] == caps
            assert coord.granted_sum_w() == sum(caps)
        # The sequence reached every kind of lease write.
        counters = coord.counters
        assert counters["grants"] and counters["renewals"]
        assert counters["expiries"] and counters["crashes"] and counters["restarts"]


def full_scan_expiries(coord, now):
    """Leases an expiry at ``now`` must drop: a scan of every node."""
    return sum(
        1 for leases in coord._outstanding.values() for lease in leases if lease.expires_s <= now
    )


class TestGrantedSumAndExpiryWatermark:
    @pytest.mark.parametrize("seed", range(8))
    def test_memo_and_watermark_equal_full_scans_after_every_call(self, seed):
        """The memoised sum is ``ordered_sum`` of the caps, and ``expire``
        drops and counts exactly what a scan of every lease would, through
        grants, renewals, expiries, crashes and journal restarts."""
        cfg = config(budget_w=900.0, safe_floor_w=100.0, restart_delay_s=0.5)
        n_nodes = 5
        coord = BudgetCoordinator(cfg, n_nodes)
        rng = np.random.default_rng(100 + seed)
        steps = ["receive", "arbitrate", "expire", "crash", "restart", "sum"]
        now = 0.0
        for _ in range(400):
            now += float(rng.choice([0.0, 0.25, 0.5, 1.0]))
            step = rng.choice(steps, p=[0.3, 0.25, 0.25, 0.05, 0.1, 0.05])
            if step == "receive":
                beats = [
                    heartbeat(node, now - rng.uniform(0.0, 2.0), rng.uniform(50.0, 600.0))
                    for node in range(n_nodes)
                    if rng.uniform() < 0.7
                ]
                coord.receive(beats, now)
            elif step == "arbitrate":
                want = full_scan_expiries(coord, now)
                before = coord.counters["expiries"]
                coord.arbitrate(now)
                assert coord.counters["expiries"] - before == want
            elif step == "expire":
                want = full_scan_expiries(coord, now)
                before = coord.counters["expiries"]
                assert coord.expire(now) == want
                assert coord.counters["expiries"] - before == want
                assert full_scan_expiries(coord, now) == 0
            elif step == "crash" and not coord.is_down(now):
                coord.crash(now, down_for_s=rng.uniform(0.0, 2.0))
            elif step == "restart":
                coord.maybe_restart(now)
            caps = scratch_caps(coord)
            assert coord.granted_sum_w() == ordered_sum(caps)
            leases = [lease for held in coord._outstanding.values() for lease in held]
            assert all(coord._expiry_watermark_s <= lease.expires_s for lease in leases)
        counters = coord.counters
        assert counters["grants"] and counters["renewals"] and counters["expiries"]
        assert counters["crashes"] and counters["restarts"]

    def test_a_new_lease_lowers_the_watermark(self):
        coord = BudgetCoordinator(config(budget_w=900.0, safe_floor_w=100.0), 2)
        coord.receive([heartbeat(0, 0.0, 300.0)], 0.0)
        coord.arbitrate(0.0)  # node 0 holds a lease until 3.0
        assert coord.expire(1.0) == 0
        coord.crash(1.0, down_for_s=0.0)
        # The restart replays the lease from the journal; it still expires.
        coord.maybe_restart(2.0)
        assert coord.expire(3.0) == 1
        assert coord.pessimistic_cap_w(0) == 100.0


class TestCrashRecovery:
    def test_crash_wipes_and_restart_replays_journal(self):
        cfg = config(budget_w=800.0, safe_floor_w=100.0, restart_delay_s=1.0)
        coord = BudgetCoordinator(cfg, 2)
        coord.receive([heartbeat(0, 0.0, 400.0), heartbeat(1, 0.0, 300.0)], 0.0)
        grants = coord.arbitrate(0.0)
        assert len(grants) == 2
        coord.crash(1.0, down_for_s=1.0)
        assert coord.is_down(1.5)
        assert coord.arbitrate(1.5) == []
        assert coord.maybe_restart(2.0)
        # The journal rebuilt the pessimistic picture of unexpired leases.
        assert coord.granted_sum_w() == pytest.approx(700.0)
        assert coord.in_quarantine(2.0)
        assert coord.counters["restarts"] == 1

    def test_quarantine_blocks_grants_then_lifts(self):
        cfg = config(quarantine_epochs=2, epoch_s=1.0, restart_delay_s=1.0)
        coord = BudgetCoordinator(cfg, 1)
        coord.crash(0.0, down_for_s=1.0)
        coord.maybe_restart(1.0)
        coord.receive([heartbeat(0, 1.0, 500.0)], 1.0)
        assert coord.arbitrate(1.0) == []
        assert coord.arbitrate(2.0) == []
        coord.receive([heartbeat(0, 3.0, 500.0)], 3.0)
        assert len(coord.arbitrate(3.0)) == 1

    def test_post_restart_seqs_resume_past_journal(self):
        cfg = config()
        coord = BudgetCoordinator(cfg, 1)
        coord.receive([heartbeat(0, 0.0, 500.0)], 0.0)
        before = coord.arbitrate(0.0)[0]
        coord.crash(0.5, down_for_s=1.0)
        coord.maybe_restart(1.5)
        node = NodeLeaseState(0, cfg.safe_floor_w)
        node.apply_grant(before, 0.0)
        # Wait out quarantine, then the next grant must not look stale.
        t = 1.5 + cfg.quarantine_epochs * cfg.epoch_s
        for k in range(cfg.quarantine_epochs + 1):
            coord.receive([heartbeat(0, 1.5 + k, 500.0)], 1.5 + k)
            grants = coord.arbitrate(1.5 + k)
        assert grants, "grant expected after quarantine"
        assert grants[0].seq > before.seq
        assert node.apply_grant(grants[0], t)


class TestCoordinatedFleet:
    def test_zero_fault_ample_budget_is_bit_identical(self, small_sim, demand_fleet):
        result = run_coordinated_fleet(
            small_sim, "default", demand_fleet=demand_fleet, n_workers=1
        )
        assert result.overshoot_ticks == 0
        # The golden guarantee: with no faults and a never-throttling
        # budget, coordination changes nothing — bit-for-bit.
        assert np.array_equal(result.node_delivered_w, result.node_demand_w)
        assert result.coordinator_counters["crashes"] == 0
        assert result.control_counters["heartbeats_dropped"] == 0

    def test_demand_rows_sum_to_fleet_aggregate(self, small_sim, demand_fleet):
        _, demand = node_demand_matrix(demand_fleet, small_sim.n_nodes)
        assert np.allclose(demand.sum(axis=0), demand_fleet.aggregate_power_w)

    def test_tight_budget_throttles_but_never_overshoots(self, small_sim, demand_fleet):
        floor = safe_floor_w(demand_fleet.idle_node_power_w)
        ample = ample_budget_w(demand_fleet, small_sim.n_nodes, floor)
        result = run_coordinated_fleet(
            small_sim,
            "default",
            budget_w=0.7 * ample,
            demand_fleet=demand_fleet,
            n_workers=1,
        )
        assert result.overshoot_ticks == 0
        assert result.throttled_energy_j > 0.0
        assert result.max_granted_sum_w <= result.config.budget_w + 1e-6

    def test_grant_log_is_worker_count_invariant(self, small_sim):
        logs = []
        for n_workers in (1, 2):
            journal = GrantJournal()
            run_coordinated_fleet(
                small_sim, "default", journal=journal, n_workers=n_workers
            )
            logs.append([lease.to_dict() for lease in journal.replay()])
        assert logs[0] == logs[1]

    def test_time_over_budget_refuses_a_non_finite_budget(self, small_sim, demand_fleet):
        # NaN used to count no tick as over, and so did an infinite budget.
        result = run_coordinated_fleet(
            small_sim, "default", demand_fleet=demand_fleet, n_workers=1
        )
        assert result.time_over_budget_s() == 0.0
        for bad in (math.nan, math.inf):
            with pytest.raises(CoordinatorError, match=f"budget must be finite, got {bad!r}"):
                result.time_over_budget_s(bad)

    def test_mismatched_demand_fleet_rejected(self, small_sim, demand_fleet):
        with pytest.raises(CoordinatorError, match="demand fleet ran"):
            run_coordinated_fleet(small_sim, "magus", demand_fleet=demand_fleet)


class TestLeasedGovernor:
    def test_constant_schedule_matches_plain_powercap(self):
        plain = run_application(
            "intel_a100", "sort", make_governor("powercap", cap_w=160.0),
            seed=1, max_time_s=12.0,
        )
        leased = run_application(
            "intel_a100", "sort",
            LeasedPowerCapGovernor(CapSchedule.constant(160.0)),
            seed=1, max_time_s=12.0,
        )
        assert leased.runtime_s == plain.runtime_s
        assert leased.total_energy_j == plain.total_energy_j
        assert np.array_equal(
            leased.traces["total_w"].values, plain.traces["total_w"].values
        )

    def test_stepped_schedule_changes_behaviour(self):
        tight_then_loose = CapSchedule(120.0, [(6.0, 220.0)])
        stepped = run_application(
            "intel_a100", "sort",
            LeasedPowerCapGovernor(tight_then_loose),
            seed=1, max_time_s=12.0,
        )
        constant = run_application(
            "intel_a100", "sort",
            LeasedPowerCapGovernor(CapSchedule.constant(220.0)),
            seed=1, max_time_s=12.0,
        )
        assert not np.array_equal(
            stepped.traces["total_w"].values, constant.traces["total_w"].values
        )


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
)
_JSON_RECORDS = st.dictionaries(
    st.text(),
    st.recursive(
        _JSON_SCALARS,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)
        ),
        max_leaves=12,
    ),
    max_size=6,
)


class TestJournalEncoding:
    @settings(max_examples=100, deadline=None)
    @given(_JSON_RECORDS)
    @example({"b": math.nan, "a": [math.inf, -0.0, "\u00e9", {"y": None, "x": True}]})
    def test_lines_equal_json_dumps_byte_for_byte(self, record):
        log = JsonlLog(None, CoordinatorError, "test log")
        log.append(record)
        expected = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        assert log._lines == [expected.encode()]

    def test_grant_and_restart_lines_equal_json_dumps(self):
        journal = GrantJournal()
        lease = Lease(node_id=3, cap_w=0.1 + 0.2, granted_s=1.5, expires_s=4.5, seq=7, epoch=2)
        journal.record_grant(lease)
        journal.record_restart(5.0, 1e-310)
        records = [
            {"kind": "grant", **lease.to_dict()},
            {"kind": "restart", "time_s": 5.0, "quarantine_until_s": 1e-310},
        ]
        assert journal._log._lines == [
            (json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n").encode()
            for r in records
        ]
