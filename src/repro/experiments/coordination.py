"""Coordination chaos scoring: does the budget invariant survive the storm?

Not a paper artefact — the fleet-scale analogue of the resilience
experiment: run a schedule under the cluster power-budget coordinator with
the :func:`~repro.faults.plan.coordinated_campaign` control-plane chaos
plan, and score what the protocol guaranteed versus what it cost:

* **never-exceed** — the sum of granted caps on every tick, checked twice:
  once from the run's own tick trace and once *independently* by replaying
  the grant journal against the config (a coordinator bug that corrupted
  its in-memory accounting cannot also corrupt the fsynced journal the
  same way);
* **fail-safe reversion** — every downlink-partitioned node must be back
  at the safe floor within one lease duration of the partition start, and
  stay there until heal (no grant can reach it);
* **cost of conservatism** — throttled demand energy, the slice of it that
  idle budget could have absorbed (*lost headroom*), and the time from
  each partition heal to the target's first above-floor grant
  (*reconvergence*).

:func:`assert_coordination_safe` is the CI gate: any overshoot tick, on
either accounting, fails the job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.job import ClusterJob
from repro.cluster.simulator import ClusterSimulator
from repro.coordinator.config import CoordinatorConfig, check_budget_w, safe_floor_w
from repro.coordinator.fleet import (
    CoordinatedFleetResult,
    ample_budget_w,
    run_coordinated_fleet,
)
from repro.coordinator.journal import GrantJournal
from repro.errors import ExperimentError
from repro.faults.plan import FaultPlan, coordinated_campaign, uplink_campaign
from repro.obs.alerts import AlertRule

#: ``alert_rules`` accepts a ready pack or a ``budget_w -> pack`` factory.
RuleSpec = Union[Sequence[AlertRule], Callable[[float], Sequence[AlertRule]]]

__all__ = [
    "CoordinationScore",
    "journal_granted_sums",
    "score_coordination",
    "coordination_row_dict",
    "format_coordination",
    "assert_coordination_safe",
    "run_coordination",
]

#: Watt-scale slack for float comparisons against the budget.
_EPS = 1e-6


@dataclass(frozen=True)
class CoordinationScore:
    """One coordinated chaos run, scored."""

    system: str
    governor: str
    plan: Optional[str]
    seed: Optional[int]
    n_nodes: int
    budget_w: float
    safe_floor_w: float
    #: Never-exceed, from the run's own tick trace (must be 0).
    overshoot_ticks: int
    #: Never-exceed, recomputed from the grant journal alone (must be 0).
    journal_overshoot_ticks: int
    max_granted_sum_w: float
    max_journal_sum_w: float
    #: Cluster time the *delivered* aggregate spent above the budget.
    time_over_budget_s: float
    throttled_energy_j: float
    lost_headroom_j: float
    floor_reversions: int
    #: Every long-enough downlink partition saw its target at the floor
    #: within one lease duration and until heal.
    partition_floor_ok: bool
    partition_floor_failures: Tuple[str, ...]
    reconvergence_s: Tuple[float, ...]
    counters: Dict[str, int]

    @property
    def never_exceeded(self) -> bool:
        return self.overshoot_ticks == 0 and self.journal_overshoot_ticks == 0


def journal_granted_sums(
    journal: GrantJournal,
    config: CoordinatorConfig,
    n_nodes: int,
    tick_times_s: np.ndarray,
) -> np.ndarray:
    """Per-tick pessimistic granted sum, rebuilt from the journal alone.

    For every tick, each node's pessimistic cap is the largest cap among
    journaled leases whose ``[granted, expires)`` window covers the tick,
    floored at the safe floor — the same quantity the coordinator accounts
    in memory, but derived from nothing it could have corrupted in flight.
    """
    floor = config.safe_floor_w
    per_node = np.full((n_nodes, tick_times_s.size), floor)
    for lease in journal.replay():
        if lease.node_id >= n_nodes:
            raise ExperimentError(
                f"journal names node {lease.node_id} but the run had {n_nodes} nodes"
            )
        active = (tick_times_s >= lease.granted_s) & (tick_times_s < lease.expires_s)
        row = per_node[lease.node_id]
        row[active] = np.maximum(row[active], lease.cap_w)
    return per_node.sum(axis=0)


def _partition_floor_failures(result: CoordinatedFleetResult) -> List[str]:
    """Downlink partitions whose target did not revert to the floor in time."""
    cfg = result.config
    floor = cfg.safe_floor_w
    times = result.tick_times_s
    failures: List[str] = []
    if result.plan_name is None:
        return failures
    # Re-derive the partition windows from the scored traces: a node is
    # compliant if, from one lease duration after the partition start until
    # heal, its effective cap never rises above the floor.
    for spec_desc, start, end, target in result.partition_downlinks:
        deadline = start + cfg.lease_s
        if end <= deadline:
            continue  # partition shorter than a lease proves nothing
        window = (times >= deadline) & (times < min(end, float(times[-1])))
        if not window.any():
            continue
        targets = [target] if target is not None else list(range(result.n_nodes))
        for node in targets:
            if (result.node_cap_w[node][window] > floor + _EPS).any():
                failures.append(
                    f"node {node} held a cap above the floor inside "
                    f"[{deadline:.2f}, {end:.2f})s despite {spec_desc}"
                )
    return failures


def score_coordination(
    result: CoordinatedFleetResult, journal: GrantJournal
) -> CoordinationScore:
    """Score one coordinated run against its own grant journal."""
    journal_sums = journal_granted_sums(
        journal, result.config, result.n_nodes, result.tick_times_s
    )
    journal_overshoot = int((journal_sums > result.config.budget_w + _EPS).sum())
    floor_failures = tuple(_partition_floor_failures(result))
    counters = dict(result.coordinator_counters)
    counters.update(result.control_counters)
    counters["replays_rejected"] = sum(result.rejected_replays.values())
    return CoordinationScore(
        system=result.preset_name,
        governor=result.governor,
        plan=result.plan_name,
        seed=result.plan_seed,
        n_nodes=result.n_nodes,
        budget_w=result.config.budget_w,
        safe_floor_w=result.config.safe_floor_w,
        overshoot_ticks=result.overshoot_ticks,
        journal_overshoot_ticks=journal_overshoot,
        max_granted_sum_w=result.max_granted_sum_w,
        max_journal_sum_w=float(journal_sums.max()),
        time_over_budget_s=result.time_over_budget_s(),
        throttled_energy_j=result.throttled_energy_j,
        lost_headroom_j=result.lost_headroom_j,
        floor_reversions=result.floor_reversions,
        partition_floor_ok=not floor_failures,
        partition_floor_failures=floor_failures,
        reconvergence_s=tuple(result.reconvergence_s),
        counters=counters,
    )


def coordination_row_dict(score: CoordinationScore) -> Dict[str, object]:
    """JSON-ready view of one score (the CI artifact's schema)."""
    return {
        "system": score.system,
        "governor": score.governor,
        "plan": score.plan,
        "seed": score.seed,
        "n_nodes": score.n_nodes,
        "budget_w": score.budget_w,
        "safe_floor_w": score.safe_floor_w,
        "overshoot_ticks": score.overshoot_ticks,
        "journal_overshoot_ticks": score.journal_overshoot_ticks,
        "max_granted_sum_w": score.max_granted_sum_w,
        "max_journal_sum_w": score.max_journal_sum_w,
        "time_over_budget_s": score.time_over_budget_s,
        "throttled_energy_j": score.throttled_energy_j,
        "lost_headroom_j": score.lost_headroom_j,
        "floor_reversions": score.floor_reversions,
        "partition_floor_ok": score.partition_floor_ok,
        "partition_floor_failures": list(score.partition_floor_failures),
        "reconvergence_s": list(score.reconvergence_s),
        "never_exceeded": score.never_exceeded,
        "counters": dict(score.counters),
    }


def format_coordination(score: CoordinationScore) -> str:
    """Human-readable chaos report."""
    lines = [
        f"coordination chaos: {score.system} / {score.governor}"
        + (f" / plan {score.plan} (seed {score.seed})" if score.plan else " / no faults"),
        f"  budget {score.budget_w:.0f} W over {score.n_nodes} nodes "
        f"(safe floor {score.safe_floor_w:.0f} W each)",
        f"  never-exceed: {'OK' if score.never_exceeded else 'VIOLATED'} — "
        f"overshoot ticks {score.overshoot_ticks} (trace) / "
        f"{score.journal_overshoot_ticks} (journal), "
        f"max granted {score.max_granted_sum_w:.1f} W (journal "
        f"{score.max_journal_sum_w:.1f} W)",
        f"  delivered time over budget: {score.time_over_budget_s:.2f} s",
        f"  throttled energy {score.throttled_energy_j / 1000:.2f} kJ, "
        f"lost headroom {score.lost_headroom_j / 1000:.2f} kJ",
        f"  floor reversions: {score.floor_reversions}; partition fail-safe: "
        + (
            "OK"
            if score.partition_floor_ok
            else "; ".join(score.partition_floor_failures)
        ),
    ]
    if score.reconvergence_s:
        recon = ", ".join(f"{value:.2f}s" for value in score.reconvergence_s)
        lines.append(f"  reconvergence after heal: {recon}")
    counters = score.counters
    lines.append(
        "  grants {grants} (+{renewals} renewals), expiries {expiries}, "
        "crashes {crashes}/restarts {restarts} "
        "({quarantine_epochs} quarantine epochs)".format(**counters)
    )
    lines.append(
        "  chaos: {heartbeats_dropped} heartbeats dropped, "
        "{heartbeats_delayed} delayed, {heartbeats_reordered} reordered, "
        "{grants_dropped} grants dropped, {grants_replayed} replayed "
        "({replays_rejected} rejected by nodes)".format(**counters)
    )
    return "\n".join(lines)


def assert_coordination_safe(score: CoordinationScore) -> None:
    """The CI gate: raise on any budget-overshoot tick or fail-safe miss."""
    problems: List[str] = []
    if score.overshoot_ticks:
        problems.append(
            f"{score.overshoot_ticks} tick(s) with granted sum over the "
            f"{score.budget_w:.0f} W budget (max {score.max_granted_sum_w:.1f} W)"
        )
    if score.journal_overshoot_ticks:
        problems.append(
            f"journal replay shows {score.journal_overshoot_ticks} overshoot "
            f"tick(s) (max {score.max_journal_sum_w:.1f} W)"
        )
    if not score.partition_floor_ok:
        problems.extend(score.partition_floor_failures)
    if problems:
        raise ExperimentError(
            "coordination safety gate failed: " + "; ".join(problems)
        )


def run_coordination(
    preset: str,
    jobs: Sequence[ClusterJob],
    governor: str = "default",
    *,
    seed: int = 1,
    budget_frac: float = 0.85,
    budget_w: Optional[float] = None,
    chaos: Union[bool, str] = True,
    plan: Optional[FaultPlan] = None,
    n_workers: Optional[int] = None,
    dt_s: float = 0.01,
    journal_path: Optional[str] = None,
    obs: bool = True,
    tsdb: bool = False,
    alert_rules: Optional[RuleSpec] = None,
) -> Tuple[CoordinatedFleetResult, CoordinationScore]:
    """Run a schedule under the coordinator and score it.

    ``budget_frac`` scales the *ample* (never-throttling) budget — 1.0
    reproduces the uncoordinated fleet bit-for-bit in the zero-fault case,
    smaller values force real arbitration; an explicit ``budget_w`` wins
    over the fraction.  With ``chaos`` (and no explicit ``plan``) a
    seeded campaign runs against the fleet's own horizon: ``True`` (or
    ``"coordinated"``) picks :func:`coordinated_campaign`, ``"uplink"``
    the alert gate's :func:`~repro.faults.plan.uplink_campaign`.

    ``tsdb`` scrapes the demand pass and control loop into the result's
    :class:`~repro.obs.tsdb.TimeSeriesDB`; ``alert_rules`` (implies
    ``tsdb``) evaluates an alert pack on the simulated clock.  Because
    the budget is usually resolved *inside* this function, ``alert_rules``
    may be a callable ``budget_w -> rules`` — pass
    :func:`~repro.obs.scrape.default_fleet_rules` itself for the standard
    SLO pack against the resolved budget.

    ``journal_path`` keeps the grant journal on disk. The run starts it
    empty, replacing any file already there, so restart recovery and the
    score see only this run's grants.
    """
    if not (0.0 < budget_frac <= 1.0):
        raise ExperimentError(
            f"budget_frac must be in (0, 1], got {budget_frac!r}"
        )
    if budget_w is not None:
        check_budget_w(budget_w)
    tsdb = tsdb or alert_rules is not None
    sim = ClusterSimulator(preset, jobs)
    fleet = sim.run_fleet(governor, dt_s=dt_s, n_workers=n_workers, obs=obs, tsdb=tsdb)
    floor = safe_floor_w(fleet.idle_node_power_w)
    ample = ample_budget_w(fleet, sim.n_nodes, floor)
    if budget_w is None:
        # Keep the budget above the all-floors reserve even at tiny fractions.
        budget = max(budget_frac * ample, sim.n_nodes * floor * 1.05)
    else:
        budget = budget_w
    if plan is None and chaos:
        if chaos not in (True, "coordinated", "uplink"):
            raise ExperimentError(
                f"chaos must be a bool, 'coordinated' or 'uplink', got {chaos!r}"
            )
        factory = uplink_campaign if chaos == "uplink" else coordinated_campaign
        horizon = float(fleet.grid_times_s[-1])
        plan = factory(seed, horizon_s=horizon, n_nodes=sim.n_nodes)
    if callable(alert_rules):
        alert_rules = alert_rules(budget)
    journal = GrantJournal(journal_path)
    journal.clear()
    result = run_coordinated_fleet(
        sim,
        governor,
        budget_w=budget,
        plan=plan,
        journal=journal,
        demand_fleet=fleet,
        n_workers=n_workers,
        obs=obs,
        tsdb=tsdb,
        alert_rules=alert_rules,
    )
    return result, score_coordination(result, journal)
