"""Coordinated fleet runs: demand pass, then a deterministic control loop.

The driver runs in two phases:

1. **Demand pass** — the plain uncoordinated fleet
   (:meth:`~repro.cluster.simulator.ClusterSimulator.run_fleet`, through
   the process pool) produces each node's *demand trace*: the power it
   would draw with nobody throttling it, plus its *desired cap* — the
   remaining peak of that trace (reverse running maximum), which is what a
   batch node with a profiled job can honestly promise it will never
   exceed.
2. **Control loop** — a single-threaded, simulated-time tick loop
   (:class:`~repro.sim.clock.SimClock`) replays cluster time: nodes
   heartbeat their demand through the :class:`~repro.coordinator.chaos.
   ControlPlane`, the :class:`~repro.coordinator.core.BudgetCoordinator`
   arbitrates each epoch, grants flow back, and each node's delivered
   power is ``min(demand, effective cap)`` on every tick.

Splitting the phases keeps the coordinator bit-deterministic regardless
of pool worker count: all parallelism lives in phase 1 (already
worker-count-invariant), and phase 2 is a pure function of the demand
matrix, the config and the fault plan.

Modelling note (recorded in DESIGN.md §7): capping below demand throttles
*delivered power* but does not stretch job runtime — the demand trace is
open-loop.  The quantities this layer scores (overshoot ticks, lost
headroom, reconvergence) are properties of the control plane, not of the
workload's elasticity; the per-node governor stack
(:class:`~repro.governors.leased.LeasedPowerCapGovernor`) is where a cap
actually feeds back into uncore frequency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.simulator import GRID_S, ClusterSimulator, FleetResult
from repro.coordinator.chaos import ControlPlane, Heartbeat
from repro.coordinator.config import CoordinatorConfig, safe_floor_w
from repro.coordinator.core import BudgetCoordinator
from repro.coordinator.journal import GrantJournal
from repro.coordinator.lease import NodeLeaseState
from repro.errors import CoordinatorError
from repro.faults.incidents import Incident, IncidentLog
from repro.faults.plan import FaultPlan
from repro.obs.aggregate import merge_registries
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.registry import MetricsRegistry
from repro.obs.tsdb import Series, TimeSeriesDB
from repro.sim.clock import SimClock
from repro.units import ordered_sum, require_finite

__all__ = [
    "node_demand_matrix",
    "ample_budget_w",
    "CoordinatedFleetResult",
    "run_coordinated_fleet",
]

#: Watt-scale slack for "is the cap above the floor" style comparisons.
_EPS = 1e-6

#: Bucket edges for the reconvergence histogram, seconds after heal.
_RECONVERGE_BOUNDS = (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0)


def node_demand_matrix(
    fleet: FleetResult, n_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-node demand traces on the fleet grid.

    Returns ``(grid_times_s, demand_w)`` with ``demand_w`` of shape
    ``(n_nodes, len(grid))``: each node idles at the fleet's idle power
    except while one of its jobs runs, when the job's (shifted) power
    profile replaces the idle contribution — the same accounting the
    fleet aggregate uses, so the rows sum to ``aggregate_power_w``
    exactly on failure-free runs.
    """
    grid = fleet.grid_times_s
    demand = np.full((n_nodes, grid.size), fleet.idle_node_power_w)
    for outcome in fleet.outcomes:
        placement = fleet.placements.get(outcome.job.name)
        if placement is None or outcome.power_times_s.size == 0:
            continue
        if placement.node_id >= n_nodes:
            raise CoordinatorError(
                f"job {outcome.job.name!r} placed on node {placement.node_id} "
                f"but the coordinator only manages {n_nodes} nodes"
            )
        shifted = placement.actual_start_s + outcome.power_times_s
        inside = (grid >= shifted[0]) & (grid <= shifted[-1])
        demand[placement.node_id, inside] += (
            np.interp(grid[inside], shifted, outcome.power_values_w)
            - fleet.idle_node_power_w
        )
    return grid, demand


def ample_budget_w(fleet: FleetResult, n_nodes: int, floor_w: float) -> float:
    """The smallest provably non-throttling budget for this fleet.

    Sum over nodes of ``max(peak demand, floor)``: enough that every node
    can hold its full desired cap simultaneously, so a zero-fault
    coordinated run never clips — the basis of the golden bit-identity
    check.  Always at least the fleet's aggregate peak.

    Nudged up by one part in 10⁹ (sub-microwatt at fleet scale): the
    arbitration clamp computes ``budget - Σ others`` in floats, and exact
    peak sums can land one ULP short of a node's own peak, which would
    clip a single tick by ~1e-13 W and break bit-identity.
    """
    _, demand = node_demand_matrix(fleet, n_nodes)
    total = float(ordered_sum(max(float(row.max()), floor_w) for row in demand))
    return total * (1.0 + 1e-9)


@dataclass
class CoordinatedFleetResult:
    """Everything one coordinated run produced, tick-aligned.

    The per-tick matrices are indexed ``[node, tick]``; ``granted_sum_w``
    is the coordinator's pessimistic-cap total each tick — the quantity
    the never-exceed invariant bounds by ``budget_w``.
    """

    preset_name: str
    governor: str
    config: CoordinatorConfig
    plan_name: Optional[str]
    plan_seed: Optional[int]
    fleet: FleetResult
    n_nodes: int
    tick_times_s: np.ndarray
    node_demand_w: np.ndarray
    node_cap_w: np.ndarray
    node_delivered_w: np.ndarray
    granted_sum_w: np.ndarray
    coordinator_counters: Dict[str, int]
    control_counters: Dict[str, int]
    rejected_replays: Dict[int, int]
    reconvergence_s: List[float] = field(default_factory=list)
    #: Downlink-partition windows the plan ran, as ``(description,
    #: start_s, end_s, target)`` — the fail-safe scorer's evidence list.
    partition_downlinks: List[Tuple[str, float, float, Optional[int]]] = field(
        default_factory=list
    )
    metrics: Optional[MetricsRegistry] = None
    #: Scraped control-loop (+ per-job) time series (``tsdb=True`` runs).
    tsdb: Optional[TimeSeriesDB] = field(repr=False, default=None)
    #: Alert engine with its full event stream (``alert_rules`` runs).
    alerts: Optional[AlertEngine] = field(repr=False, default=None)
    #: Incident log of the run (alert transitions mirror in here).
    incidents: List[Incident] = field(repr=False, default_factory=list)

    # ------------------------------------------------------------ invariant
    @property
    def overshoot_ticks(self) -> int:
        """Ticks on which the granted sum exceeded the budget (must be 0)."""
        return int((self.granted_sum_w > self.config.budget_w + _EPS).sum())

    @property
    def max_granted_sum_w(self) -> float:
        return float(self.granted_sum_w.max())

    # ----------------------------------------------------------- aggregates
    @property
    def aggregate_delivered_w(self) -> np.ndarray:
        return self.node_delivered_w.sum(axis=0)

    @property
    def peak_power_w(self) -> float:
        return float(self.aggregate_delivered_w.max())

    @property
    def fleet_energy_j(self) -> float:
        return float(np.trapezoid(self.aggregate_delivered_w, self.tick_times_s))

    def time_over_budget_s(self, budget_w: Optional[float] = None) -> float:
        """Cluster time the *delivered* aggregate spent above the budget."""
        budget = self.config.budget_w if budget_w is None else budget_w
        if budget <= 0:
            raise CoordinatorError(f"budget must be positive, got {budget!r}")
        # NaN passes the comparison above and would never count as over.
        require_finite(
            budget, error=lambda b: CoordinatorError(f"budget must be finite, got {b!r}")
        )
        over = self.aggregate_delivered_w > budget
        return float(over.sum() * self.config.tick_s)

    @property
    def throttled_energy_j(self) -> float:
        """Demand energy the caps refused to deliver."""
        gap = np.maximum(0.0, self.node_demand_w - self.node_cap_w).sum(axis=0)
        return float(np.trapezoid(gap, self.tick_times_s))

    @property
    def lost_headroom_j(self) -> float:
        """Throttling that unused budget could have absorbed.

        On each tick the coordinator held ``budget - granted_sum`` watts
        in reserve; where nodes were simultaneously being clipped, that
        reserve was *waste* (conservatism's price, e.g. quarantine after a
        crash).  Integrates ``min(unused budget, total clipping)``.
        """
        unused = np.maximum(0.0, self.config.budget_w - self.granted_sum_w)
        gap = np.maximum(0.0, self.node_demand_w - self.node_cap_w).sum(axis=0)
        return float(np.trapezoid(np.minimum(unused, gap), self.tick_times_s))

    @property
    def floor_reversions(self) -> int:
        """Above-floor → floor transitions across all nodes' cap traces."""
        floor = self.config.safe_floor_w
        above = self.node_cap_w > floor + _EPS
        return int((above[:, :-1] & ~above[:, 1:]).sum())

    # ------------------------------------------------------------ reporting
    def to_dict(self) -> Dict[str, object]:
        """Machine-readable summary (the ``repro coordinate --json`` body).

        Field names are shared with ``repro fleet --json`` where the
        quantities coincide, so downstream tooling can diff the two.
        """
        return {
            "preset": self.preset_name,
            "governor": self.governor,
            "n_nodes": self.n_nodes,
            "budget_w": self.config.budget_w,
            "safe_floor_w": self.config.safe_floor_w,
            "plan": self.plan_name,
            "seed": self.plan_seed,
            "peak_power_w": self.peak_power_w,
            "fleet_energy_j": self.fleet_energy_j,
            "time_over_budget_s": self.time_over_budget_s(),
            "overshoot_ticks": self.overshoot_ticks,
            "max_granted_sum_w": self.max_granted_sum_w,
            "throttled_energy_j": self.throttled_energy_j,
            "lost_headroom_j": self.lost_headroom_j,
            "floor_reversions": self.floor_reversions,
            "reconvergence_s": list(self.reconvergence_s),
            "coordinator": dict(self.coordinator_counters),
            "control_plane": dict(self.control_counters),
            "rejected_replays": {
                str(node): count for node, count in sorted(self.rejected_replays.items())
            },
            "alerts": self.alerts.to_dict() if self.alerts is not None else None,
        }

    def metrics_rollup(self) -> MetricsRegistry:
        """Coordinator counters merged with the demand fleet's rollup.

        The one registry `repro metrics` renders for a coordinated run:
        per-job daemon metrics (when the demand pass collected them) plus
        the control-plane counters, associatively merged.
        """
        return merge_registries(
            reg
            for reg in (self.metrics, self.fleet.metrics_rollup())
            if reg is not None
        )


def _desired_caps(demand: np.ndarray) -> np.ndarray:
    """Remaining-peak desired caps: reverse running maximum per node."""
    return np.maximum.accumulate(demand[:, ::-1], axis=1)[:, ::-1]


def _record_metrics(result: CoordinatedFleetResult) -> MetricsRegistry:
    """Fold the run's counters into a registry (names are RL006 literals)."""
    reg = MetricsRegistry()
    coord = result.coordinator_counters
    ctrl = result.control_counters
    reg.counter("repro.coordinator.grants", help="initial leases issued").inc(
        coord["grants"]
    )
    reg.counter("repro.coordinator.renewals", help="lease renewals issued").inc(
        coord["renewals"]
    )
    reg.counter("repro.coordinator.expiries", help="leases provably expired").inc(
        coord["expiries"]
    )
    reg.counter("repro.coordinator.crashes", help="coordinator crashes").inc(
        coord["crashes"]
    )
    reg.counter("repro.coordinator.restarts", help="journal-replay recoveries").inc(
        coord["restarts"]
    )
    reg.counter(
        "repro.coordinator.quarantine_epochs", help="no-grant epochs after restart"
    ).inc(coord["quarantine_epochs"])
    reg.counter(
        "repro.coordinator.heartbeats", help="heartbeats the coordinator folded in"
    ).inc(coord["heartbeats_received"])
    reg.counter(
        "repro.coordinator.heartbeats_dropped", help="heartbeats lost in transit"
    ).inc(ctrl["heartbeats_dropped"])
    reg.counter(
        "repro.coordinator.heartbeats_delayed", help="heartbeats delivered late"
    ).inc(ctrl["heartbeats_delayed"])
    reg.counter(
        "repro.coordinator.heartbeats_reordered", help="heartbeats delivered out of order"
    ).inc(ctrl["heartbeats_reordered"])
    reg.counter(
        "repro.coordinator.floor_reversions", help="node caps that fell to the floor"
    ).inc(result.floor_reversions)
    reg.counter(
        "repro.coordinator.replays_rejected", help="stale grants nodes refused"
    ).inc(sum(result.rejected_replays.values()))
    reg.gauge(
        "repro.coordinator.headroom_w", help="budget minus granted sum at run end"
    ).set(result.config.budget_w - float(result.granted_sum_w[-1]))
    hist = reg.histogram(
        "repro.coordinator.reconverge_seconds",
        bounds=_RECONVERGE_BOUNDS,
        help="partition heal to first above-floor grant",
    )
    for value in result.reconvergence_s:
        hist.observe(value)
    return reg


def _reconvergence(
    plane: ControlPlane,
    tick_times: np.ndarray,
    node_cap: np.ndarray,
    floor_w: float,
    n_nodes: int,
) -> List[float]:
    """Seconds from each partition heal to the target's first above-floor cap.

    Nodes already above the floor at heal (the partition never outlived
    their lease) reconverge in zero seconds; nodes that never recover
    within the run contribute the remaining horizon — a visible worst
    case rather than a silently dropped sample.
    """
    out: List[float] = []
    for spec in plane.partition_windows():
        heal = spec.end_s
        if heal >= float(tick_times[-1]):
            continue
        targets = [spec.target] if spec.target is not None else list(range(n_nodes))
        after = tick_times >= heal
        for node in targets:
            above = node_cap[node] > floor_w + _EPS
            recovered = np.flatnonzero(after & above)
            if recovered.size:
                out.append(max(0.0, float(tick_times[recovered[0]]) - heal))
            else:
                out.append(float(tick_times[-1]) - heal)
    return out


def run_coordinated_fleet(
    sim: ClusterSimulator,
    governor_name: str,
    *,
    config: Optional[CoordinatorConfig] = None,
    budget_w: Optional[float] = None,
    plan: Optional[FaultPlan] = None,
    journal: Optional[GrantJournal] = None,
    dt_s: float = 0.01,
    n_workers: Optional[int] = None,
    obs: bool = False,
    tsdb: bool = False,
    alert_rules: Optional[Sequence[AlertRule]] = None,
    incident_log: Optional[IncidentLog] = None,
    demand_fleet: Optional[FleetResult] = None,
) -> CoordinatedFleetResult:
    """Run ``sim`` under the budget coordinator.

    Either pass a full ``config`` or just ``budget_w`` (the safe floor is
    then derived from the fleet's measured idle node power and all timing
    knobs take their defaults).  With neither, the budget defaults to the
    *ample* budget (:func:`ample_budget_w`) — the zero-throttling regime
    the golden bit-identity check pins.  ``demand_fleet`` short-circuits
    the demand pass with an existing uncoordinated result (it must come
    from the same simulator and governor).

    ``tsdb`` scrapes the control loop into a
    :class:`~repro.obs.tsdb.TimeSeriesDB` (per-tick fleet rollups, per-node
    caps and lease ages, delivered heartbeats, coordinator health) on top
    of the demand fleet's per-job series. ``alert_rules`` (implies
    ``tsdb``) evaluates an :class:`~repro.obs.alerts.AlertEngine` over the
    store once per coordinator epoch on simulated time; transitions land on
    the result's ``alerts``/``incidents`` (via ``incident_log`` when
    given). Both are passive: the granted caps, delivered power and every
    scored quantity are bit-identical with and without scraping.

    A control fault in ``plan`` that targets a node ``sim`` does not have,
    or a ``journal`` that already holds grants (recovery would replay
    another run's leases), raises :class:`~repro.errors.CoordinatorError`
    before the demand pass.
    """
    held = journal.grant_count() if journal is not None else 0
    if held:
        raise CoordinatorError(
            f"the grant journal already holds {held} grant(s) from another run; "
            f"a coordinated run needs an empty one"
        )
    for spec in plan or ():
        # Only control-plane specs carry a target (FaultSpec enforces it).
        if spec.target is not None and spec.target >= sim.n_nodes:
            raise CoordinatorError(
                f"fault {spec.describe()} targets node {spec.target}, but the "
                f"fleet has {sim.n_nodes} nodes (ids 0..{sim.n_nodes - 1})"
            )
    tsdb = tsdb or alert_rules is not None
    fleet = demand_fleet
    if fleet is None:
        fleet = sim.run_fleet(
            governor_name, dt_s=dt_s, n_workers=n_workers, obs=obs, tsdb=tsdb
        )
    elif fleet.governor != governor_name or fleet.preset_name != sim.preset.name:
        raise CoordinatorError(
            f"demand fleet ran {fleet.governor!r} on {fleet.preset_name!r}, "
            f"expected {governor_name!r} on {sim.preset.name!r}"
        )
    n_nodes = sim.n_nodes
    floor = safe_floor_w(fleet.idle_node_power_w)
    if config is None:
        if budget_w is None:
            budget_w = ample_budget_w(fleet, n_nodes, floor)
        config = CoordinatorConfig(budget_w=budget_w, safe_floor_w=floor)
    elif budget_w is not None:
        config = config.with_budget(budget_w)

    grid, demand_grid = node_demand_matrix(fleet, n_nodes)
    horizon_s = float(grid[-1]) if grid.size else GRID_S
    clock = SimClock(dt=config.tick_s)
    n_ticks = clock.ticks_until(horizon_s) + 1
    tick_times = np.arange(n_ticks) * config.tick_s
    demand = np.vstack(
        [np.interp(tick_times, grid, demand_grid[node]) for node in range(n_nodes)]
    )
    desired = _desired_caps(demand)

    coordinator = BudgetCoordinator(config, n_nodes, journal=journal)
    plane = ControlPlane(plan, heartbeat_s=config.heartbeat_s, tick_s=config.tick_s)
    nodes = [NodeLeaseState(node, floor) for node in range(n_nodes)]

    hb_every = max(1, int(round(config.heartbeat_s / config.tick_s)))
    epoch_every = max(1, int(round(config.epoch_s / config.tick_s)))
    node_cap = np.empty_like(demand)
    granted_sum = np.empty(n_ticks)

    # Scrape store + alert engine (both purely passive observers).
    db: Optional[TimeSeriesDB] = fleet.tsdb_rollup() if tsdb else None
    log = incident_log if incident_log is not None else IncidentLog()
    engine: Optional[AlertEngine] = None
    if alert_rules is not None and db is not None:
        engine = AlertEngine(db, alert_rules, incidents=log)
    # Series handles, each fetched on its series' first sample, so a series
    # exists exactly when it has been sampled (DESIGN.md §6k).
    labels = [{"node": str(node)} for node in range(n_nodes)]
    heartbeat_ts: List[Optional[Series]] = [None] * n_nodes
    lease_ts: List[Optional[Tuple[Series, Series]]] = [None] * n_nodes

    for tick in range(n_ticks):
        now = clock.now
        demand_now = demand[:, tick].tolist()
        # 1. Control-plane life events: a due crash wipes the coordinator;
        #    a completed outage replays the journal and starts quarantine.
        crash = plane.crash_due(now)
        if crash is not None and not coordinator.is_down(now):
            coordinator.crash(now, down_for_s=crash.end_s - now)
        coordinator.maybe_restart(now)
        # 2. Nodes heartbeat on their period (same phase — one switch
        #    fabric), reporting instantaneous demand and remaining peak.
        if tick % hb_every == 0:
            desired_now = desired[:, tick].tolist()
            for node in range(n_nodes):
                plane.send_heartbeat(
                    Heartbeat(
                        node_id=node,
                        sent_s=now,
                        demand_w=demand_now[node],
                        desired_w=desired_now[node],
                    ),
                    now,
                )
        # 3. The coordinator folds in whatever the fabric delivered.
        delivered_hbs = plane.deliver_heartbeats(now)
        coordinator.receive(delivered_hbs, now)
        if db is not None:
            for hb in delivered_hbs:
                beat_ts = heartbeat_ts[hb.node_id]
                if beat_ts is None:
                    beat_ts = heartbeat_ts[hb.node_id] = db.series(
                        "repro.ts.fleet.node_heartbeat_w", labels[hb.node_id]
                    )
                beat_ts.record(now, hb.demand_w)
        # 4. Epoch boundary: arbitrate and transmit grants.
        if tick % epoch_every == 0:
            for lease in coordinator.arbitrate(now):
                plane.send_grant(lease, now)
        else:
            coordinator.expire(now)
        # 5. Nodes apply whatever grants (and fault replays) arrive.
        for lease in plane.deliver_grants(now):
            nodes[lease.node_id].apply_grant(lease, now)
        # 6. Record the tick.
        caps = [state.effective_cap_w(now) for state in nodes]
        node_cap[:, tick] = caps
        granted = coordinator.granted_sum_w()
        granted_sum[tick] = granted
        # 7. Scrape + alert evaluation (pure observation of steps 1-6).
        if db is not None:
            if tick == 0:
                # The first sample of every series sampled each tick or
                # each epoch.
                db.record("repro.ts.fleet.budget_w", now, config.budget_w)
                node_demand_ts = [
                    db.series("repro.ts.fleet.node_demand_w", label) for label in labels
                ]
                node_cap_ts = [
                    db.series("repro.ts.fleet.node_cap_w", label) for label in labels
                ]
                demand_ts = db.series("repro.ts.fleet.demand_w")
                granted_ts = db.series("repro.ts.fleet.granted_w")
                delivered_ts = db.series("repro.ts.fleet.delivered_w")
                headroom_ts = db.series("repro.ts.fleet.headroom_w")
                down_ts = db.series("repro.ts.coordinator.down")
                quarantine_ts = db.series("repro.ts.coordinator.quarantine")
            for node in range(n_nodes):
                node_demand_ts[node].record(now, demand_now[node])
                node_cap_ts[node].record(now, caps[node])
                lease = nodes[node].current
                if lease is not None and now < lease.expires_s:
                    pair = lease_ts[node]
                    if pair is None:
                        pair = lease_ts[node] = (
                            db.series("repro.ts.fleet.node_lease_age_s", labels[node]),
                            db.series("repro.ts.fleet.node_lease_remaining_s", labels[node]),
                        )
                    pair[0].record(now, max(0.0, now - lease.granted_s))
                    pair[1].record(now, lease.expires_s - now)
            demand_ts.record(now, float(demand[:, tick].sum()))
            granted_ts.record(now, granted)
            delivered_ts.record(
                now, float(np.minimum(demand[:, tick], node_cap[:, tick]).sum())
            )
            headroom_ts.record(now, config.budget_w - granted)
            if tick % epoch_every == 0:
                down_ts.record(now, 1.0 if coordinator.is_down(now) else 0.0)
                quarantine_ts.record(now, 1.0 if coordinator.in_quarantine(now) else 0.0)
            if engine is not None and (tick % epoch_every == 0 or tick == n_ticks - 1):
                engine.evaluate(now)
        if tick + 1 < n_ticks:
            clock.advance(1)

    delivered = np.minimum(demand, node_cap)
    result = CoordinatedFleetResult(
        preset_name=fleet.preset_name,
        governor=governor_name,
        config=config,
        plan_name=plan.name if plan is not None else None,
        plan_seed=plan.seed if plan is not None else None,
        fleet=fleet,
        n_nodes=n_nodes,
        tick_times_s=tick_times,
        node_demand_w=demand,
        node_cap_w=node_cap,
        node_delivered_w=delivered,
        granted_sum_w=granted_sum,
        coordinator_counters=dict(coordinator.counters),
        control_counters=dict(plane.counters),
        rejected_replays={node.node_id: node.rejected_replays for node in nodes},
    )
    result.reconvergence_s = _reconvergence(
        plane, tick_times, node_cap, floor, n_nodes
    )
    result.partition_downlinks = [
        (spec.describe(), spec.start_s, spec.end_s, spec.target)
        for spec in plane.partition_windows()
        if spec.kind == "partition_downlink"
    ]
    if obs:
        result.metrics = _record_metrics(result)
    result.tsdb = db
    result.alerts = engine
    result.incidents = list(log)
    return result
