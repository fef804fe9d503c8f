"""The budget coordinator: lease-based arbitration under a hard invariant.

**The invariant.**  At every instant, the sum over nodes of the
*pessimistic cap* — the largest cap any granted-but-unexpired lease allows
that node, floored at the safe floor — is at most the global budget.  The
pessimistic cap is what a node might *believe* it holds, which is the only
safe basis for accounting: a grant the coordinator sent may or may not
have arrived, so the coordinator must assume it did; a smaller renewal may
or may not have arrived, so the coordinator must assume it did **not**
until the older, larger lease has provably expired on the simulated
clock.  Reclaimed headroom therefore becomes grantable only at old-lease
expiry (conservative reallocation), and shrink-then-regrant races cannot
overshoot.

**Arbitration** runs every epoch, deterministically in node-id order:

1. expire leases whose time has passed (pessimistic caps fall, possibly
   to the floor);
2. estimate each live node's desired cap from its freshest heartbeat,
   exponentially discounted toward the floor by staleness — nodes silent
   longer than the silence limit are presumed partitioned and get nothing;
3. split the budget: everyone's floor is reserved permanently (dead or
   alive), surplus is shared in proportion to discounted demand above the
   floor;
4. clamp each grant to the headroom left by *everyone else's* pessimistic
   cap, journal it (fsync before transmit), then raise the node's own
   pessimistic cap.

Step 4 makes the invariant structural rather than aspirational: a grant
that would break it cannot be constructed, and the defensive check raising
:class:`~repro.errors.CoordinatorError` is expected to be dead code.

**Crash/failover.**  A crash wipes all in-memory state.  Recovery replays
the grant journal: outstanding-lease picture and per-node sequence
counters (one past the largest journaled, so post-restart grants are not
rejected as replays), then holds a quarantine — whole epochs with no
grants — while possibly-in-flight leases age out before the rebuilt
picture is trusted with new money.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.coordinator.chaos import Heartbeat
from repro.coordinator.config import CoordinatorConfig
from repro.coordinator.journal import GrantJournal
from repro.coordinator.lease import Lease
from repro.errors import CoordinatorError
from repro.units import ordered_sum

__all__ = ["BudgetCoordinator", "NodeView"]

#: Absolute slack for float comparisons against the budget (watt scale).
_EPS = 1e-6


@dataclass
class NodeView:
    """The coordinator's belief about one node."""

    node_id: int
    last_heartbeat: Optional[Heartbeat] = None
    received_s: float = -math.inf

    def silence_s(self, now_s: float) -> float:
        if self.last_heartbeat is None:
            return math.inf
        return now_s - self.last_heartbeat.sent_s


class BudgetCoordinator:
    """Grants leased power caps; never promises more than the budget."""

    def __init__(
        self,
        config: CoordinatorConfig,
        n_nodes: int,
        *,
        journal: Optional[GrantJournal] = None,
    ) -> None:
        if n_nodes < 1:
            raise CoordinatorError(f"n_nodes must be >= 1, got {n_nodes!r}")
        floor_total = n_nodes * config.safe_floor_w
        if floor_total > config.budget_w + _EPS:
            raise CoordinatorError(
                f"budget {config.budget_w:.1f} W cannot cover {n_nodes} nodes at "
                f"the safe floor ({floor_total:.1f} W total): partitioned nodes "
                f"would be unsafe by construction"
            )
        self.config = config
        self.n_nodes = n_nodes
        self.journal = journal if journal is not None else GrantJournal()
        self._views: Dict[int, NodeView] = {
            node: NodeView(node) for node in range(n_nodes)
        }
        self._outstanding: Dict[int, List[Lease]] = {node: [] for node in range(n_nodes)}
        #: ``pessimistic_cap_w`` per node, refreshed by :meth:`_set_leases`.
        self._caps: List[float] = [config.safe_floor_w] * n_nodes
        #: ``ordered_sum(self._caps)``, or ``None`` once a cap has changed.
        self._granted_w: Optional[float] = None
        #: At or below every outstanding lease's expiry: ``expire`` has
        #: nothing to drop before it.
        self._expiry_watermark_s = math.inf
        self._next_seq: Dict[int, int] = {node: 0 for node in range(n_nodes)}
        self._epoch = 0
        self._down_until_s: Optional[float] = None
        self._quarantine_until_s = -math.inf
        self.counters: Dict[str, int] = {
            "grants": 0,
            "renewals": 0,
            "expiries": 0,
            "crashes": 0,
            "restarts": 0,
            "quarantine_epochs": 0,
            "heartbeats_received": 0,
            "heartbeats_ignored_down": 0,
        }

    # --------------------------------------------------------------- status
    def is_down(self, now_s: float) -> bool:
        return self._down_until_s is not None and now_s < self._down_until_s

    def in_quarantine(self, now_s: float) -> bool:
        return not self.is_down(now_s) and now_s < self._quarantine_until_s

    # ------------------------------------------------------------ telemetry
    def receive(self, heartbeats: List[Heartbeat], now_s: float) -> None:
        """Fold delivered heartbeats into per-node views (freshest wins).

        A down coordinator hears nothing — messages delivered during the
        outage are lost, exactly like a real process that isn't running.
        """
        if self.is_down(now_s):
            self.counters["heartbeats_ignored_down"] += len(heartbeats)
            return
        for heartbeat in heartbeats:
            self.counters["heartbeats_received"] += 1
            view = self._views.get(heartbeat.node_id)
            if view is None:
                continue  # unknown node: ignore rather than trust
            if (
                view.last_heartbeat is None
                or heartbeat.sent_s >= view.last_heartbeat.sent_s
            ):
                view.last_heartbeat = heartbeat
                view.received_s = now_s

    # -------------------------------------------------------------- expiry
    def expire(self, now_s: float) -> int:
        """Drop provably expired leases; returns how many expired."""
        if now_s < self._expiry_watermark_s:
            return 0
        expired = 0
        watermark = math.inf
        for node, leases in self._outstanding.items():
            keep = [lease for lease in leases if lease.expires_s > now_s]
            if len(keep) < len(leases):
                expired += len(leases) - len(keep)
                self._set_leases(node, keep)
            for lease in keep:
                watermark = min(watermark, lease.expires_s)
        self._expiry_watermark_s = watermark
        self.counters["expiries"] += expired
        return expired

    def _set_leases(self, node_id: int, leases: List[Lease]) -> None:
        """Replace ``node_id``'s outstanding leases and refresh its cap.

        The only writer of ``_outstanding``, so ``_caps`` always holds
        every node's pessimistic cap without a rescan of its leases, the
        granted sum is dropped when a cap changes, and the expiry
        watermark falls to the earliest new expiry.
        """
        self._outstanding[node_id] = leases
        floor = self.config.safe_floor_w
        cap = max(floor, max(lease.cap_w for lease in leases)) if leases else floor
        if cap != self._caps[node_id]:
            self._caps[node_id] = cap
            self._granted_w = None
        for lease in leases:
            # ``not >=`` so that a NaN expiry also lowers it: the scan
            # that drops such a lease must still run.
            if not lease.expires_s >= self._expiry_watermark_s:
                self._expiry_watermark_s = lease.expires_s

    def pessimistic_cap_w(self, node_id: int) -> float:
        """What ``node_id`` might believe it holds right now."""
        return self._caps[node_id]

    def granted_sum_w(self) -> float:
        """Sum of pessimistic caps — the quantity the invariant bounds.

        Summed in node order whenever a cap has changed since the last
        call, and kept until the next change: a running total would add
        the same floats in another order and round differently.
        """
        if self._granted_w is None:
            self._granted_w = ordered_sum(self._caps)
        return self._granted_w

    def headroom_w(self) -> float:
        return self.config.budget_w - self.granted_sum_w()

    # --------------------------------------------------------------- faults
    def crash(self, now_s: float, *, down_for_s: float) -> None:
        """Lose all in-memory state; the journal is the only survivor."""
        cfg = self.config
        self._views = {node: NodeView(node) for node in range(self.n_nodes)}
        for node in range(self.n_nodes):
            self._set_leases(node, [])
        self._next_seq = {node: 0 for node in range(self.n_nodes)}
        self._down_until_s = now_s + max(down_for_s, cfg.restart_delay_s)
        self.counters["crashes"] += 1

    def maybe_restart(self, now_s: float) -> bool:
        """Recover from the journal once the downtime has elapsed."""
        if self._down_until_s is None or now_s < self._down_until_s:
            return False
        cfg = self.config
        self._down_until_s = None
        # Pessimistic rebuild: every journaled, unexpired grant is assumed
        # delivered; sequence counters resume past the largest journaled so
        # nodes do not reject post-restart grants as stale replays.
        outstanding, next_seq = self.journal.recover(now_s)
        for node in range(self.n_nodes):
            self._set_leases(node, outstanding.get(node, []))
            self._next_seq[node] = next_seq.get(node, 0)
        self._quarantine_until_s = now_s + cfg.quarantine_epochs * cfg.epoch_s
        self.journal.record_restart(now_s, self._quarantine_until_s)
        self.counters["restarts"] += 1
        self.counters["quarantine_epochs"] += cfg.quarantine_epochs
        return True

    # ---------------------------------------------------------- arbitration
    def _estimate_desired_w(self, view: NodeView, now_s: float) -> Optional[float]:
        """Staleness-discounted desired cap, or ``None`` if presumed dead."""
        cfg = self.config
        if view.last_heartbeat is None:
            return None
        age = view.silence_s(now_s)
        if age > cfg.silence_limit_s:
            return None
        floor = cfg.safe_floor_w
        desired = max(view.last_heartbeat.desired_w, floor)
        excess = max(0.0, age - cfg.heartbeat_s)
        if excess == 0.0:
            # Fresh telemetry is believed verbatim — bit-exactly, so the
            # zero-fault golden run reproduces the uncoordinated fleet.
            return desired
        decay = math.exp(-excess / cfg.stale_tau_s)
        return floor + (desired - floor) * decay

    def arbitrate(self, now_s: float) -> List[Lease]:
        """One epoch of grant decisions; returns journaled leases to send."""
        cfg = self.config
        self.expire(now_s)
        if self.is_down(now_s):
            return []
        if self.in_quarantine(now_s):
            self._epoch += 1
            return []
        floor = cfg.safe_floor_w
        estimates: Dict[int, float] = {}
        for node in range(self.n_nodes):
            est = self._estimate_desired_w(self._views[node], now_s)
            if est is not None:
                estimates[node] = est
        # Fair split: floors are reserved for every node (silent nodes may
        # hold an unexpired lease or come back at any time); the surplus is
        # shared in proportion to discounted demand above the floor.
        surplus = cfg.budget_w - self.n_nodes * floor
        weights = {node: max(0.0, est - floor) for node, est in estimates.items()}
        total_weight = ordered_sum(weights.values())
        grants: List[Lease] = []
        for node in sorted(estimates):
            est = estimates[node]
            if total_weight <= surplus + _EPS or total_weight <= 0.0:
                want = est  # undersubscribed: everyone gets what they asked
            else:
                want = floor + surplus * (weights[node] / total_weight)
            # Never-exceed clamp: the headroom everyone else's pessimistic
            # caps leave behind bounds this grant, whatever demand says.
            others = self.granted_sum_w() - self.pessimistic_cap_w(node)
            available = cfg.budget_w - others
            cap = min(want, available)
            if cap < floor - _EPS:
                # Unreachable while the invariant holds (everyone's
                # pessimistic cap is at least the floor) — refuse loudly
                # rather than grant below the survivable minimum.
                raise CoordinatorError(
                    f"arbitration for node {node} at t={now_s:.2f}s left only "
                    f"{cap:.1f} W available, below the {floor:.1f} W floor"
                )
            cap = max(cap, floor)
            lease = Lease(
                node_id=node,
                cap_w=cap,
                granted_s=now_s,
                expires_s=now_s + cfg.lease_s,
                seq=self._next_seq[node],
                epoch=self._epoch,
            )
            self._next_seq[node] += 1
            # Journal before transmit: a crash between the two loses the
            # message but never the obligation.
            self.journal.record_grant(lease)
            leases = self._outstanding[node]
            self._set_leases(node, [*leases, lease])
            self.counters["renewals" if leases else "grants"] += 1
            if self.granted_sum_w() > cfg.budget_w + _EPS:
                raise CoordinatorError(
                    f"invariant violation constructed at t={now_s:.2f}s: "
                    f"granted sum {self.granted_sum_w():.1f} W exceeds budget "
                    f"{cfg.budget_w:.1f} W"
                )
            grants.append(lease)
        self._epoch += 1
        return grants
