"""The control plane: message transport between nodes and the coordinator.

All heartbeat (node → coordinator) and grant (coordinator → node) traffic
flows through a :class:`ControlPlane`, which interprets the ``control``
device windows of a :class:`~repro.faults.plan.FaultPlan` — the same
seeded, windowed campaign machinery the telemetry-hub injector uses, aimed
at messages instead of registers.  With no plan (or no control specs) it
is a perfect, zero-latency network.

Faults are *silent* by construction: a dropped heartbeat is simply never
delivered, a replayed grant simply arrives again.  Nothing here raises
into the coordinator — the protocol's own fail-safes (lease expiry to the
floor, monotone sequence numbers, conservative reclamation) are the only
defence, which is exactly what the chaos campaign exists to score.

Determinism: delivery order is a total order on ``(deliver_at_s,
order_key, enqueue_seq)``; delays draw from a generator spawned via
:func:`~repro.sim.rng.derive_seed` under the plan seed; budgets are
consumed in plan order (first matching spec with budget wins, mirroring
the injector's within-kind precedence).  The same plan and seed replay the
same message history bit-for-bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.coordinator.lease import Lease
from repro.errors import CoordinatorError
from repro.faults.plan import CONTROL_DEVICE, FaultPlan, FaultSpec
from repro.sim.rng import derive_seed, spawn_generator
from repro.units import require_finite

__all__ = ["Heartbeat", "ControlPlane"]


def _carries_nan(sent_s: float, demand_w: float, desired_w: float) -> CoordinatorError:
    return CoordinatorError(
        f"heartbeat must not carry NaN, got sent_s={sent_s!r} "
        f"demand={demand_w!r} desired={desired_w!r}"
    )


@dataclass(frozen=True)
class Heartbeat:
    """One node → coordinator telemetry report.

    ``demand_w`` is the node's instantaneous power draw; ``desired_w`` is
    the cap it wants going forward (its remaining profiled peak), which the
    coordinator discounts by staleness before arbitrating.
    """

    node_id: int
    sent_s: float
    demand_w: float
    desired_w: float

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise CoordinatorError(f"node_id must be >= 0, got {self.node_id!r}")
        require_finite(
            self.sent_s, self.demand_w, self.desired_w, error=_carries_nan, allow_inf=True
        )
        if self.demand_w < 0 or self.desired_w < 0:
            raise CoordinatorError(
                f"heartbeat power must be >= 0, got demand={self.demand_w!r} "
                f"desired={self.desired_w!r}"
            )


class ControlPlane:
    """Seeded-faulty transport for heartbeats and grants.

    Parameters
    ----------
    plan:
        Fault campaign; only its ``control``-device specs matter here.
    heartbeat_s:
        Node heartbeat period — the unit for ``heartbeat_delay`` lateness.
    tick_s:
        Control-loop tick — the hold time for ``heartbeat_reorder``.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan],
        *,
        heartbeat_s: float,
        tick_s: float,
    ) -> None:
        if heartbeat_s <= 0 or tick_s <= 0:
            raise CoordinatorError(
                f"heartbeat_s and tick_s must be positive, got "
                f"{heartbeat_s!r} and {tick_s!r}"
            )
        self._heartbeat_s = heartbeat_s
        self._tick_s = tick_s
        self._specs: Tuple[FaultSpec, ...] = tuple(
            spec for spec in (plan or ()) if spec.device == CONTROL_DEVICE
        )
        self._remaining: Dict[int, Optional[int]] = {
            idx: spec.count for idx, spec in enumerate(self._specs)
        }
        #: Kind -> its ``(plan index, spec)`` pairs, in plan order.
        self._by_kind: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        for idx, spec in enumerate(self._specs):
            self._by_kind.setdefault(spec.kind, []).append((idx, spec))
        seed = plan.seed if plan is not None and plan.seed is not None else 0
        self._rng = spawn_generator(derive_seed(seed, "coordinator.chaos"))
        # Priority queues of (deliver_at_s, order_key, enqueue_seq, message).
        self._up: List[Tuple[float, int, int, Heartbeat]] = []
        self._down: List[Tuple[float, int, int, Lease]] = []
        self._enqueue_seq = 0
        # Grants that actually reached a node, oldest first — the material
        # a ``grant_replay`` fault re-sends.
        self._delivered_grants: Dict[int, List[Lease]] = {}
        self.counters: Dict[str, int] = {
            "heartbeats_sent": 0,
            "heartbeats_dropped": 0,
            "heartbeats_delayed": 0,
            "heartbeats_reordered": 0,
            "grants_sent": 0,
            "grants_dropped": 0,
            "grants_replayed": 0,
        }

    # ------------------------------------------------------------- matching
    def _consume(self, kind: str, now_s: float, node_id: Optional[int]) -> bool:
        """Find the first in-window ``kind`` spec with budget and charge it."""
        for idx, spec in self._by_kind.get(kind, ()):
            if not (spec.start_s <= now_s < spec.end_s):
                continue
            if (
                node_id is not None
                and spec.target is not None
                and spec.target != node_id
            ):
                continue
            remaining = self._remaining[idx]
            if remaining is None:
                return True
            if remaining > 0:
                self._remaining[idx] = remaining - 1
                return True
        return False

    def _match_spec(self, kind: str, now_s: float) -> Optional[Tuple[int, FaultSpec]]:
        for idx, spec in self._by_kind.get(kind, ()):
            if not (spec.start_s <= now_s < spec.end_s):
                continue
            remaining = self._remaining[idx]
            if remaining is None or remaining > 0:
                return idx, spec
        return None

    # --------------------------------------------------------------- uplink
    def send_heartbeat(self, heartbeat: Heartbeat, now_s: float) -> None:
        """Submit a node heartbeat; faults may drop, delay or reorder it."""
        self.counters["heartbeats_sent"] += 1
        node = heartbeat.node_id
        if self._consume("partition_uplink", now_s, node) or self._consume(
            "heartbeat_drop", now_s, node
        ):
            self.counters["heartbeats_dropped"] += 1
            return
        deliver_at = now_s
        order_key = node
        if self._consume("heartbeat_delay", now_s, node):
            # Late by a whole number of heartbeat periods, seeded: the
            # coordinator sees plausible-but-stale telemetry, not noise.
            deliver_at = now_s + self._heartbeat_s * int(self._rng.integers(1, 4))
            self.counters["heartbeats_delayed"] += 1
        elif self._consume("heartbeat_reorder", now_s, node):
            # Held one tick and released in inverted node order.
            deliver_at = now_s + self._tick_s
            order_key = -node
            self.counters["heartbeats_reordered"] += 1
        heapq.heappush(
            self._up, (deliver_at, order_key, self._enqueue_seq, heartbeat)
        )
        self._enqueue_seq += 1

    def deliver_heartbeats(self, now_s: float) -> List[Heartbeat]:
        """Heartbeats whose delivery time has arrived, in delivery order."""
        out: List[Heartbeat] = []
        while self._up and self._up[0][0] <= now_s:
            out.append(heapq.heappop(self._up)[3])
        return out

    # ------------------------------------------------------------- downlink
    def send_grant(self, lease: Lease, now_s: float) -> None:
        """Transmit a grant; a downlink partition silently eats it."""
        self.counters["grants_sent"] += 1
        if self._consume("partition_downlink", now_s, lease.node_id):
            self.counters["grants_dropped"] += 1
            return
        heapq.heappush(
            self._down, (now_s, lease.node_id, self._enqueue_seq, lease)
        )
        self._enqueue_seq += 1

    def deliver_grants(self, now_s: float) -> List[Lease]:
        """Grants whose delivery time has arrived, plus any fault replays."""
        out: List[Lease] = []
        while self._down and self._down[0][0] <= now_s:
            out.append(heapq.heappop(self._down)[3])
        for lease in out:
            self._delivered_grants.setdefault(lease.node_id, []).append(lease)
        out.extend(self._replays(now_s))
        return out

    def _replays(self, now_s: float) -> List[Lease]:
        """Stale-grant replays due this tick (at most one per spec per tick)."""
        replayed: List[Lease] = []
        match = self._match_spec("grant_replay", now_s)
        if match is None:
            return replayed
        idx, spec = match
        targets = (
            [spec.target]
            if spec.target is not None
            else sorted(self._delivered_grants)
        )
        for node in targets:
            history = self._delivered_grants.get(node, [])
            if not history:
                continue
            remaining = self._remaining[idx]
            if remaining is not None:
                if remaining <= 0:
                    break
                self._remaining[idx] = remaining - 1
            # Replay the *oldest* delivered grant — maximally stale, so a
            # correct node must reject it by sequence number.
            replayed.append(history[0])
            self.counters["grants_replayed"] += 1
        return replayed

    # ---------------------------------------------------------------- crash
    def crash_due(self, now_s: float) -> Optional[FaultSpec]:
        """Consume a due ``coordinator_crash`` window, if any.

        Returns the spec once, at the first tick inside its window with
        budget left; the fleet loop owns the actual crash/restart dance.
        """
        match = self._match_spec("coordinator_crash", now_s)
        if match is None:
            return None
        idx, spec = match
        remaining = self._remaining[idx]
        if remaining is not None:
            self._remaining[idx] = remaining - 1
        return spec

    # ------------------------------------------------------------ reporting
    def partition_windows(self) -> Tuple[FaultSpec, ...]:
        """The partition specs, for the scorer's reconvergence accounting."""
        return tuple(
            spec
            for spec in self._specs
            if spec.kind in ("partition_uplink", "partition_downlink")
        )
