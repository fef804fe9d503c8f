"""Leases, node-local lease state, and effective-cap schedules.

A :class:`Lease` is the coordinator's only promise to a node: *you may
draw up to ``cap_w`` until ``expires_s``*.  Safety comes from what happens
when the promise runs out — nothing.  The node's own clock expires the
lease and reverts its power cap to the safe floor without any message from
the coordinator, so a partitioned node fails *closed*: it sheds load
rather than holding a cap whose budget share may have been re-granted.

:class:`NodeLeaseState` is the node-side half of the protocol.  It accepts
grants only with strictly increasing sequence numbers (a replayed or
delayed stale grant is rejected — once cap ``seq=7`` has been applied, a
late-arriving ``seq=5`` must not resurrect an old, larger cap) and renders
the resulting effective cap as a step function of time.

:class:`CapSchedule` is that step function, reused by
:class:`~repro.governors.leased.LeasedPowerCapGovernor` to route the
coordinator's grants into the per-node governor stack.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import CoordinatorError
from repro.units import require_finite

__all__ = ["Lease", "NodeLeaseState", "CapSchedule"]


def _carries_nan(cap_w: float, granted_s: float, expires_s: float) -> CoordinatorError:
    return CoordinatorError(
        f"lease must not carry NaN, got cap_w={cap_w!r} "
        f"granted_s={granted_s!r} expires_s={expires_s!r}"
    )


@dataclass(frozen=True)
class Lease:
    """One granted power cap with an expiry on the simulated clock."""

    node_id: int
    cap_w: float
    granted_s: float
    expires_s: float
    seq: int
    epoch: int

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise CoordinatorError(f"node_id must be >= 0, got {self.node_id!r}")
        require_finite(
            self.cap_w, self.granted_s, self.expires_s, error=_carries_nan, allow_inf=True
        )
        if self.cap_w <= 0:
            raise CoordinatorError(f"lease cap_w must be positive, got {self.cap_w!r}")
        if self.expires_s <= self.granted_s:
            raise CoordinatorError(
                f"lease must expire after its grant: granted_s={self.granted_s!r}, "
                f"expires_s={self.expires_s!r}"
            )
        if self.seq < 0:
            raise CoordinatorError(f"lease seq must be >= 0, got {self.seq!r}")

    def active_at(self, time_s: float) -> bool:
        """Whether the lease covers ``time_s`` (half-open ``[granted, expires)``)."""
        return self.granted_s <= time_s < self.expires_s

    def to_dict(self) -> Dict[str, object]:
        return {
            "node_id": self.node_id,
            "cap_w": self.cap_w,
            "granted_s": self.granted_s,
            "expires_s": self.expires_s,
            "seq": self.seq,
            "epoch": self.epoch,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Lease":
        try:
            return cls(
                node_id=int(payload["node_id"]),  # type: ignore[arg-type]
                cap_w=float(payload["cap_w"]),  # type: ignore[arg-type]
                granted_s=float(payload["granted_s"]),  # type: ignore[arg-type]
                expires_s=float(payload["expires_s"]),  # type: ignore[arg-type]
                seq=int(payload["seq"]),  # type: ignore[arg-type]
                epoch=int(payload["epoch"]),  # type: ignore[arg-type]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CoordinatorError(f"malformed lease record: {payload!r}") from exc


class CapSchedule:
    """An immutable step function ``time -> cap_w`` built from breakpoints.

    The schedule holds at ``floor_w`` before the first breakpoint and at
    the last breakpoint's value afterwards.  Lookup is ``O(log n)`` so the
    per-node governor can query it every decision interval.
    """

    def __init__(self, floor_w: float, steps: List[Tuple[float, float]]) -> None:
        if floor_w <= 0:
            raise CoordinatorError(f"floor_w must be positive, got {floor_w!r}")
        self.floor_w = floor_w
        times: List[float] = []
        caps: List[float] = []
        for time_s, cap_w in steps:
            if times and time_s < times[-1]:
                raise CoordinatorError(
                    f"cap schedule breakpoints must be non-decreasing in time: "
                    f"{time_s!r} after {times[-1]!r}"
                )
            if cap_w <= 0:
                raise CoordinatorError(
                    f"cap schedule caps must be positive, got {cap_w!r}"
                )
            if times and time_s == times[-1]:
                caps[-1] = cap_w  # later write at the same instant wins
            else:
                times.append(time_s)
                caps.append(cap_w)
        self._times = times
        self._caps = caps

    @classmethod
    def constant(cls, cap_w: float) -> "CapSchedule":
        """A schedule pinned at ``cap_w`` for all time."""
        return cls(floor_w=cap_w, steps=[])

    def cap_at(self, time_s: float) -> float:
        idx = bisect_right(self._times, time_s)
        if idx == 0:
            return self.floor_w
        return self._caps[idx - 1]

    def breakpoints(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(zip(self._times, self._caps))

    def __repr__(self) -> str:
        return (
            f"CapSchedule(floor_w={self.floor_w!r}, "
            f"steps={list(zip(self._times, self._caps))!r})"
        )


class NodeLeaseState:
    """Node-side lease book-keeping: replay rejection and floor reversion.

    The node applies a grant only if its sequence number is strictly
    greater than any already applied (``seq``-monotone).  Its effective cap
    at any instant is the latest applied lease's cap while that lease is
    active, else the safe floor — evaluated against the node's *own* clock
    so expiry needs no coordinator traffic.  A lease takes effect when it
    is *delivered*, not when it was granted: a delayed grant cannot
    retroactively raise the cap over the interval it spent in flight.
    """

    def __init__(self, node_id: int, floor_w: float) -> None:
        if floor_w <= 0:
            raise CoordinatorError(f"floor_w must be positive, got {floor_w!r}")
        self.node_id = node_id
        self.floor_w = floor_w
        self.max_seq = -1
        self.current: Optional[Lease] = None
        self.applied: List[Tuple[float, Lease]] = []
        self.rejected_replays = 0

    def apply_grant(self, lease: Lease, now_s: float) -> bool:
        """Apply ``lease`` if fresh; return whether it was accepted.

        Rejects grants addressed to a different node (a routing bug, so it
        raises), already-superseded sequence numbers (stale replay —
        counted and ignored), and grants that are already expired on
        arrival (nothing to apply; the floor already governs).
        """
        if lease.node_id != self.node_id:
            raise CoordinatorError(
                f"grant for node {lease.node_id} delivered to node {self.node_id}"
            )
        if lease.seq <= self.max_seq:
            self.rejected_replays += 1
            return False
        self.max_seq = lease.seq
        if lease.expires_s <= now_s:
            return False
        self.current = lease
        self.applied.append((now_s, lease))
        return True

    def effective_cap_w(self, time_s: float) -> float:
        if self.current is not None and time_s < self.current.expires_s:
            return self.current.cap_w
        return self.floor_w

    def at_floor(self, time_s: float) -> bool:
        return self.effective_cap_w(time_s) <= self.floor_w

    def schedule(self, end_s: float) -> CapSchedule:
        """Render every applied lease into one effective-cap step function.

        Each applied lease raises the cap from its delivery instant and
        drops it back to the floor at expiry, unless a later lease was
        delivered first.  The result is exactly what the node's power cap
        did over ``[0, end_s)``.
        """
        steps: List[Tuple[float, float]] = []
        for idx, (applied_s, lease) in enumerate(self.applied):
            until = lease.expires_s
            superseded_at = None
            if idx + 1 < len(self.applied):
                superseded_at = self.applied[idx + 1][0]
                until = min(until, superseded_at)
            if until <= applied_s or applied_s >= end_s:
                continue
            steps.append((applied_s, lease.cap_w))
            # Step back to the floor only at a true expiry; a supersession
            # is overwritten by the next lease's own breakpoint.
            if until < end_s and (superseded_at is None or until < superseded_at):
                steps.append((until, self.floor_w))
        return CapSchedule(self.floor_w, steps)
