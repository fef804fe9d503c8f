"""Coordinator timing/budget configuration.

All timing knobs are expressed in simulated cluster seconds and must be
commensurate: the control loop ticks on a :class:`~repro.sim.clock.SimClock`
of width ``tick_s``, heartbeats and arbitration epochs fire on integer
multiples of that tick, and leases last an integer number of epochs.  That
quantisation is what makes a coordinated run replay bit-for-bit — every
grant, expiry and quarantine boundary lands on an exact tick.

The one safety-critical derived quantity is the **safe floor**: the power
cap a node falls back to, *on its own clock*, when its lease expires
without renewal.  It is derived from the node preset (measured idle power
plus a small margin for minimum-uncore compute) so a partitioned node is
always survivable: the coordinator permanently reserves ``floor`` watts
per node out of the global budget, which is exactly why the sum of grants
can never exceed the budget no matter how many nodes go silent.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from repro.errors import CoordinatorError
from repro.units import require_finite

__all__ = ["CoordinatorConfig", "check_budget_w", "safe_floor_w"]

#: Margin over measured idle power reserved for minimum-uncore compute.
_FLOOR_MARGIN = 1.02

#: Fields that must be finite: the budget, the floor and the tick grid.
_FINITE_FIELDS = ("budget_w", "safe_floor_w", "tick_s", "heartbeat_s", "epoch_s", "lease_s")


def safe_floor_w(idle_node_power_w: float) -> float:
    """The preset-derived safe floor: measured idle power plus 2 %.

    A node can never draw less than its idle power, so any floor below it
    would be unenforceable; the margin keeps a floored node barely
    creeping forward at the uncore minimum instead of deadlocked at idle.
    """
    if idle_node_power_w <= 0:
        raise CoordinatorError(
            f"idle node power must be positive, got {idle_node_power_w!r}"
        )
    return idle_node_power_w * _FLOOR_MARGIN


def check_budget_w(budget_w: float) -> None:
    """Refuse a global budget that is NaN, infinite or not positive.

    Raises what :class:`CoordinatorConfig` raises for such a ``budget_w``,
    so a caller that builds the config only after a long simulation can
    check its budget first.
    """
    require_finite(
        budget_w, error=lambda _: CoordinatorError("budget_w must not be NaN"), allow_inf=True
    )
    require_finite(
        budget_w, error=lambda b: CoordinatorError(f"budget_w must be finite, got {b!r}")
    )
    if budget_w <= 0:
        raise CoordinatorError(f"budget_w must be positive, got {budget_w!r}")


@dataclass(frozen=True)
class CoordinatorConfig:
    """Timing and budget knobs of the cluster power-budget coordinator.

    Parameters
    ----------
    budget_w:
        The global power budget the sum of granted node caps must never
        exceed, on any tick, under any fault.
    safe_floor_w:
        Per-node fail-safe cap (see :func:`safe_floor_w`).  The budget
        must cover ``n_nodes * safe_floor_w`` — checked when the
        coordinator binds to a fleet.
    tick_s:
        Control-loop tick width (the coordinator's :class:`SimClock` dt).
    heartbeat_s:
        Node heartbeat period; must be an integer multiple of ``tick_s``.
    epoch_s:
        Re-arbitration period; must be an integer multiple of ``tick_s``.
    lease_s:
        Lease duration; must exceed ``epoch_s`` (a lease shorter than one
        epoch could never be renewed in time) and be an integer multiple
        of ``tick_s``.
    stale_tau_s:
        Staleness time constant: a heartbeat older than one period has its
        demand discounted by ``exp(-excess_age / stale_tau_s)`` toward the
        floor — old telemetry is progressively distrusted, never believed
        outright.
    dead_after_s:
        Heartbeat silence after which a node is presumed partitioned and
        receives no further grants (``None`` = one lease duration).
    restart_delay_s:
        Coordinator downtime after a crash before journal replay begins.
    quarantine_epochs:
        Epochs after a restart during which the recovered coordinator
        issues **no** grants — outstanding leases coast or expire to the
        floor, guaranteeing the rebuilt grant picture cannot overshoot.
    """

    budget_w: float
    safe_floor_w: float
    tick_s: float = 0.25
    heartbeat_s: float = 0.5
    epoch_s: float = 1.0
    lease_s: float = 3.0
    stale_tau_s: float = 1.0
    dead_after_s: Optional[float] = None
    restart_delay_s: float = 1.0
    quarantine_epochs: int = 2

    def __post_init__(self) -> None:
        # Every check below is a comparison, which NaN passes.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None:
                require_finite(
                    value,
                    error=lambda _, name=spec.name: CoordinatorError(f"{name} must not be NaN"),
                    allow_inf=True,
                )
        for name in _FINITE_FIELDS:
            require_finite(
                getattr(self, name),
                error=lambda value, name=name: CoordinatorError(
                    f"{name} must be finite, got {value!r}"
                ),
            )
        check_budget_w(self.budget_w)
        if self.safe_floor_w <= 0:
            raise CoordinatorError(
                f"safe_floor_w must be positive, got {self.safe_floor_w!r}"
            )
        if self.tick_s <= 0:
            raise CoordinatorError(f"tick_s must be positive, got {self.tick_s!r}")
        for name in ("heartbeat_s", "epoch_s", "lease_s"):
            value = getattr(self, name)
            if value <= 0:
                raise CoordinatorError(f"{name} must be positive, got {value!r}")
            ticks = value / self.tick_s
            if abs(ticks - round(ticks)) > 1e-9:
                raise CoordinatorError(
                    f"{name}={value!r} must be an integer multiple of "
                    f"tick_s={self.tick_s!r} (grants and expiries must land on ticks)"
                )
        if self.lease_s <= self.epoch_s:
            raise CoordinatorError(
                f"lease_s={self.lease_s!r} must exceed epoch_s={self.epoch_s!r}; "
                f"a shorter lease would expire before its first renewal"
            )
        if self.stale_tau_s <= 0:
            raise CoordinatorError(
                f"stale_tau_s must be positive, got {self.stale_tau_s!r}"
            )
        if self.dead_after_s is not None and self.dead_after_s <= 0:
            raise CoordinatorError(
                f"dead_after_s must be positive or None, got {self.dead_after_s!r}"
            )
        if self.restart_delay_s < 0:
            raise CoordinatorError(
                f"restart_delay_s must be >= 0, got {self.restart_delay_s!r}"
            )
        if self.quarantine_epochs < 0:
            raise CoordinatorError(
                f"quarantine_epochs must be >= 0, got {self.quarantine_epochs!r}"
            )

    @property
    def silence_limit_s(self) -> float:
        """Heartbeat silence after which a node gets no further grants."""
        return self.dead_after_s if self.dead_after_s is not None else self.lease_s

    def with_budget(self, budget_w: float) -> "CoordinatorConfig":
        """A copy of this config with a different global budget."""
        return replace(self, budget_w=budget_w)
