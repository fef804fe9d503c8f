"""The governor interface shared by MAGUS and every baseline.

A governor is a *policy object*: the :class:`~repro.runtime.daemon.MonitorDaemon`
wakes it on its chosen schedule, hands it a metered view of the telemetry
hub, and executes whatever uncore target it returns.  All cost accounting
(invocation time, monitoring energy) happens in the daemon from the meter —
a governor cannot cheat its own overhead.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro.errors import GovernorError
from repro.guard.core import TelemetryGuard
from repro.guard.view import RawTelemetryView
from repro.hw.node import HeterogeneousNode
from repro.obs.spans import SpanTracer
from repro.sim.observers import TickObserver
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sampling import AccessMeter

__all__ = ["Decision", "GovernorContext", "UncoreGovernor"]


@dataclass(frozen=True)
class Decision:
    """One decision-cycle outcome.

    Attributes
    ----------
    time_s:
        Simulated time of the decision.
    target_ghz:
        New uncore target to program, or ``None`` to leave it unchanged.
    reason:
        Short machine-greppable tag ("init", "trend_up", "high_freq",
        "tdp_cap", "step_down", ...), used by the case-study analyses.
    """

    time_s: float
    target_ghz: Optional[float]
    reason: str = ""


@dataclass
class GovernorContext:
    """Everything a governor may touch, bound once at attach time."""

    hub: TelemetryHub
    node: HeterogeneousNode
    #: The run's span tracer, or ``None``. Purely observational — a policy
    #: may add spans to it but must never branch on it.
    tracer: Optional[SpanTracer] = None

    @property
    def uncore_min_ghz(self) -> float:
        """Hardware uncore floor."""
        return self.node.uncore_min_ghz

    @property
    def uncore_max_ghz(self) -> float:
        """Hardware uncore ceiling."""
        return self.node.uncore_max_ghz

    @property
    def telemetry(self) -> Union[TelemetryGuard, RawTelemetryView]:
        """The governor's sanctioned telemetry read surface.

        Resolves to the hub's installed :class:`TelemetryGuard` when one
        exists, else a zero-state raw pass-through with the same method
        surface.  Policies must read counters through this property rather
        than grabbing ``hub.pcm``/``hub.msr``/``hub.rapl`` handles (lint
        rule RL007 enforces it) — that is the trust boundary that lets the
        guard quarantine corrupt samples before they reach policy logic.
        """
        guard = self.hub.guard
        return guard if guard is not None else RawTelemetryView(self.hub)


class UncoreGovernor(abc.ABC):
    """Abstract uncore-scaling policy.

    Lifecycle: ``attach(context)`` once, then ``sample_and_decide(now,
    meter)`` every cycle. The daemon separately asks for
    :attr:`initial_uncore_ghz` (the state the governor establishes when it
    takes over the node) and :attr:`interval_s` (sleep between the end of
    one invocation and the start of the next).
    """

    #: Human-readable policy name, used in reports.
    name: str = "governor"

    #: True for behaviour implemented in hardware/firmware (the vendor
    #: default): the daemon then charges no monitoring time or energy.
    hardware: bool = False

    #: Delay between daemon launch and the first invocation, modelling the
    #: time a user-space runtime needs to detect the application and come
    #: up. Hardware policies are active from t=0.
    launch_delay_s: float = 0.0

    def __init__(self) -> None:
        self._context: Optional[GovernorContext] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, context: GovernorContext) -> None:
        """Bind the governor to a node's telemetry. Called exactly once."""
        if self._context is not None:
            raise GovernorError(f"governor {self.name!r} is already attached")
        self._context = context
        self.on_attach(context)

    def on_attach(self, context: GovernorContext) -> None:
        """Subclass hook for post-attach initialisation (optional)."""

    def on_rearm(self) -> None:
        """Hook called by a supervising runtime before re-arming this policy.

        After a fail-safe transition (the governor crashed or its telemetry
        stayed down through every retry), the supervisor pins the uncore at
        the vendor-default ceiling and, after a cooldown, gives the policy
        another chance.  Policies holding measurement state that spans the
        outage (reference counters, windowed averages) should reset it
        here; the default is a no-op.  ``sample_and_decide`` must also obey
        the *retry contract*: read all telemetry before mutating internal
        state, so an access that fails mid-cycle can be retried without the
        policy double-counting its own observations.
        """

    @property
    def context(self) -> GovernorContext:
        """The bound context.

        Raises
        ------
        GovernorError
            If the governor has not been attached yet.
        """
        if self._context is None:
            raise GovernorError(f"governor {self.name!r} is not attached to a node")
        return self._context

    # ------------------------------------------------------------------
    # Engine composition
    # ------------------------------------------------------------------
    def observers(self) -> Sequence[TickObserver]:
        """Tick observers this policy contributes to the engine (optional).

        A governor that wants per-tick visibility — recording an internal
        signal as a trace channel, or capturing extra hardware state the
        standard stack does not (the way UPS's per-core sweep once had to
        be special-cased inside the engine) — returns the observers here;
        the session/batch runners splice them into the engine's stack
        *before* the runtime-firing stage. Purely observational: decision
        logic must stay in :meth:`sample_and_decide`, where every counter
        access is metered.
        """
        return ()

    def decision_attributes(self) -> Dict[str, object]:
        """Attribution attributes for the decision just made (optional).

        Called by the daemon *after* a successful ``sample_and_decide``
        when span tracing is enabled, and attached to the cycle span —
        MAGUS reports its trend derivative and high-frequency ratio here.
        Must be a pure read of policy state: no telemetry access (nothing
        to meter), no mutation.
        """
        return {}

    # ------------------------------------------------------------------
    # Policy surface
    # ------------------------------------------------------------------
    @property
    @abc.abstractmethod
    def interval_s(self) -> float:
        """Sleep between invocations (monitoring period)."""

    @property
    @abc.abstractmethod
    def initial_uncore_ghz(self) -> float:
        """Uncore frequency the governor establishes at launch."""

    @abc.abstractmethod
    def sample_and_decide(self, now_s: float, meter: AccessMeter) -> Decision:
        """Read whatever telemetry the policy needs and decide.

        Implementations must route *every* counter access through
        ``meter`` — that is the contract that makes overhead comparisons
        honest.
        """
