"""MonitorDaemon: the scheduling + accounting shell around a governor.

The daemon owns everything a policy should not be trusted with:

* **Scheduling.** The next invocation fires ``invocation_time +
  governor.interval_s`` after the current one begins — exactly the paper's
  cadence (§6.5: MAGUS's 0.1 s invocation + 0.2 s sleep = 0.3 s decision
  period; UPS's 0.3 s + 0.2 s = 0.5 s).
* **Cost accounting.** Every counter access a governor makes is charged to
  a per-cycle :class:`~repro.telemetry.sampling.AccessMeter`; the meter's
  time total *is* the invocation time, and its energy total, amortised
  over the cycle, becomes the node's monitoring power — the quantity
  Table 2 reports as power overhead.
* **Actuation.** A returned target is programmed through the MSR device
  (the write is metered too, though near-free).
* **Launch semantics.** Software runtimes come up ``launch_delay_s`` after
  the application starts and only then establish their initial uncore
  frequency; until that moment the node sits in its idle state (min
  uncore, per §4). Hardware policies are active from t=0.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.errors import GovernorError
from repro.governors.base import Decision, GovernorContext, UncoreGovernor
from repro.hw.node import HeterogeneousNode
from repro.obs.spans import SpanTracer
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sampling import AccessMeter
from repro.units import ordered_sum

__all__ = ["Cycle", "MonitorDaemon"]


class Cycle(NamedTuple):
    """The record of one completed decision cycle."""

    #: Simulated time the cycle completed (start plus the meter's time).
    time_s: float
    decision: Decision
    #: Invocation time charged to the cycle; ``None`` for firmware policies.
    invocation_s: Optional[float]
    #: Telemetry energy of the attempt that completed the cycle, joules.
    energy_j: float
    #: Cumulative modelled switch latency charged so far, seconds.
    latency_s: float
    #: Monitoring power the node carries until the next decision, watts.
    monitor_power_w: float


class MonitorDaemon:
    """Drives one governor against one node (implements ScheduledRuntime).

    Parameters
    ----------
    governor:
        The policy to run. Must be freshly constructed (attach-once).
    hub:
        The node's telemetry.
    node:
        The node itself.
    app_present:
        True for application runs (the governor establishes its initial
        uncore frequency at launch); False for the idle overhead runs of
        Table 2, where no application ever arrives and the node stays in
        its idle state while monitoring continues.
    tracer:
        Span tracer of the run, or ``None``. With a tracer, every cycle
        emits a ``daemon.cycle`` span carrying the governor's
        decision-attribution attributes.
    """

    def __init__(
        self,
        governor: UncoreGovernor,
        hub: TelemetryHub,
        node: HeterogeneousNode,
        *,
        app_present: bool = True,
        tracer: Optional[SpanTracer] = None,
    ):
        self.tracer = tracer
        governor.attach(GovernorContext(hub=hub, node=node, tracer=tracer))
        self.governor = governor
        self.hub = hub
        self.node = node
        self.app_present = app_present
        self._next_fire_s = float("inf")
        self._initialised = False
        # A decision sampled but not yet actuated: a retried invocation
        # resumes at the actuation step instead of re-running the policy
        # (which would double-count its observations).
        self._pending_decision: Optional[Decision] = None
        #: One record per completed cycle, in order.
        self.cycles: List[Cycle] = []
        #: Meter accesses per kind, summed over the attempts that completed
        #: a cycle (a retried cycle's failed attempts are not counted).
        self.access_counts: Dict[str, int] = {}
        #: Attempts that raised instead of completing their cycle.
        self.failed_cycles = 0
        #: Total monitoring energy charged, joules.
        self.monitor_energy_j = 0.0

    @property
    def decisions(self) -> List[Decision]:
        """Every decision the governor made, in order."""
        return [c.decision for c in self.cycles]

    @property
    def invocation_times_s(self) -> List[float]:
        """Per-cycle invocation times (meter time totals), for Table 2."""
        return [c.invocation_s for c in self.cycles if c.invocation_s is not None]

    # ------------------------------------------------------------------
    # Engine composition
    # ------------------------------------------------------------------
    @property
    def observers(self):
        """Tick observers contributed by the wrapped governor.

        The session/batch runners splice these into the engine's observer
        stack ahead of the runtime-firing stage, so a policy's recorded
        channels are complete by the time it is invoked.
        """
        return tuple(self.governor.observers())

    # ------------------------------------------------------------------
    # ScheduledRuntime protocol
    # ------------------------------------------------------------------
    def start(self, now_s: float) -> None:
        """Begin the daemon's schedule at simulated time ``now_s``."""
        gov = self.governor
        if gov.hardware:
            # Firmware behaviour exists from power-on: establish the
            # initial state immediately and poll on the policy's interval.
            if self.app_present:
                self.node.force_uncore_all(gov.initial_uncore_ghz)
            self._initialised = True
            interval = gov.interval_s
            self._next_fire_s = now_s + (interval if interval != float("inf") else float("inf"))
        else:
            if not self.app_present:
                # Idle overhead run: there is no application arrival, so the
                # runtime never establishes its initial uncore state — it
                # just monitors (the Table 2 procedure).
                self._initialised = True
            self._next_fire_s = now_s + max(gov.launch_delay_s, 1e-9)

    def next_fire_s(self) -> float:
        """Simulated time of the next invocation."""
        return self._next_fire_s

    def invoke(self, now_s: float, meter: Optional[AccessMeter] = None) -> None:
        """One monitoring/decision cycle.

        Parameters
        ----------
        now_s:
            Simulated time of the invocation.
        meter:
            Meter to charge the cycle to. A supervisor retrying a failed
            cycle passes the *same* meter across attempts so the failed
            accesses (and any backoff it charged) land in the successful
            cycle's invocation time and monitoring energy — Table 2 stays
            honest under faults. Omitted, a fresh meter is used (the
            fault-free path, bit-identical to the pre-supervision daemon).

        Raises
        ------
        Exception
            Whatever the telemetry or the governor raised. On any failure
            the partially-run cycle is *not* accounted: no invocation time
            is recorded, the schedule does not advance, and the node's
            monitoring power is reset to zero rather than left stale from
            the prior cycle (it will be re-established by a successful
            retry, or by :meth:`abandon_cycle` when the supervisor gives
            up).
        """
        gov = self.governor
        meter = meter if meter is not None else AccessMeter()
        tracer = self.tracer
        # Meter baselines: a supervisor-shared meter accumulates across
        # attempts, so this cycle's own cost is a delta, not a total.
        meter_energy_base = meter.energy_j
        counts_base = dict(meter.counts)
        cycle_id: Optional[int] = None
        if tracer is not None:
            cycle_id = tracer.begin(
                "daemon.cycle", now_s + meter.time_s, category="cycle", governor=gov.name
            )

        try:
            if not self._initialised:
                # Software runtime launch: program the governor's initial
                # uncore frequency through the normal MSR path.
                self.hub.set_uncore_max_ghz(gov.initial_uncore_ghz, meter)
                self._initialised = True

            if self._pending_decision is None:
                self._pending_decision = gov.sample_and_decide(now_s, meter)
            decision = self._pending_decision
            if decision.target_ghz is not None:
                actuate_id: Optional[int] = None
                latency_base_s = 0.0
                if tracer is not None:
                    latency_base_s = self.hub.backend.latency_charged_s
                    actuate_id = tracer.begin(
                        "daemon.actuate", now_s + meter.time_s, category="actuate"
                    )
                self.hub.set_uncore_max_ghz(decision.target_ghz, meter)
                if tracer is not None and actuate_id is not None:
                    tracer.end(
                        actuate_id,
                        now_s + meter.time_s,
                        target_ghz=decision.target_ghz,
                        latency_s=self.hub.backend.latency_charged_s - latency_base_s,
                    )
            self._pending_decision = None
        except BaseException:
            if not gov.hardware:
                # Never leave the prior cycle's monitoring power on the
                # node: the runtime is (for now) not monitoring.
                self.node.monitor_power_w = 0.0
            if tracer is not None and cycle_id is not None:
                tracer.abort(cycle_id, now_s + meter.time_s)
            self.failed_cycles += 1
            raise

        if gov.hardware:
            # Firmware: no software cost.
            invocation_s = 0.0
            cycle_s = gov.interval_s
            self.node.monitor_power_w = 0.0
        else:
            invocation_s = meter.time_s
            cycle_s = invocation_s + gov.interval_s
            if cycle_s <= 0:
                raise GovernorError(
                    f"governor {gov.name!r} produced a non-positive cycle ({cycle_s!r}s)"
                )
            self.monitor_energy_j += meter.energy_j
            # The cycle's measurement energy, spread over the cycle, is the
            # monitoring power the node carries until the next decision.
            self.node.monitor_power_w = meter.energy_j / cycle_s

        if cycle_s == float("inf"):
            self._next_fire_s = float("inf")
        else:
            self._next_fire_s = now_s + cycle_s

        cycle_energy_j = meter.energy_j - meter_energy_base
        for kind, n in meter.counts.items():
            delta = n - counts_base.get(kind, 0)
            if delta > 0:
                self.access_counts[kind] = self.access_counts.get(kind, 0) + delta
        self.cycles.append(
            Cycle(
                now_s + meter.time_s,
                decision,
                None if gov.hardware else invocation_s,
                cycle_energy_j,
                self.hub.backend.latency_charged_s,
                self.node.monitor_power_w,
            )
        )
        if tracer is not None and cycle_id is not None:
            attrs: Dict[str, object] = {
                "reason": decision.reason,
                "target_ghz": decision.target_ghz,
                "invocation_s": invocation_s,
                "energy_j": cycle_energy_j,
            }
            attrs.update(gov.decision_attributes())
            tracer.end(cycle_id, now_s + meter.time_s, **attrs)

    def abandon_cycle(self, meter: AccessMeter) -> None:
        """Close the books on a cycle that will never complete.

        Called by a supervisor after retries are exhausted: the energy the
        failed attempts burned is still real and is folded into the
        monitoring total, but no invocation time is recorded (the cycle
        produced no decision), the node's monitoring power is zeroed, and
        any half-made decision is discarded so a later re-arm starts a
        fresh cycle.  The schedule is intentionally *not* advanced — the
        supervisor owns recovery timing.
        """
        if not self.governor.hardware:
            self.monitor_energy_j += meter.energy_j
            self.node.monitor_power_w = 0.0
        self._pending_decision = None

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def mean_invocation_s(self) -> Optional[float]:
        """Mean invocation time across cycles (None before any cycle)."""
        times = self.invocation_times_s
        if not times:
            return None
        return ordered_sum(times) / len(times)

    @property
    def decision_period_s(self) -> Optional[float]:
        """Mean time between decision starts (invocation + sleep)."""
        mean_inv = self.mean_invocation_s
        if mean_inv is None:
            return None
        return mean_inv + self.governor.interval_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MonitorDaemon({self.governor.name!r}, cycles={len(self.cycles)})"
