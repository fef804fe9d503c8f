"""SupervisedDaemon: crash-proof execution of a governor's monitor loop.

The paper's runtimes are meant to run unattended on shared nodes (§6);
in that setting a governor that dies with the uncore pinned low throttles
every later application, and one that dies at max wastes the power MAGUS
exists to recover.  :class:`SupervisedDaemon` wraps a
:class:`~repro.runtime.daemon.MonitorDaemon` with the containment layer a
production deployment needs:

* **Bounded retry with backoff.** Transient telemetry errors (the kind a
  fault campaign injects: unreadable MSRs, dropped PCM aggregations, RAPL
  read failures) are retried up to ``max_retries`` times with exponential
  backoff.  Failed attempts and backoff sleeps are charged to the *same*
  per-cycle meter the successful attempt completes, so the cycle's
  invocation time and monitoring energy include the cost of recovery —
  Table 2 accounting stays honest under faults.
* **Exception containment + fail-safe actuation.** A governor that raises
  anything non-transient (or exhausts its retries) is contained: the
  supervisor pins every socket's uncore at the vendor-default ceiling (the
  stock firmware state — the application keeps full memory bandwidth, at
  the baseline's power cost), marks the node degraded, and optionally
  re-arms the governor after a cooldown.
* **Missed-deadline watchdog.** Cycles whose invocation time exceeds
  ``deadline_factor ×`` the governor's interval are logged and counted —
  the runtime is still up, but it is eating into application time.
* **Structured incident log.** Every retry, containment, fail-safe
  transition, re-arm and missed deadline is appended to the shared
  :class:`~repro.faults.incidents.IncidentLog`, keyed to the injected
  fault ids where known.  The log is bit-reproducible from the campaign
  seed.

On the fault-free path the supervisor is a strict pass-through: the same
calls reach the daemon with the same arguments, so golden traces stay
bit-identical and reported overheads are unchanged (guarded by tests).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Optional, Tuple

from repro.errors import SupervisionError, TelemetryError
from repro.faults.incidents import Incident, IncidentLog
from repro.runtime.daemon import MonitorDaemon
from repro.sim.observers import DegradedStateObserver, TickObserver
from repro.telemetry.sampling import AccessMeter
from repro.units import require_finite

__all__ = ["SupervisorConfig", "SupervisedDaemon"]


@dataclass(frozen=True)
class SupervisorConfig:
    """Tunables of the supervision layer.

    Attributes
    ----------
    max_retries:
        Transient-telemetry retries per cycle before failing safe.
    backoff_base_s:
        Simulated sleep before the first retry; charged to the cycle's
        meter as ``retry_backoff`` time.
    backoff_factor:
        Multiplier applied to the backoff after each failed attempt.
    rearm_cooldown_s:
        Delay between a fail-safe transition and the next re-arm attempt;
        ``None`` disables re-arming (the node stays degraded for the rest
        of the run).
    max_rearms:
        Re-arm attempts before giving up for good (``None`` = unlimited).
    deadline_factor:
        Watchdog threshold: an invocation longer than ``deadline_factor ×
        interval_s`` is logged as a missed deadline (detection only; the
        cycle's decision still applies).
    """

    max_retries: int = 3
    backoff_base_s: float = 0.005
    backoff_factor: float = 2.0
    rearm_cooldown_s: Optional[float] = 5.0
    max_rearms: Optional[int] = None
    deadline_factor: float = 3.0

    def __post_init__(self) -> None:
        # Every range check below is a comparison, which NaN passes.
        for spec in fields(self):
            value = getattr(self, spec.name)
            if value is not None:
                require_finite(
                    value,
                    error=lambda _, name=spec.name: SupervisionError(f"{name} must not be NaN"),
                    allow_inf=True,
                )
        if self.max_retries < 0:
            raise SupervisionError(f"max_retries must be >= 0, got {self.max_retries!r}")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise SupervisionError(
                f"need backoff_base_s >= 0 and backoff_factor >= 1, got "
                f"{self.backoff_base_s!r}/{self.backoff_factor!r}"
            )
        if self.rearm_cooldown_s is not None and self.rearm_cooldown_s <= 0:
            raise SupervisionError(
                f"rearm_cooldown_s must be positive or None, got {self.rearm_cooldown_s!r}"
            )
        if self.max_rearms is not None and self.max_rearms < 1:
            raise SupervisionError(f"max_rearms must be >= 1 or None, got {self.max_rearms!r}")
        if self.deadline_factor <= 0:
            raise SupervisionError(
                f"deadline_factor must be positive, got {self.deadline_factor!r}"
            )


class SupervisedDaemon:
    """Wraps a :class:`MonitorDaemon` with retry, containment and fail-safe
    (implements the same ``ScheduledRuntime`` protocol).

    Parameters
    ----------
    daemon:
        The daemon to supervise (freshly constructed, like its governor).
    config:
        Supervision tunables.
    log:
        Incident log; share one with a :class:`~repro.faults.injector.
        FaultInjector` to correlate responses with injections.
    """

    def __init__(
        self,
        daemon: MonitorDaemon,
        config: SupervisorConfig = SupervisorConfig(),
        log: Optional[IncidentLog] = None,
    ):
        self.daemon = daemon
        self.config = config
        self.log = log if log is not None else IncidentLog()
        #: True while failed-safe (uncore pinned at ceiling, governor down).
        self.degraded = False
        #: True once re-arming is disabled/exhausted: degraded to the end.
        self.dead = False
        self.missed_deadlines = 0
        self.failsafe_count = 0
        self.rearm_count = 0
        #: Transient-error retries across all cycles.
        self.retry_count = 0
        #: ``(time, 1.0)`` at each fail-safe, ``(time, 0.0)`` at each re-arm.
        self.degraded_edges: List[Tuple[float, float]] = []
        self._rearm_at_s = float("inf")

    # ------------------------------------------------------------------
    # Engine composition
    # ------------------------------------------------------------------
    @property
    def observers(self) -> Tuple[TickObserver, ...]:
        """The wrapped daemon's observers plus the degraded-state channel."""
        return (*self.daemon.observers, DegradedStateObserver(self))

    @property
    def incident_count(self) -> int:
        """Total incidents logged so far (injector + supervisor sides)."""
        return len(self.log)

    @property
    def incidents(self) -> List[Incident]:
        """The full incident log as a list."""
        return list(self.log)

    # ------------------------------------------------------------------
    # ScheduledRuntime protocol
    # ------------------------------------------------------------------
    def start(self, now_s: float) -> None:
        """Begin the wrapped daemon's schedule."""
        self.daemon.start(now_s)

    def next_fire_s(self) -> float:
        """The daemon's schedule, or the re-arm time while degraded."""
        if self.degraded:
            return self._rearm_at_s
        return self.daemon.next_fire_s()

    def invoke(self, now_s: float) -> None:
        """One supervised cycle (or one re-arm attempt while degraded)."""
        if self.degraded:
            self._attempt_rearm(now_s)
        else:
            self._supervised_cycle(now_s)

    # ------------------------------------------------------------------
    # Supervision core
    # ------------------------------------------------------------------
    def _supervised_cycle(self, now_s: float) -> None:
        cfg = self.config
        meter = AccessMeter()
        backoff_s = cfg.backoff_base_s
        attempts = 0
        while True:
            try:
                self.daemon.invoke(now_s, meter=meter)
            except TelemetryError as exc:
                attempts += 1
                if attempts <= cfg.max_retries:
                    self._log(
                        now_s,
                        device=_exc_device(exc),
                        fault=type(exc).__name__,
                        action="retry",
                        outcome="retried",
                        fault_id=getattr(exc, "fault_id", None),
                        detail=f"attempt {attempts}/{cfg.max_retries}: {exc}",
                    )
                    meter.charge("retry_backoff", backoff_s, 0.0)
                    backoff_s *= cfg.backoff_factor
                    self.retry_count += 1
                    continue
                self._log(
                    now_s,
                    device=_exc_device(exc),
                    fault=type(exc).__name__,
                    action="retry",
                    outcome="exhausted",
                    fault_id=getattr(exc, "fault_id", None),
                    detail=f"retries exhausted after {attempts - 1}: {exc}",
                )
                self._fail_safe(now_s, meter)
                return
            except Exception as exc:
                # A crashing policy is contained, never retried: its state
                # is suspect and transient recovery does not apply.
                self._log(
                    now_s,
                    device="governor",
                    fault=type(exc).__name__,
                    action="contain",
                    outcome="crashed",
                    fault_id=getattr(exc, "fault_id", None),
                    detail=str(exc),
                )
                self._fail_safe(now_s, meter)
                return
            else:
                if attempts:
                    self._log(
                        now_s,
                        device="daemon",
                        fault="transient",
                        action="retry",
                        outcome="recovered",
                        detail=f"cycle completed after {attempts} failed attempts",
                    )
                self._watchdog(now_s)
                return

    def _watchdog(self, now_s: float) -> None:
        interval_s = self.daemon.governor.interval_s
        invocation_s = self.daemon.cycles[-1].invocation_s
        if invocation_s is None or interval_s == float("inf"):
            return  # firmware, or a policy that never re-fires
        deadline_s = self.config.deadline_factor * interval_s
        if invocation_s > deadline_s:
            self.missed_deadlines += 1
            self._log(
                now_s,
                device="daemon",
                fault="deadline",
                action="deadline",
                outcome="missed",
                detail=f"invocation {invocation_s:.3f}s > deadline {deadline_s:.3f}s",
            )

    def _fail_safe(self, now_s: float, meter: AccessMeter) -> None:
        """Contain the failure: account the dead cycle, pin the ceiling."""
        daemon = self.daemon
        daemon.abandon_cycle(meter)
        node = daemon.node
        # Last-ditch direct write, deliberately below the (possibly
        # faulted) telemetry actuation path: the vendor-default ceiling
        # keeps the application fed at the baseline's power cost.
        node.force_uncore_all(node.uncore_max_ghz)
        node.degraded = True
        self.degraded = True
        self.failsafe_count += 1
        self.degraded_edges.append((now_s, 1.0))
        cfg = self.config
        exhausted = cfg.max_rearms is not None and self.rearm_count >= cfg.max_rearms
        if cfg.rearm_cooldown_s is None or exhausted:
            self.dead = True
            self._rearm_at_s = float("inf")
            detail = "re-arm disabled; node degraded until end of run"
        else:
            self._rearm_at_s = now_s + cfg.rearm_cooldown_s
            detail = f"uncore pinned at ceiling; re-arm at t={self._rearm_at_s:.3f}s"
        self._log(
            now_s,
            device="daemon",
            fault="governor_down",
            action="failsafe",
            outcome="failed_safe",
            detail=detail,
        )

    def _attempt_rearm(self, now_s: float) -> None:
        self.rearm_count += 1
        self.degraded = False
        self.daemon.node.degraded = False
        self._rearm_at_s = float("inf")
        self.daemon.governor.on_rearm()
        self._supervised_cycle(now_s)
        if not self.degraded:
            self.degraded_edges.append((now_s, 0.0))
            self._log(
                now_s,
                device="daemon",
                fault="governor_down",
                action="rearm",
                outcome="rearmed",
                detail=f"governor re-armed (attempt {self.rearm_count})",
            )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _log(self, time_s: float, *, device: str, fault: str, action: str, outcome: str,
             fault_id: Optional[int] = None, detail: str = "") -> None:
        self.log.append(
            Incident(
                time_s=time_s,
                source="supervisor",
                device=device,
                fault=fault,
                action=action,
                outcome=outcome,
                fault_id=fault_id,
                detail=detail,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "degraded" if self.degraded else "ok"
        return (
            f"SupervisedDaemon({self.daemon.governor.name!r}, {state}, "
            f"{len(self.log)} incidents)"
        )


def _exc_device(exc: Exception) -> str:
    """Best-effort device attribution for a telemetry error."""
    name = type(exc).__name__
    if "MSR" in name:
        return "msr"
    text = str(exc).lower()
    for device in ("pcm", "rapl", "hsmp", "nvml"):
        if device in text:
            return device
    return "telemetry"
