"""GuardConfig: every tunable of the telemetry-integrity guard.

Defaults are chosen so that a guard on clean telemetry is *invisible*:
validation is pure arithmetic over values the governor already paid to
read, the per-check meter charge is zero, and every threshold sits far
outside anything the simulated hardware produces in a fault-free run.
The golden-trace suite pins exactly that: guard-on under a zero-fault
plan is bit-identical to guard-off.  Setting ``check_time_s`` /
``check_energy_j`` models a real validation cost; it is charged to the
cycle meter under the ``guard_check`` access kind, so a costed guard is
accounted as honestly as any other monitoring overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import ConfigError
from repro.units import require_finite

__all__ = ["GuardConfig"]


@dataclass(frozen=True)
class GuardConfig:
    """Tunables for :class:`~repro.guard.core.TelemetryGuard`.

    Attributes
    ----------
    margin:
        Physical-bounds headroom multiplier over the preset's nameplate
        figures (peak bandwidth, TDP, core clock).
    max_ipc:
        Instructions-per-cycle ceiling for the MSR sweep rate check.
    pcm_floor_mbps:
        Throughput below which PCM frozen/stuck signatures are ignored —
        an idle memory system legitimately reads 0 forever.
    stuck_rel_tol:
        Relative divergence between a bit-identical repeated PCM sample
        and the throughput implied by the cumulative byte counter before
        the sample is declared stuck.
    stuck_abs_tol_mbps:
        Absolute slack for the same comparison (windowing differences).
    slew_slack_j:
        Absolute slack on the RAPL energy slew check.
    freeze_consecutive:
        Identical consecutive readings (power channels) before a
        frozen-sample quarantine.
    cross_check / cross_rel_tol / cross_abs_slack_w / cross_window_s:
        Passive RAPL-DRAM-vs-PCM-bandwidth consistency check: when a PCM
        sample at most ``cross_window_s`` old exists, DRAM power implied
        by the energy delta must match the preset's DRAM power model at
        that bandwidth within ``cross_rel_tol`` relative plus
        ``cross_abs_slack_w`` absolute watts.
    breaker_threshold:
        Consecutive quarantines on one device before its breaker opens.
    breaker_open_s / breaker_backoff / breaker_max_open_s / breaker_jitter_frac:
        Probe scheduling: an open breaker schedules its half-open probe
        ``open_s`` (escalated by ``backoff`` per consecutive re-open,
        capped at ``max_open_s``) seconds ahead on the *sim clock*, with
        a seeded ±``jitter_frac`` jitter.
    verify_writes / verify_retries / verify_backoff_base_s / verify_backoff_factor:
        Write-verify actuation: after each backend write, compare the
        register read-back; on mismatch retry up to ``verify_retries``
        times with the supervisor-style exponential backoff (charged to
        the cycle meter as ``retry_backoff``), then trip.
    check_time_s / check_energy_j:
        Metered cost of one validation pass (zero by default — see the
        module docstring).
    """

    margin: float = 1.5
    max_ipc: float = 8.0
    pcm_floor_mbps: float = 1.0
    stuck_rel_tol: float = 0.25
    stuck_abs_tol_mbps: float = 5.0
    slew_slack_j: float = 1.0
    freeze_consecutive: int = 3
    cross_check: bool = True
    cross_rel_tol: float = 0.5
    cross_abs_slack_w: float = 5.0
    cross_window_s: float = 1.0
    breaker_threshold: int = 3
    breaker_open_s: float = 2.0
    breaker_backoff: float = 2.0
    breaker_max_open_s: float = 30.0
    breaker_jitter_frac: float = 0.1
    verify_writes: bool = True
    verify_retries: int = 2
    verify_backoff_base_s: float = 0.005
    verify_backoff_factor: float = 2.0
    check_time_s: float = 0.0
    check_energy_j: float = 0.0

    def __post_init__(self) -> None:
        # Every range check below is a comparison, which NaN passes.
        for spec in fields(self):
            require_finite(
                getattr(self, spec.name),
                error=lambda _, name=spec.name: ConfigError(f"{name} must not be NaN"),
                allow_inf=True,
            )
        if self.margin < 1.0:
            raise ConfigError(f"margin must be >= 1, got {self.margin!r}")
        if self.max_ipc <= 0:
            raise ConfigError(f"max_ipc must be positive, got {self.max_ipc!r}")
        if self.pcm_floor_mbps < 0 or self.stuck_abs_tol_mbps < 0:
            raise ConfigError("PCM floors/tolerances must be non-negative")
        if self.stuck_rel_tol < 0 or self.slew_slack_j < 0:
            raise ConfigError("tolerances must be non-negative")
        if self.freeze_consecutive < 2:
            raise ConfigError(
                f"freeze_consecutive must be >= 2 (one reading is never frozen), "
                f"got {self.freeze_consecutive!r}"
            )
        if self.cross_rel_tol < 0 or self.cross_abs_slack_w < 0 or self.cross_window_s <= 0:
            raise ConfigError("cross-check tolerances must be non-negative, window positive")
        if self.breaker_threshold < 1:
            raise ConfigError(f"breaker_threshold must be >= 1, got {self.breaker_threshold!r}")
        if self.breaker_open_s <= 0 or self.breaker_max_open_s < self.breaker_open_s:
            raise ConfigError(
                "breaker_open_s must be positive and no larger than breaker_max_open_s"
            )
        if self.breaker_backoff < 1.0:
            raise ConfigError(f"breaker_backoff must be >= 1, got {self.breaker_backoff!r}")
        if not (0.0 <= self.breaker_jitter_frac < 1.0):
            raise ConfigError(
                f"breaker_jitter_frac must be in [0, 1), got {self.breaker_jitter_frac!r}"
            )
        if self.verify_retries < 0:
            raise ConfigError(f"verify_retries must be >= 0, got {self.verify_retries!r}")
        if self.verify_backoff_base_s < 0 or self.verify_backoff_factor < 1.0:
            raise ConfigError("verify backoff must be non-negative with factor >= 1")
        if self.check_time_s < 0 or self.check_energy_j < 0:
            raise ConfigError("check costs must be non-negative")
