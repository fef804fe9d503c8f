"""Exception hierarchy for the MAGUS reproduction.

Every error raised by :mod:`repro` derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.  The
sub-classes mirror the major subsystems: simulation, hardware models,
telemetry, workloads, governors, and the experiment harness.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "ReproError",
    "ConfigError",
    "SimulationError",
    "ClockError",
    "HardwareError",
    "FrequencyRangeError",
    "PowerModelError",
    "TelemetryError",
    "BackendError",
    "MSRAccessError",
    "CounterOverflowError",
    "GuardError",
    "FaultInjectionError",
    "SupervisionError",
    "WorkloadError",
    "UnknownWorkloadError",
    "GovernorError",
    "ExperimentError",
    "PoolError",
    "CampaignError",
    "CoordinatorError",
    "LintError",
    "ObsError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ConfigError(ReproError):
    """Raised when a configuration object is internally inconsistent."""


class SimulationError(ReproError):
    """Raised for failures inside the discrete-time simulation engine."""


class ClockError(SimulationError):
    """Raised when simulated time would move backwards or is misaligned."""


class HardwareError(ReproError):
    """Base class for errors raised by hardware component models."""


class FrequencyRangeError(HardwareError):
    """Raised when a frequency request falls outside a component's range."""

    def __init__(self, requested_ghz: float, lo_ghz: float, hi_ghz: float) -> None:
        self.requested_ghz = requested_ghz
        self.lo_ghz = lo_ghz
        self.hi_ghz = hi_ghz
        super().__init__(
            f"frequency {requested_ghz:.3f} GHz outside supported range "
            f"[{lo_ghz:.3f}, {hi_ghz:.3f}] GHz"
        )


class PowerModelError(HardwareError):
    """Raised when a power model produces or is given invalid values."""


class TelemetryError(ReproError):
    """Base class for telemetry (counter/register) errors."""


class BackendError(TelemetryError):
    """Raised for an invalid switch-latency model (a negative or non-finite
    parameter, an unknown preset, a spec of the wrong type) — never by the
    device access, which surfaces as its own telemetry error."""


class MSRAccessError(TelemetryError):
    """Raised on invalid model-specific-register access (bad address/value)."""

    def __init__(self, address: int, reason: str) -> None:
        self.address = address
        self.reason = reason
        super().__init__(f"MSR 0x{address:X}: {reason}")


class CounterOverflowError(TelemetryError):
    """Raised when a hardware counter wraps in a way the reader cannot fix."""


class GuardError(TelemetryError):
    """Raised by the telemetry-integrity guard when an access cannot be
    trusted: a circuit breaker is open for the device, or a verified
    actuation write kept disagreeing with its register read-back.  Derives
    from :class:`TelemetryError` so the supervised runtime treats a guard
    refusal exactly like a device failure — bounded retries, then the one
    existing fail-safe path."""


class FaultInjectionError(ReproError):
    """Raised when the fault-injection harness itself is misused (bad
    specs, arming a hub twice, ...) — never by an *injected* fault, which
    always surfaces as the telemetry error it models."""


class SupervisionError(ReproError):
    """Raised when a supervised runtime is misconfigured."""


class WorkloadError(ReproError):
    """Base class for workload construction/validation errors."""


class UnknownWorkloadError(WorkloadError):
    """Raised when a workload name is not present in the registry."""

    def __init__(self, name: str, known: Tuple[str, ...] = ()) -> None:
        self.name = name
        hint = f"; known: {', '.join(sorted(known))}" if known else ""
        super().__init__(f"unknown workload {name!r}{hint}")


class GovernorError(ReproError):
    """Raised when an uncore governor is misused or misconfigured."""


class ExperimentError(ReproError):
    """Raised by the experiment harness (missing artefacts, bad grids...)."""


class PoolError(ExperimentError):
    """Raised when a task of a parallel sweep raised or lost its worker.

    The message names the first such task in submission order, and the
    task's own exception is chained as ``__cause__``.
    """


class CampaignError(ExperimentError):
    """Raised by the journaled-campaign runner (bad step names, corrupt
    journal entries, cache-key mismatches...)."""


class CoordinatorError(ExperimentError):
    """Raised by the cluster power-budget coordinator: invalid lease/epoch
    configuration, a corrupt grant journal, or — defensively — an
    arbitration step that would violate the never-exceed budget invariant
    (the coordinator refuses to issue the grant rather than overshoot)."""


class LintError(ReproError):
    """Raised when ``repro lint`` itself is misused (bad paths, corrupt
    baseline files, malformed rule registries) — never for a violation,
    which is a *finding*, not an error."""


class ObsError(ReproError):
    """Raised when the observability layer is misused (invalid metric
    names, mismatched span ids, merging registries with conflicting
    instrument kinds...)."""
