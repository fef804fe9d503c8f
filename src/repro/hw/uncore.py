"""Uncore (LLC + memory controller + interconnect) frequency and power model.

The uncore is the paper's protagonist.  The model captures the three
behaviours the evaluation depends on:

1. **Binned frequency control.** Real Intel uncore ratio limits are set in
   100 MHz bins via MSR ``0x620``; requests snap to the nearest bin inside
   the supported range.
2. **Transition latency.** Hardware cannot re-clock the mesh instantly; the
   effective frequency slews toward the target at a finite rate. Under
   millisecond-scale demand fluctuation this lag is one of the two reasons
   (with software reaction delay) that chasing every phase change loses
   performance — the phenomenon MAGUS's high-frequency detector works around.
3. **Frequency/activity-dependent power.** Per socket,
   ``P = static + span * r^exponent * (act_floor + (1-act_floor)*traffic)``
   with ``r`` the frequency ratio. Calibrated so the dual-socket span
   between min and max uncore during UNet is ~80 W (paper Fig. 2, "up to
   40 % of CPU package power").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import FrequencyRangeError, PowerModelError
from repro.units import clamp, require_finite

__all__ = ["UncorePowerParams", "UncoreModel"]


@dataclass(frozen=True)
class UncorePowerParams:
    """Coefficients of the per-socket uncore power model.

    Parameters
    ----------
    static_w:
        Frequency-independent floor (always-on mesh logic), watts.
    span_w:
        Dynamic power at max frequency and full traffic activity, watts.
    exponent:
        Frequency exponent; ~2.3 reflects V/f scaling of the mesh domain.
    activity_floor:
        Fraction of dynamic power drawn even with no memory traffic (clock
        distribution, snoop traffic); the remainder scales with traffic.
    """

    static_w: float = 4.0
    span_w: float = 55.0
    exponent: float = 2.3
    activity_floor: float = 0.55

    def __post_init__(self) -> None:
        if self.static_w < 0 or self.span_w < 0:
            raise PowerModelError("uncore power coefficients must be non-negative")
        if self.exponent <= 0:
            raise PowerModelError(f"exponent must be positive, got {self.exponent!r}")
        if not (0.0 <= self.activity_floor <= 1.0):
            raise PowerModelError(f"activity_floor must be in [0, 1], got {self.activity_floor!r}")


class UncoreModel:
    """One socket's uncore: frequency state machine plus power model.

    Parameters
    ----------
    min_ghz / max_ghz:
        Supported uncore frequency range (e.g. 0.8–2.2 GHz on Ice Lake-SP,
        0.8–2.5 GHz on Sapphire Rapids Max).
    bin_ghz:
        Control granularity; Intel ratio registers step in 0.1 GHz.
    slew_ghz_per_s:
        Rate at which the effective frequency approaches the target. The
        default re-clocks the full 1.4 GHz swing in ~30 ms, consistent with
        observed mesh re-lock times being much shorter than the 200 ms
        software monitoring interval but non-zero at millisecond scale.
    power:
        Power model coefficients.
    """

    def __init__(
        self,
        min_ghz: float = 0.8,
        max_ghz: float = 2.2,
        *,
        bin_ghz: float = 0.1,
        slew_ghz_per_s: float = 50.0,
        power: UncorePowerParams = UncorePowerParams(),
    ):
        if not (0 < min_ghz < max_ghz):
            raise FrequencyRangeError(min_ghz, 0.0, max_ghz)
        if bin_ghz <= 0 or slew_ghz_per_s <= 0:
            raise PowerModelError("bin_ghz and slew_ghz_per_s must be positive")
        self.min_ghz = float(min_ghz)
        self.max_ghz = float(max_ghz)
        self.bin_ghz = float(bin_ghz)
        self.slew_ghz_per_s = float(slew_ghz_per_s)
        self.power_params = power
        self._target_ghz = self.max_ghz
        self._effective_ghz = self.max_ghz
        self._transition_count = 0
        # A latency-delayed target: programmed by the control backend but
        # not yet adopted by the clock domain (see request_target).
        self._pending_target_ghz: Optional[float] = None
        self._pending_delay_s = 0.0

    # ------------------------------------------------------------------
    # Frequency control
    # ------------------------------------------------------------------
    @property
    def target_ghz(self) -> float:
        """Currently requested (snapped) frequency."""
        return self._target_ghz

    @property
    def effective_ghz(self) -> float:
        """Frequency the mesh is actually running at right now."""
        return self._effective_ghz

    @property
    def transition_count(self) -> int:
        """Number of distinct target changes since construction."""
        return self._transition_count

    @property
    def pending_target_ghz(self) -> Optional[float]:
        """A programmed target whose switch latency has not elapsed yet."""
        return self._pending_target_ghz

    @property
    def in_transition(self) -> bool:
        """True while a frequency change is still in flight.

        Covers both phases of a real transition: the switch-latency window
        before the new target is adopted, and the slew while the effective
        frequency ramps toward it. A read during either phase sees the
        ramping value, not the target.
        """
        return self._pending_target_ghz is not None or abs(
            self._target_ghz - self._effective_ghz
        ) > 1e-9

    def snap(self, freq_ghz: float) -> float:
        """Snap a frequency onto the supported bin grid, clamping to range.

        ``±inf`` clamp to the range's ends; NaN raises
        :class:`~repro.errors.FrequencyRangeError` (a clamp would read it as
        the ceiling). Every actuation path snaps, so none adopts a NaN.
        """
        require_finite(
            freq_ghz,
            error=lambda f: FrequencyRangeError(f, self.min_ghz, self.max_ghz),
            allow_inf=True,
        )
        clamped = clamp(freq_ghz, self.min_ghz, self.max_ghz)
        bins = round(clamped / self.bin_ghz)
        return clamp(bins * self.bin_ghz, self.min_ghz, self.max_ghz)

    def set_target(self, freq_ghz: float, *, strict: bool = False) -> float:
        """Request a new target frequency.

        Parameters
        ----------
        freq_ghz:
            Requested frequency in GHz.
        strict:
            When True, out-of-range requests raise
            :class:`~repro.errors.FrequencyRangeError` instead of clamping —
            this is how the MSR write path surfaces invalid ratio encodings.

        Returns
        -------
        float
            The snapped target actually adopted.
        """
        if strict and not (self.min_ghz - 1e-9 <= freq_ghz <= self.max_ghz + 1e-9):
            raise FrequencyRangeError(freq_ghz, self.min_ghz, self.max_ghz)
        snapped = self.snap(freq_ghz)
        if abs(snapped - self._target_ghz) > 1e-12:
            self._transition_count += 1
            self._target_ghz = snapped
        return snapped

    def request_target(self, freq_ghz: float, *, delay_s: float = 0.0, strict: bool = False) -> float:
        """Request a new target after a modeled switch latency.

        With ``delay_s == 0`` this is exactly :meth:`set_target` (and any
        previously pending request is superseded). With a positive delay
        the register write has happened but the clock domain keeps running
        at the old target for ``delay_s`` simulated seconds; the target is
        adopted inside :meth:`step` once the delay elapses, after which the
        usual slew ramp applies.

        Returns the snapped target that will (eventually) be adopted.
        """
        if delay_s < 0:
            raise PowerModelError(f"negative actuation delay {delay_s!r}")
        if delay_s == 0.0:
            self._pending_target_ghz = None
            return self.set_target(freq_ghz, strict=strict)
        if strict and not (self.min_ghz - 1e-9 <= freq_ghz <= self.max_ghz + 1e-9):
            raise FrequencyRangeError(freq_ghz, self.min_ghz, self.max_ghz)
        snapped = self.snap(freq_ghz)
        self._pending_target_ghz = snapped
        self._pending_delay_s = float(delay_s)
        return snapped

    def force(self, freq_ghz: float) -> None:
        """Set both target and effective frequency instantly.

        Used to establish initial conditions (e.g. a node idling at min
        uncore before an application arrives) and by the supervisor's
        fail-safe, which deliberately bypasses in-flight transitions —
        any pending request is cancelled.
        """
        snapped = self.snap(freq_ghz)
        self._target_ghz = snapped
        self._effective_ghz = snapped
        self._pending_target_ghz = None
        self._pending_delay_s = 0.0

    def step(self, dt_s: float) -> float:
        """Advance the slew by ``dt_s`` seconds; return the new effective freq."""
        if dt_s < 0:
            raise PowerModelError(f"negative dt {dt_s!r}")
        if self._pending_target_ghz is not None:
            self._pending_delay_s -= dt_s
            if self._pending_delay_s <= 1e-12:
                pending = self._pending_target_ghz
                self._pending_target_ghz = None
                self._pending_delay_s = 0.0
                self.set_target(pending)
        delta = self._target_ghz - self._effective_ghz
        max_step = self.slew_ghz_per_s * dt_s
        if abs(delta) <= max_step:
            self._effective_ghz = self._target_ghz
        else:
            self._effective_ghz += max_step if delta > 0 else -max_step
        return self._effective_ghz

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def power_w(self, traffic_util: float) -> float:
        """Instantaneous uncore power draw at the current effective frequency.

        Parameters
        ----------
        traffic_util:
            Memory-traffic activity in [0, 1] (delivered bandwidth over the
            subsystem's peak).
        """
        if not (0.0 <= traffic_util <= 1.0 + 1e-9):
            raise PowerModelError(f"traffic_util must be in [0, 1], got {traffic_util!r}")
        p = self.power_params
        r = self._effective_ghz / self.max_ghz
        activity = p.activity_floor + (1.0 - p.activity_floor) * min(traffic_util, 1.0)
        return p.static_w + p.span_w * (r**p.exponent) * activity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UncoreModel([{self.min_ghz}, {self.max_ghz}] GHz, "
            f"target={self._target_ghz:.1f}, effective={self._effective_ghz:.2f})"
        )
