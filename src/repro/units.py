"""Unit conventions and small conversion helpers.

The library uses a single canonical unit per quantity everywhere:

========== =================== =========================================
Quantity   Canonical unit      Notes
========== =================== =========================================
time       seconds (s)         simulated wall-clock time
frequency  gigahertz (GHz)     core, uncore and GPU SM clocks
bandwidth  gigabytes/s (GB/s)  memory throughput (PCM-style system total)
power      watts (W)
energy     joules (J)
========== =================== =========================================

Raw register codecs (e.g. the uncore ratio bits of MSR ``0x620``) convert
at the telemetry boundary via the helpers below; everything above that
boundary speaks canonical units.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

__all__ = [
    "require_finite",
    "GHZ_PER_UNCORE_RATIO",
    "JOULES_PER_RAPL_UNIT",
    "ghz_to_uncore_ratio",
    "uncore_ratio_to_ghz",
    "watts_to_joules",
    "joules_to_watt_hours",
    "mhz_to_ghz",
    "ghz_to_mhz",
    "clamp",
    "approx_equal",
    "ordered_sum",
]

#: Intel uncore ratio registers encode frequency in multiples of 100 MHz.
GHZ_PER_UNCORE_RATIO = 0.1

#: Default RAPL energy-status unit (2^-14 J ~ 61 microjoules), the common
#: value of MSR_RAPL_POWER_UNIT's energy field on Xeon parts.
JOULES_PER_RAPL_UNIT = 2.0**-14


def require_finite(
    *values: float, error: Callable[..., Exception], allow_inf: bool = False
) -> None:
    """Raise ``error(*values)`` if any of ``values`` is NaN or infinite.

    Range checks are comparisons, and NaN passes every comparison, so a
    boundary that takes floats calls this before its range checks. The
    caller's ``error`` builds the exception from the values passed here,
    so each boundary keeps its own error type and message. ``allow_inf``
    refuses NaN only, for boundaries where an infinity is a valid value or
    sentinel.

    >>> require_finite(2.5, float("inf"), error=ValueError, allow_inf=True)
    >>> require_finite(2.5, float("inf"), error=ValueError)
    Traceback (most recent call last):
    ...
    ValueError: (2.5, inf)
    """
    for value in values:
        if math.isnan(value) if allow_inf else not math.isfinite(value):
            raise error(*values)


def _invalid_frequency(freq_ghz: float) -> ValueError:
    return ValueError(f"invalid frequency: {freq_ghz!r} GHz")


def ghz_to_uncore_ratio(freq_ghz: float) -> int:
    """Convert a frequency in GHz to an integer uncore ratio (100 MHz bins).

    The hardware rounds to the nearest ratio; so do we.

    >>> ghz_to_uncore_ratio(2.2)
    22
    >>> ghz_to_uncore_ratio(0.8)
    8
    """
    require_finite(freq_ghz, error=_invalid_frequency)
    if freq_ghz < 0:
        raise _invalid_frequency(freq_ghz)
    return int(round(freq_ghz / GHZ_PER_UNCORE_RATIO))


def uncore_ratio_to_ghz(ratio: int) -> float:
    """Convert an integer uncore ratio back to GHz.

    >>> uncore_ratio_to_ghz(22)
    2.2
    """
    if ratio < 0:
        raise ValueError(f"invalid uncore ratio: {ratio!r}")
    return ratio * GHZ_PER_UNCORE_RATIO


def watts_to_joules(power_w: float, duration_s: float) -> float:
    """Energy in joules of a constant draw ``power_w`` over ``duration_s``."""
    if duration_s < 0:
        raise ValueError(f"negative duration: {duration_s!r}")
    return power_w * duration_s


def joules_to_watt_hours(energy_j: float) -> float:
    """Convert joules to watt-hours (used only for report formatting)."""
    return energy_j / 3600.0


def mhz_to_ghz(freq_mhz: float) -> float:
    """Convert MHz to GHz."""
    return freq_mhz / 1000.0


def ghz_to_mhz(freq_ghz: float) -> float:
    """Convert GHz to MHz."""
    return freq_ghz * 1000.0


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval ``[lo, hi]``.

    >>> clamp(3.0, 0.8, 2.2)
    2.2
    """
    if lo > hi:
        raise ValueError(f"empty interval: [{lo!r}, {hi!r}]")
    return max(lo, min(hi, value))


def approx_equal(a: float, b: float, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Tolerant float comparison used by clock arithmetic."""
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def ordered_sum(values: Iterable[float]) -> float:
    """Add ``values`` left to right, starting from ``0.0``.

    The builtin ``sum`` is not a substitute for floats: from Python 3.12 it
    compensates the rounding error of each addition, so the same inputs can
    sum to a different double on 3.9 and on 3.12. This loop rounds after
    every addition on every version, the way NumPy's pairwise sum does
    below eight terms.

    >>> ordered_sum([1e16, 1.0, -1e16])
    0.0
    """
    total = 0.0
    for value in values:
        # Not ``+=``: a plain rebinding shows whole-program dataflow (the
        # RL008 seed-taint lint) that the total is no literal.
        total = total + value
    return total
