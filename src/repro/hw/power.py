"""Power-domain bookkeeping.

The paper's three metrics are defined over specific power domains:

* *Power saving* — CPU package (core + uncore) **plus DRAM**;
* *Energy saving* — CPU package + DRAM **plus GPU board**;
* Fig. 2's "CPU power" — package + DRAM.

:class:`PowerBreakdown` is the per-tick record of every domain, with the
derived sums used throughout the analysis layer, so no call site re-derives
a domain sum by hand (an easy place to silently diverge from the paper's
definitions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PowerModelError

__all__ = ["PowerBreakdown"]


@dataclass(frozen=True)
class PowerBreakdown:
    """Instantaneous power of every domain, in watts.

    Attributes
    ----------
    core_w:
        Sum of core-domain power over all sockets.
    uncore_w:
        Sum of uncore-domain power over all sockets.
    dram_w:
        DRAM power (all channels).
    gpu_w:
        Total GPU board power.
    monitor_w:
        Power attributable to the measurement runtime itself (counter
        reads); charged to the package domain, since that is where a real
        monitoring daemon burns cycles.
    """

    core_w: float
    uncore_w: float
    dram_w: float
    gpu_w: float
    monitor_w: float = 0.0

    def __post_init__(self) -> None:
        # One chained test per tick; the loop only names the culprit.
        if (
            self.core_w < 0
            or self.uncore_w < 0
            or self.dram_w < 0
            or self.gpu_w < 0
            or self.monitor_w < 0
        ):
            for field_name in ("core_w", "uncore_w", "dram_w", "gpu_w", "monitor_w"):
                v = getattr(self, field_name)
                if v < 0:
                    raise PowerModelError(f"{field_name} must be non-negative, got {v!r}")

    @property
    def package_w(self) -> float:
        """CPU package power: core + uncore + monitoring overhead."""
        return self.core_w + self.uncore_w + self.monitor_w

    @property
    def cpu_w(self) -> float:
        """The paper's "CPU power": package + DRAM (Fig. 2's blue curve)."""
        return self.package_w + self.dram_w

    @property
    def total_w(self) -> float:
        """Node power: package + DRAM + GPU board."""
        return self.cpu_w + self.gpu_w

    def __add__(self, other: "PowerBreakdown") -> "PowerBreakdown":
        return PowerBreakdown(
            core_w=self.core_w + other.core_w,
            uncore_w=self.uncore_w + other.uncore_w,
            dram_w=self.dram_w + other.dram_w,
            gpu_w=self.gpu_w + other.gpu_w,
            monitor_w=self.monitor_w + other.monitor_w,
        )
