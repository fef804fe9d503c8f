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


@dataclass(frozen=True, init=False)
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

    def __init__(
        self, core_w: float, uncore_w: float, dram_w: float, gpu_w: float, monitor_w: float = 0.0
    ) -> None:
        # A node step builds one per node: one chained test, and the fields
        # set in one update past the frozen __setattr__, instead of one
        # object.__setattr__ call per field. The loop only names the culprit.
        if core_w < 0 or uncore_w < 0 or dram_w < 0 or gpu_w < 0 or monitor_w < 0:
            values = (core_w, uncore_w, dram_w, gpu_w, monitor_w)
            for field_name, v in zip(("core_w", "uncore_w", "dram_w", "gpu_w", "monitor_w"), values):
                if v < 0:
                    raise PowerModelError(f"{field_name} must be non-negative, got {v!r}")
        self.__dict__.update(
            core_w=core_w, uncore_w=uncore_w, dram_w=dram_w, gpu_w=gpu_w, monitor_w=monitor_w
        )

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
