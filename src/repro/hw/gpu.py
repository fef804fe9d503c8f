"""GPU models: SM-clock DVFS and board power.

For this reproduction the GPU matters in two ways:

* Its SM clock is *dynamically* managed by default — the contrast the paper
  draws against the stuck-at-max uncore (Fig. 1b vs 1c).
* Its board power is a term of the energy-saving metric, and its **idle
  floor** is the mechanism behind Fig. 4c: on a 4×A100-80GB node ~200 W of
  idle draw multiplies the energy cost of any runtime stretch, shrinking
  net savings relative to the single-GPU system.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.errors import PowerModelError
from repro.units import clamp, ordered_sum

__all__ = ["GPUModel", "GPUGroup"]


class GPUModel:
    """One GPU board: clock governor plus power model.

    Parameters
    ----------
    name:
        Marketing name, used in reports ("A100-40GB", "Max-1550"...).
    idle_w:
        Board power at zero utilisation (includes VRM, fans, PCIe logic).
    max_w:
        Board power limit at full utilisation and max clock.
    base_clock_ghz / max_clock_ghz:
        SM clock range; the governor interpolates with utilisation.
    """

    def __init__(
        self,
        name: str = "A100-40GB",
        *,
        idle_w: float = 30.0,
        max_w: float = 400.0,
        base_clock_ghz: float = 0.765,
        max_clock_ghz: float = 1.41,
    ):
        if idle_w < 0 or max_w <= idle_w:
            raise PowerModelError(f"invalid GPU power range idle={idle_w!r}, max={max_w!r}")
        if not (0 < base_clock_ghz <= max_clock_ghz):
            raise PowerModelError(f"invalid SM clock range [{base_clock_ghz}, {max_clock_ghz}]")
        self.name = name
        self.idle_w = float(idle_w)
        self.max_w = float(max_w)
        self.base_clock_ghz = float(base_clock_ghz)
        self.max_clock_ghz = float(max_clock_ghz)
        self._util = 0.0
        self._clock_ghz = base_clock_ghz

    def step(self, util: float) -> None:
        """Advance one tick at the given utilisation.

        The SM clock governor is deliberately simple: clock scales linearly
        with utilisation between base and max, which reproduces the
        "dynamically adjusted by default" behaviour of Fig. 1b.
        """
        self._util = clamp(util, 0.0, 1.0)
        self._clock_ghz = self.base_clock_ghz + (self.max_clock_ghz - self.base_clock_ghz) * self._util

    @property
    def util(self) -> float:
        """Utilisation after the latest :meth:`step`."""
        return self._util

    @property
    def sm_clock_ghz(self) -> float:
        """SM clock after the latest :meth:`step`."""
        return self._clock_ghz

    def power_w(self) -> float:
        """Instantaneous board power.

        Slightly super-linear in utilisation (``util^1.15``) — GPUs draw
        disproportionately at high occupancy — times a clock-ratio factor.
        """
        clock_ratio = self._clock_ghz / self.max_clock_ghz
        dyn = (self.max_w - self.idle_w) * (self._util**1.15) * (0.35 + 0.65 * clock_ratio)
        return self.idle_w + dyn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GPUModel({self.name!r}, util={self._util:.2f}, clock={self._clock_ghz:.2f} GHz)"


class GPUGroup:
    """A set of identical GPUs driven data-parallel by one workload.

    The workload's ``gpu_util`` applies to every member (data-parallel
    training / domain-decomposed simulation), with a small per-GPU imbalance
    so multi-GPU traces are not artificially identical.
    """

    def __init__(self, gpus: Sequence[GPUModel], *, imbalance: float = 0.03):
        if not gpus:
            raise PowerModelError("GPU group must contain at least one GPU")
        if not (0.0 <= imbalance < 1.0):
            raise PowerModelError(f"imbalance must be in [0, 1), got {imbalance!r}")
        self.gpus: List[GPUModel] = list(gpus)
        self.imbalance = float(imbalance)

    def __len__(self) -> int:
        return len(self.gpus)

    def step(self, util: float) -> None:
        """Drive every member at ``util`` with a deterministic skew."""
        n = len(self.gpus)
        for i, gpu in enumerate(self.gpus):
            skew = 1.0 - self.imbalance * (i / max(1, n - 1)) if n > 1 else 1.0
            gpu.step(util * skew)

    def power_w(self) -> float:
        """Total board power of the group."""
        return float(ordered_sum(g.power_w() for g in self.gpus))

    def idle_power_w(self) -> float:
        """Total idle-floor power of the group."""
        return float(ordered_sum(g.idle_w for g in self.gpus))

    def mean_sm_clock_ghz(self) -> float:
        """Average SM clock across the group."""
        return float(ordered_sum(g.sm_clock_ghz for g in self.gpus) / len(self.gpus))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GPUGroup(n={len(self.gpus)}, {self.gpus[0].name!r})"
