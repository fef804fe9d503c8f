"""Memory subsystem: bandwidth ceiling vs uncore frequency, DRAM power.

This is where the uncore decision turns into performance.  The subsystem
exposes a single method, :meth:`MemorySubsystem.service`, that answers: given
the current effective uncore frequency, how much of the workload's memory
demand is delivered, and by how much does the phase stretch?

Model
-----
* **Ceiling.** ``ceiling(f) = peak_bw * min(1, f / f_ref)`` with
  ``f_ref < f_max``: the top frequency bins have bandwidth headroom (max and
  near-max uncore are performance-equivalent), while the bottom of the range
  caps throughput hard. This is the shape visible in the paper's Fig. 5 top
  plot, where min uncore visibly clips the SRAD bursts.
* **Stretch.** A roofline-style critical-path split: a phase with memory
  intensity ``mi`` whose demand ``D`` gets only ``S`` delivered stretches by
  ``(1 - mi) + mi * D/S``.
* **DRAM power.** ``base + w_per_gbps * delivered`` — DRAM power tracks
  traffic, which is exactly the signal UPScavenger uses for phase detection.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import PowerModelError

__all__ = ["MemoryServiceResult", "MemorySubsystem"]


class MemoryServiceResult(NamedTuple):
    """Outcome of serving one tick of memory demand (one per node per tick).

    Attributes
    ----------
    delivered_gbps:
        Throughput actually delivered (≤ demand and ≤ ceiling).
    stretch:
        Critical-path time-dilation factor, ≥ 1.
    traffic_util:
        Delivered throughput over the subsystem's absolute peak, in [0, 1];
        feeds activity-dependent uncore/DRAM power.
    served_fraction:
        delivered/demand (1.0 when demand is zero); feeds the IPC stall
        model.
    """

    delivered_gbps: float
    stretch: float
    traffic_util: float
    served_fraction: float


class MemorySubsystem:
    """Node-level memory subsystem (all channels of all sockets combined).

    Parameters
    ----------
    peak_bw_gbps:
        Peak host memory throughput of the node with the uncore at or above
        ``f_ref_ghz``. For GPU-dominant workloads this is dominated by
        host↔device staging traffic, so it is of PCIe-link magnitude rather
        than raw DRAM magnitude.
    f_ref_ghz:
        Uncore frequency above which bandwidth no longer improves.
    f_max_ghz:
        Max uncore frequency (for traffic_util normalisation sanity only).
    dram_base_w:
        Traffic-independent DRAM power (refresh, background).
    dram_w_per_gbps:
        Incremental DRAM power per GB/s of delivered traffic.
    """

    def __init__(
        self,
        peak_bw_gbps: float = 35.0,
        *,
        f_ref_ghz: float = 1.8,
        f_max_ghz: float = 2.2,
        dram_base_w: float = 10.0,
        dram_w_per_gbps: float = 0.35,
    ):
        if peak_bw_gbps <= 0:
            raise PowerModelError(f"peak bandwidth must be positive, got {peak_bw_gbps!r}")
        if not (0 < f_ref_ghz <= f_max_ghz):
            raise PowerModelError(f"invalid f_ref/f_max: {f_ref_ghz!r}/{f_max_ghz!r}")
        if dram_base_w < 0 or dram_w_per_gbps < 0:
            raise PowerModelError("DRAM power coefficients must be non-negative")
        self.peak_bw_gbps = float(peak_bw_gbps)
        self.f_ref_ghz = float(f_ref_ghz)
        self.f_max_ghz = float(f_max_ghz)
        self.dram_base_w = float(dram_base_w)
        self.dram_w_per_gbps = float(dram_w_per_gbps)

    def ceiling_gbps(self, uncore_ghz: float) -> float:
        """Bandwidth ceiling at effective uncore frequency ``uncore_ghz``."""
        if uncore_ghz <= 0:
            raise PowerModelError(f"uncore frequency must be positive, got {uncore_ghz!r}")
        return self.peak_bw_gbps * min(1.0, uncore_ghz / self.f_ref_ghz)

    def service(self, demand_gbps: float, mem_intensity: float, uncore_ghz: float) -> MemoryServiceResult:
        """Serve one tick of demand at the given uncore frequency.

        Parameters
        ----------
        demand_gbps:
            The workload segment's throughput demand.
        mem_intensity:
            Fraction of the segment's critical path bound on this traffic.
        uncore_ghz:
            Effective (not target) uncore frequency.
        """
        if demand_gbps < 0:
            raise PowerModelError(f"negative demand {demand_gbps!r}")
        if not (0.0 <= mem_intensity <= 1.0):
            raise PowerModelError(f"mem_intensity must be in [0, 1], got {mem_intensity!r}")
        ceiling = self.ceiling_gbps(uncore_ghz)
        if demand_gbps <= 1e-12:
            return MemoryServiceResult(0.0, 1.0, 0.0, 1.0)
        delivered = min(demand_gbps, ceiling)
        served = delivered / demand_gbps
        stretch = (1.0 - mem_intensity) + mem_intensity / served if served < 1.0 else 1.0
        traffic_util = min(1.0, delivered / self.peak_bw_gbps)
        return MemoryServiceResult(delivered, stretch, traffic_util, served)

    def dram_power_w(self, delivered_gbps: float) -> float:
        """DRAM power at the given delivered throughput."""
        if delivered_gbps < 0:
            raise PowerModelError(f"negative delivered throughput {delivered_gbps!r}")
        return self.dram_base_w + self.dram_w_per_gbps * delivered_gbps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemorySubsystem(peak={self.peak_bw_gbps} GB/s, f_ref={self.f_ref_ghz} GHz)"
