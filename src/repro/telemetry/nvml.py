"""NVML/oneAPI-style GPU telemetry.

The paper measures GPU board power with NVIDIA's NVML on the A100 systems
and Intel oneAPI on the Max 1550 system; both expose the same two queries
this device provides — instantaneous board power and SM clock — plus a
cumulative energy view used by the energy-saving metric.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import TelemetryError
from repro.hw.node import HeterogeneousNode
from repro.telemetry.sampling import AccessMeter
from repro.units import ordered_sum

__all__ = ["NVMLDevice"]

#: NVML queries are lightweight driver calls; cost is negligible next to
#: MSR/PCM access but still metered for completeness.
_QUERY_TIME_S = 5e-4
_QUERY_ENERGY_J = 5e-3


class NVMLDevice:
    """GPU power/clock query interface over the node's GPU group."""

    def __init__(self, node: HeterogeneousNode):
        self.node = node
        self._energy_j = 0.0

    def on_tick(self, dt_s: float) -> None:
        """Integrate GPU board energy for one tick."""
        if dt_s <= 0:
            raise TelemetryError(f"dt must be positive, got {dt_s!r}")
        state = self.node.last_state
        if state is not None:
            self._energy_j += state.power.gpu_w * dt_s

    @property
    def device_count(self) -> int:
        """Number of GPUs visible to the interface."""
        return len(self.node.gpus)

    def power_w(self, index: Optional[int] = None, meter: Optional[AccessMeter] = None) -> float:
        """Board power of GPU ``index``, or of all GPUs when ``index`` is None."""
        if meter is not None:
            meter.charge("nvml_query", _QUERY_TIME_S, _QUERY_ENERGY_J)
        gpus = self.node.gpus.gpus
        if index is None:
            return float(ordered_sum(g.power_w() for g in gpus))
        if not (0 <= index < len(gpus)):
            raise TelemetryError(f"no such GPU {index!r} (node has {len(gpus)})")
        return gpus[index].power_w()

    def sm_clock_ghz(self, index: int = 0, meter: Optional[AccessMeter] = None) -> float:
        """SM clock of GPU ``index`` in GHz."""
        if meter is not None:
            meter.charge("nvml_query", _QUERY_TIME_S, _QUERY_ENERGY_J)
        gpus = self.node.gpus.gpus
        if not (0 <= index < len(gpus)):
            raise TelemetryError(f"no such GPU {index!r} (node has {len(gpus)})")
        return gpus[index].sm_clock_ghz

    def energy_j(self, meter: Optional[AccessMeter] = None) -> float:
        """Cumulative GPU board energy in joules (all GPUs)."""
        if meter is not None:
            meter.charge("nvml_query", _QUERY_TIME_S, _QUERY_ENERGY_J)
        return self._energy_j

    def per_gpu_power_w(self, meter: Optional[AccessMeter] = None) -> List[float]:
        """Board power of every GPU, in index order."""
        if meter is not None:
            meter.charge("nvml_query", _QUERY_TIME_S, _QUERY_ENERGY_J, n=self.device_count)
        return [g.power_w() for g in self.node.gpus.gpus]
